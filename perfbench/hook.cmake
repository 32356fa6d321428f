# Injected into the repository's own configure step by run.py through
# -DCMAKE_PROJECT_INCLUDE, so the benchmark is compiled with the same
# compiler, build type and library targets a user's build of the repository
# gets, without the repository's CMakeLists.txt knowing about it. It runs at
# the end of project(), before src/ is added; target names link lazily, so
# mstc_runner resolves at generate time.
include_guard(GLOBAL)
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/perfbench)
