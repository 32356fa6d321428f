// Fixture: environment reads in library code outside the sanctioned TUs
// (src/runner/config.cpp, src/util/thread_pool.cpp, src/util/options.*)
// must be flagged by the `env-read` rule — a run takes every setting from
// its config struct, never from the environment behind it.
#include <cstdlib>
#include <string>

#include "util/options.hpp"

namespace mstc::fixture {

bool bad_getenv() { return std::getenv("MSTC_EXAMPLE_SWITCH") != nullptr; }

bool bad_unqualified_getenv() { return getenv("MSTC_EXAMPLE_SWITCH"); }

bool bad_flag() { return util::env_flag("MSTC_EXAMPLE_SWITCH"); }

double bad_value() { return mstc::util::env_or("MSTC_EXAMPLE_RATE", 1.0); }

std::string bad_raw() {
  return util::env("MSTC_EXAMPLE_NAME").value_or("default");
}

}  // namespace mstc::fixture
