// Fixture: library code that only mentions the environment must NOT be
// flagged by `env-read` — comments and strings naming getenv() or
// util::env_flag(), and identifiers that merely contain "env".
#include <string>

namespace mstc::fixture {

struct RunEnvironment {
  std::string environment_name = "getenv(MSTC_EXAMPLE) is not read here";
  double env_scale = 1.0;
};

// Settings arrive through the config; util::env_or() is for front ends.
double scaled(const RunEnvironment& run, double value) {
  const double environment_factor = run.env_scale;
  return value * environment_factor;
}

}  // namespace mstc::fixture
