#include "runner/config.hpp"

#include <stdexcept>
#include <string>

#include "util/options.hpp"

namespace mstc::runner {

namespace {

/// Reads a count from the environment. A negative value is a configuration
/// error, not a huge unsigned count.
std::size_t env_count(const char* name, std::size_t fallback) {
  const std::int64_t value =
      util::env_or(name, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw std::invalid_argument(std::string(name) +
                                " must not be negative, got " +
                                std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

ScenarioConfig paper_scale(ScenarioConfig base) {
  base.duration = 100.0;
  base.flood_rate = 10.0;
  base.snapshot_rate = 10.0;
  return base;
}

ScenarioConfig apply_env_overrides(ScenarioConfig base) {
  if (util::env_flag("MSTC_PAPER_SCALE")) base = paper_scale(base);
  base.duration = util::env_or("MSTC_SIM_TIME", base.duration);
  base.node_count = env_count("MSTC_NODES", base.node_count);
  base.flood_rate = util::env_or("MSTC_FLOOD_RATE", base.flood_rate);
  base.snapshot_rate = util::env_or("MSTC_SNAPSHOT_RATE", base.snapshot_rate);
  base.warmup = util::env_or("MSTC_WARMUP", base.warmup);
  base.shards = env_count("MSTC_SHARDS", base.shards);
  return base;
}

std::size_t sweep_repeats(std::size_t fallback) {
  if (util::env_flag("MSTC_PAPER_SCALE")) fallback = 20;
  return env_count("MSTC_REPEATS", fallback);
}

}  // namespace mstc::runner
