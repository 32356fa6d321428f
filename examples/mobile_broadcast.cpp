// Mobile broadcast: the full mobility-sensitive stack on a moving network.
//
// Runs the same random-waypoint scenario four ways — the mobility-
// insensitive baseline, buffer zone only, view synchronization + buffer,
// and physical neighbors + buffer — and reports the connectivity each
// configuration sustains.
//
//   ./mobile_broadcast [protocol] [avg_speed_mps]
//   e.g. ./mobile_broadcast RNG 40
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

int main(int argc, char** argv) try {
  using namespace mstc;
  const std::string protocol = argc > 1 ? argv[1] : "RNG";
  const double speed = argc > 2 ? std::strtod(argv[2], nullptr) : 40.0;

  runner::ScenarioConfig base = runner::apply_env_overrides({});
  base.protocol = protocol;
  base.average_speed = speed;

  struct Variant {
    const char* label;
    core::ConsistencyMode mode;
    double buffer;
    bool physical_neighbors;
  };
  const Variant variants[] = {
      {"baseline (no mobility mgmt)", core::ConsistencyMode::kLatest, 0.0,
       false},
      {"buffer zone 100 m", core::ConsistencyMode::kLatest, 100.0, false},
      {"view sync + 10 m buffer", core::ConsistencyMode::kViewSync, 10.0,
       false},
      {"physical neighbors + 10 m", core::ConsistencyMode::kLatest, 10.0,
       true},
      {"all three combined", core::ConsistencyMode::kViewSync, 100.0, true},
  };

  std::printf(
      "protocol %s, %zu nodes, average speed %.0f m/s, %.0f s simulated, "
      "%zu repeats\n\n",
      protocol.c_str(), base.node_count, speed, base.duration,
      runner::sweep_repeats(3));
  std::printf("%-30s %12s %10s %10s %8s\n", "configuration", "connectivity",
              "strict", "range_m", "degree");

  for (const Variant& variant : variants) {
    runner::ScenarioConfig cfg = base;
    cfg.mode = variant.mode;
    cfg.buffer_width = variant.buffer;
    cfg.physical_neighbors = variant.physical_neighbors;
    const auto agg = runner::run_repeated(cfg, runner::sweep_repeats(3));
    std::printf("%-30s %6.3f ±%.3f %10.3f %10.1f %8.2f\n", variant.label,
                agg.delivery().ci95().mean, agg.delivery().ci95().half_width,
                agg.strict().mean(), agg.range().mean(),
                agg.logical_degree().mean());
  }

  std::printf(
      "\nReading the table: 'connectivity' is the fraction of nodes reached\n"
      "by flooding (the paper's weak connectivity); 'strict' is snapshot\n"
      "pair-connectivity of the effective topology. The buffer zone repairs\n"
      "outdated ranges, view synchronization repairs inconsistent logical\n"
      "decisions, and physical neighbors add redundancy — the paper's three\n"
      "mechanisms (Sections 4.1-4.3).\n");
  return 0;
} catch (const std::exception& error) {
  // A rejected MSTC_* setting (runner::apply_env_overrides, sweep_repeats).
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}
