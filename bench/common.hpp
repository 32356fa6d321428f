// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary:
//   * builds a grid of ScenarioConfigs,
//   * runs them with run_batch (repeats from MSTC_REPEATS, default 5;
//     MSTC_PAPER_SCALE=1 restores the paper's 20 x 100 s setup),
//   * prints an aligned table whose rows mirror the paper's series, and
//   * optionally dumps CSV to $MSTC_CSV_DIR for offline plotting.
#pragma once

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mstc::bench {

/// Reports an error that escaped a bench's main (a rejected MSTC_* count,
/// say) as the CLI does: "error: ..." on stderr and exit status 2. Every
/// bench main is a function-try-block ending in this handler.
inline int report_error(const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}

/// The paper's baseline lineup (Table 1 / Figs. 6-10 order).
inline const std::vector<std::string> kPaperProtocols = {"MST", "RNG", "SPT-4",
                                                         "SPT-2"};

/// The paper's mobility axis (m/s). Average moving speed of the random
/// waypoint model; 1 = walking ... 160 = the paper's stress level.
inline std::vector<double> speed_axis() {
  return util::env_list("MSTC_SPEEDS", {1.0, 20.0, 40.0, 80.0, 160.0});
}

/// The paper's buffer-zone widths (m) from Figs. 7/9/10.
inline std::vector<double> buffer_axis() {
  return util::env_list("MSTC_BUFFERS", {0.0, 1.0, 10.0, 100.0});
}

/// Base scenario with CI-scale defaults and env escalation applied.
inline runner::ScenarioConfig base_config() {
  runner::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(
      util::env_or("MSTC_SEED", std::int64_t{20040426}));  // IPDPS 2004
  return runner::apply_env_overrides(cfg);
}

/// "0.874 ±0.021" cell for a per-run summary.
inline std::string ci_cell(const util::Summary& summary, int precision = 3) {
  const auto ci = summary.ci95();
  return util::format_ci(ci.mean, ci.half_width, precision);
}

/// run_batch with bench-wide observability: MSTC_PROGRESS=1 reports
/// completed/total + ETA on stderr while the sweep runs, and when
/// $MSTC_CSV_DIR is set a machine-readable run manifest (config, seed,
/// counter totals, wall-clock profile) lands next to the CSVs as
/// <name>.manifest.json. Results are byte-identical to plain run_batch.
inline std::vector<metrics::RunAggregator> observed_run_batch(
    const std::vector<runner::ScenarioConfig>& grid, std::size_t repeats,
    const std::string& name) {
  const std::string csv_dir = util::env_or("MSTC_CSV_DIR", std::string{});
  const bool progress =
      util::env_or("MSTC_PROGRESS", std::int64_t{0}) != 0;
  const bool manifest = !csv_dir.empty();

  util::ThreadPool& pool = util::global_pool();
  std::vector<obs::RunObservation> observations;
  runner::SweepHooks hooks;
  if (manifest) {
    hooks.observations = &observations;
    hooks.profile = true;
  }
  if (progress) {
    hooks.on_progress = [](const runner::SweepProgress& p) {
      std::fprintf(stderr, "\r[%zu/%zu] %.1fs elapsed, eta %.1fs   ",
                   p.completed, p.total, p.elapsed_seconds, p.eta_seconds);
      if (p.completed == p.total) std::fputc('\n', stderr);
      std::fflush(stderr);
    };
  }

  const std::uint64_t sweep_start = obs::wall_now_ns();
  auto results = runner::run_batch(grid, repeats, pool, hooks);
  if (manifest) {
    obs::CounterRegistry counters;
    obs::Profiler profiler;
    for (const obs::RunObservation& observation : observations) {
      counters.merge(observation.counters);
      profiler.merge(observation.profiler);
    }
    obs::Manifest out;
    out.tool = "bench_" + name;
    out.seed = base_config().seed;
    out.configurations = grid.size();
    out.repeats = repeats;
    const auto cfg = base_config();
    out.config = {
        {"nodes", std::to_string(cfg.node_count)},
        {"duration", std::to_string(cfg.duration)},
        {"mobility", cfg.mobility_model},
    };
    out.counters = &counters;
    out.profiler = &profiler;
    out.sweep_wall_seconds =
        static_cast<double>(obs::wall_now_ns() - sweep_start) * 1e-9;
    out.pool_threads = pool.thread_count();
    const std::string path = csv_dir + "/" + name + ".manifest.json";
    if (!obs::write_manifest(path, out)) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  }
  return results;
}

/// Prints the table and mirrors it to $MSTC_CSV_DIR/<name>.csv.
inline void emit(util::Table& table, const std::string& name) {
  table.print(std::cout);
  table.maybe_write_csv(util::env_or("MSTC_CSV_DIR", std::string{}), name);
  std::cout << '\n';
}

/// Banner with run-scale information, so bench logs are self-describing.
inline void banner(const std::string& title, std::size_t configs,
                   std::size_t repeats) {
  const auto cfg = base_config();
  std::printf(
      "=== %s ===\n"
      "%zu configurations x %zu repeats | %zu nodes, %.0f s sim, "
      "%.0f floods/s (MSTC_PAPER_SCALE=1 for the paper's 20 x 100 s)\n\n",
      title.c_str(), configs, repeats, cfg.node_count, cfg.duration,
      cfg.flood_rate);
}

}  // namespace mstc::bench
