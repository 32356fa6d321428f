// Ablation B: Hello interval. Section 3.2's claim: view inconsistency
// "cannot be solved by reducing the Hello interval" — shrinking Delta
// reduces staleness (helping the effective topology) but inconsistent
// logical decisions persist, so the baseline never approaches the
// view-synchronized curve.
#include "common.hpp"

int main() try {
  using namespace mstc;
  const std::vector<double> intervals =
      util::env_list("MSTC_HELLO_INTERVALS", {0.25, 0.5, 1.0, 2.0});
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner("Ablation: Hello interval Delta", 2 * intervals.size(),
                repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const bool synced : {false, true}) {
    for (double interval : intervals) {
      auto cfg = bench::base_config();
      cfg.protocol = "RNG";
      cfg.hello_interval = interval;
      cfg.average_speed = 20.0;
      cfg.buffer_width = 10.0;
      cfg.mode = synced ? core::ConsistencyMode::kViewSync
                        : core::ConsistencyMode::kLatest;
      grid.push_back(cfg);
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table(
      {"view_sync", "hello_interval_s", "connectivity", "strict"});
  table.set_title("Hello interval (RNG, 20 m/s, 10 m buffer)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row(
        {std::string(grid[i].mode == core::ConsistencyMode::kViewSync ? "yes"
                                                                      : "no"),
         grid[i].hello_interval, bench::ci_cell(results[i].delivery()),
         bench::ci_cell(results[i].strict())});
  }
  bench::emit(table, "ablation_hello");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
