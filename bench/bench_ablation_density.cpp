// Ablation D: node density. The paper assumes a dense network (average
// degree 18 under the normal range); this sweep shows how the baseline and
// the VS + buffer combination behave as the deployment thins out or
// densifies.
#include "common.hpp"

int main() try {
  using namespace mstc;
  const std::vector<double> counts =
      util::env_list("MSTC_DENSITY", {50, 100, 150, 200});
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner("Ablation: node density", 2 * counts.size(), repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const bool enhanced : {false, true}) {
    for (double count : counts) {
      auto cfg = bench::base_config();
      cfg.protocol = "RNG";
      cfg.node_count = static_cast<std::size_t>(count);
      cfg.average_speed = 20.0;
      if (enhanced) {
        cfg.mode = core::ConsistencyMode::kViewSync;
        cfg.buffer_width = 10.0;
      }
      grid.push_back(cfg);
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"config", "nodes", "connectivity", "avg_range_m",
                     "logical_degree"});
  table.set_title("Node density (RNG, 20 m/s)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const bool enhanced = grid[i].mode == core::ConsistencyMode::kViewSync;
    table.add_row({std::string(enhanced ? "VS+10m" : "baseline"),
                   static_cast<std::int64_t>(grid[i].node_count),
                   bench::ci_cell(results[i].delivery()),
                   bench::ci_cell(results[i].range(), 1),
                   bench::ci_cell(results[i].logical_degree(), 2)});
  }
  bench::emit(table, "ablation_density");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
