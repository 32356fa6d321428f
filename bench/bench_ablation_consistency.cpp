// Ablation C: the full consistency-mechanism lineup under the Theorem 5
// adaptive buffer (l = 2 * Delta'' * v). Latest is the mobility-
// insensitive baseline; ViewSync is the paper's simulated mechanism;
// Proactive/Reactive are the two strong-consistency schemes of Section
// 4.1; Weak is Section 4.2. Strong/weak consistency fixes the *logical*
// topology, the adaptive buffer the *effective* one — together they hold
// connectivity across the mobility axis.
#include "common.hpp"

int main() try {
  using namespace mstc;
  using core::ConsistencyMode;
  const std::vector<double> speeds =
      util::env_list("MSTC_SPEEDS", {1.0, 20.0, 40.0});
  const std::vector<ConsistencyMode> modes = {
      ConsistencyMode::kLatest, ConsistencyMode::kViewSync,
      ConsistencyMode::kProactive, ConsistencyMode::kReactive,
      ConsistencyMode::kWeak};
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner("Ablation: consistency mechanisms + adaptive buffer",
                modes.size() * speeds.size(), repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const auto mode : modes) {
    for (double speed : speeds) {
      auto cfg = bench::base_config();
      cfg.protocol = "RNG";
      cfg.mode = mode;
      cfg.adaptive_buffer = true;
      cfg.average_speed = speed;
      grid.push_back(cfg);
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"mode", "speed_mps", "connectivity", "strict",
                     "avg_range_m", "control_tx_per_node_s"});
  table.set_title("Consistency mechanisms (RNG, adaptive buffer)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({std::string(core::to_string(grid[i].mode)),
                   grid[i].average_speed,
                   bench::ci_cell(results[i].delivery()),
                   bench::ci_cell(results[i].strict()),
                   bench::ci_cell(results[i].range(), 1),
                   bench::ci_cell(results[i].control_tx(), 2)});
  }
  bench::emit(table, "ablation_consistency");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
