// Ablation H (the paper's other future-work item): ideal vs realistic MAC.
// The paper isolates mobility effects with a collision-free MAC and defers
// "more accurate results using a realistic power control MAC layer" to
// future work. This bench runs the recommended configuration (RNG + view
// synchronization + 10 m buffer) under both MACs: carrier sensing and
// collision loss shave a few points off connectivity — more at high
// mobility where Hello traffic matters most — without changing any
// qualitative conclusion.
#include "common.hpp"

int main() try {
  using namespace mstc;
  const auto speeds = bench::speed_axis();
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner("Ablation: ideal vs contention (CSMA) MAC",
                2 * speeds.size(), repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const char* mac : {"ideal", "csma"}) {
    for (double speed : speeds) {
      auto cfg = bench::base_config();
      cfg.protocol = "RNG";
      cfg.mode = core::ConsistencyMode::kViewSync;
      cfg.buffer_width = 10.0;
      cfg.average_speed = speed;
      cfg.mac = mac;
      grid.push_back(cfg);
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"mac", "speed_mps", "connectivity", "strict",
                     "collision_fraction"});
  table.set_title("MAC realism (RNG + VS + 10 m buffer)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({grid[i].mac, grid[i].average_speed,
                   bench::ci_cell(results[i].delivery()),
                   bench::ci_cell(results[i].strict()),
                   bench::ci_cell(results[i].mac_collisions())});
  }
  bench::emit(table, "ablation_mac");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
