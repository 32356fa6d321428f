// Ablation J: structural redundancy instead of mobility management.
//
// Section 2.2's claim about the fault-tolerant line of work ([1], [15],
// [18]): building a k-connected topology "can only reduce but not
// eliminate network partitioning" under mobility. We sweep the k-redundant
// Yao and CBTC variants as plain baselines (no view synchronization, no
// buffer) and compare them against the paper's actual fix (VS + buffer) on
// the 1-redundant protocol: redundancy helps, management wins.
#include "common.hpp"

int main() try {
  using namespace mstc;
  const auto speeds = bench::speed_axis();
  const std::size_t repeats = runner::sweep_repeats();
  const std::vector<std::string> lineup = {"Yao",   "Yao2",  "Yao3",
                                           "CBTC", "CBTC2", "CBTC3"};
  bench::banner("Ablation: k-redundant topologies vs mobility management",
                (lineup.size() + 1) * speeds.size(), repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const auto& protocol : lineup) {
    for (double speed : speeds) {
      auto cfg = bench::base_config();
      cfg.protocol = protocol;
      cfg.average_speed = speed;
      grid.push_back(cfg);
    }
  }
  // The managed reference: plain Yao + VS + 10 m buffer.
  for (double speed : speeds) {
    auto cfg = bench::base_config();
    cfg.protocol = "Yao";
    cfg.mode = core::ConsistencyMode::kViewSync;
    cfg.buffer_width = 10.0;
    cfg.average_speed = speed;
    grid.push_back(cfg);
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"config", "speed_mps", "connectivity", "avg_range_m",
                     "logical_degree"});
  table.set_title("Redundancy (k-Yao / CBTC-k baselines) vs management");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const bool managed = grid[i].mode == core::ConsistencyMode::kViewSync;
    table.add_row({managed ? "Yao+VS+10m" : grid[i].protocol,
                   grid[i].average_speed,
                   bench::ci_cell(results[i].delivery()),
                   bench::ci_cell(results[i].range(), 1),
                   bench::ci_cell(results[i].logical_degree(), 2)});
  }
  bench::emit(table, "ablation_fault_tolerance");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
