// Ablation A: weak consistency vs the number of stored Hello records k.
// Theorem 3 / Corollary 1: k = 2 suffices with instantaneous updating and
// k = 3 with periodical updating; k = 1 degenerates to the inconsistent
// baseline, while large k makes decisions so conservative that topology
// control stops reducing the range (degree grows toward the original 18).
#include "common.hpp"

int main() try {
  using namespace mstc;
  const std::vector<double> ks = util::env_list("MSTC_WEAK_K", {1, 2, 3, 4});
  const std::vector<double> speeds =
      util::env_list("MSTC_SPEEDS", {1.0, 20.0, 40.0});
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner("Ablation: weak-consistency history depth k",
                2 * ks.size() * speeds.size(), repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const char* protocol : {"MST", "RNG"}) {
    for (double k : ks) {
      for (double speed : speeds) {
        auto cfg = bench::base_config();
        cfg.protocol = protocol;
        cfg.mode = core::ConsistencyMode::kWeak;
        cfg.history_limit = static_cast<std::size_t>(k);
        cfg.buffer_width = 10.0;
        cfg.average_speed = speed;
        grid.push_back(cfg);
      }
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"protocol", "k", "speed_mps", "connectivity",
                     "avg_range_m", "logical_degree"});
  table.set_title("Weak consistency: stored Hellos k (10 m buffer)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({grid[i].protocol,
                   static_cast<std::int64_t>(grid[i].history_limit),
                   grid[i].average_speed,
                   bench::ci_cell(results[i].delivery()),
                   bench::ci_cell(results[i].range(), 1),
                   bench::ci_cell(results[i].logical_degree(), 2)});
  }
  bench::emit(table, "ablation_weak_k");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
