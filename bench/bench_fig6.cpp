// Fig. 6: connectivity ratio of the baseline protocols vs average moving
// speed. Expected shape (paper): all baselines are vulnerable to mobility;
// SPT-2 is the most resilient (only tolerates very slow mobility), then
// RNG (~50 % at 1 m/s), SPT-4 (~40 %), and MST worst (~10 % even at 1 m/s).
#include "common.hpp"

int main() try {
  using namespace mstc;
  const auto speeds = bench::speed_axis();
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner("Fig. 6: baseline connectivity ratio vs mobility",
                bench::kPaperProtocols.size() * speeds.size(), repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const auto& protocol : bench::kPaperProtocols) {
    for (double speed : speeds) {
      auto cfg = bench::base_config();
      cfg.protocol = protocol;
      cfg.average_speed = speed;
      grid.push_back(cfg);
    }
  }
  const auto results = bench::observed_run_batch(grid, repeats, "fig6");

  util::Table table({"protocol", "speed_mps", "connectivity",
                     "strict_connectivity"});
  table.set_title("Fig. 6 (weak connectivity = flood delivery ratio)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({grid[i].protocol, grid[i].average_speed,
                   bench::ci_cell(results[i].delivery()),
                   bench::ci_cell(results[i].strict())});
  }
  bench::emit(table, "fig6");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
