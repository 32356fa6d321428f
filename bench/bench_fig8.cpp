// Fig. 8: (a) average transmission range and (b) average number of
// physical neighbors versus buffer-zone width, per protocol. Expected
// shape (paper, at moderate mobility): with a 100 m buffer, RNG and SPT-4
// ranges exceed 160 m while SPT-2 stays near 120 m with a 10 m buffer;
// physical-neighbor counts that tolerate moderate mobility are ~3.8-5.4.
#include "common.hpp"

int main() try {
  using namespace mstc;
  const auto buffers =
      util::env_list("MSTC_BUFFERS", {0.0, 1.0, 10.0, 30.0, 100.0});
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner("Fig. 8: range and physical neighbors vs buffer width",
                bench::kPaperProtocols.size() * buffers.size(), repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const auto& protocol : bench::kPaperProtocols) {
    for (double buffer : buffers) {
      auto cfg = bench::base_config();
      cfg.protocol = protocol;
      cfg.buffer_width = buffer;
      cfg.average_speed = 40.0;  // the paper's moderate-mobility anchor
      grid.push_back(cfg);
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"protocol", "buffer_m", "avg_range_m",
                     "physical_neighbors", "logical_degree"});
  table.set_title("Fig. 8a/8b (at 40 m/s average speed)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({grid[i].protocol, grid[i].buffer_width,
                   bench::ci_cell(results[i].range(), 1),
                   bench::ci_cell(results[i].physical_degree(), 2),
                   bench::ci_cell(results[i].logical_degree(), 2)});
  }
  bench::emit(table, "fig8");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
