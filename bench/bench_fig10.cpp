// Fig. 10 (a-d): connectivity before and after enabling the physical-
// neighbor (PN) mechanism. Expected shape (paper): with PN, SPT-2
// tolerates moderate mobility with a 1 m buffer, RNG and SPT-4 with 10 m,
// MST with 100 m (93 % already at 30 m); with 100 m buffers every protocol
// reaches ~100 % even at 160 m/s.
#include "common.hpp"

int main() try {
  using namespace mstc;
  const auto speeds = bench::speed_axis();
  const auto buffers = util::env_list("MSTC_BUFFERS", {1.0, 10.0, 100.0});
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner(
      "Fig. 10: physical neighbors",
      bench::kPaperProtocols.size() * buffers.size() * speeds.size() * 2,
      repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const auto& protocol : bench::kPaperProtocols) {
    for (double buffer : buffers) {
      for (const bool pn : {false, true}) {
        for (double speed : speeds) {
          auto cfg = bench::base_config();
          cfg.protocol = protocol;
          cfg.buffer_width = buffer;
          cfg.physical_neighbors = pn;
          cfg.average_speed = speed;
          grid.push_back(cfg);
        }
      }
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"protocol", "buffer_m", "physical_neighbors", "speed_mps",
                     "connectivity", "avg_node_degree"});
  table.set_title("Fig. 10 (PN = accept packets from non-logical neighbors)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({grid[i].protocol, grid[i].buffer_width,
                   std::string(grid[i].physical_neighbors ? "yes" : "no"),
                   grid[i].average_speed,
                   bench::ci_cell(results[i].delivery()),
                   bench::ci_cell(results[i].physical_degree(), 2)});
  }
  bench::emit(table, "fig10");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
