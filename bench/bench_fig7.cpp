// Fig. 7 (a-d): connectivity ratio with buffer zones of width
// {0, 1, 10, 100} m for each baseline protocol. Expected shape (paper):
// a buffer zone alone does not fix most protocols — SPT-2 tolerates
// moderate mobility (<= 40 m/s) with a 10 m buffer; RNG and SPT-4 need
// 100 m; MST fails even with 100 m.
#include "common.hpp"

int main() try {
  using namespace mstc;
  const auto speeds = bench::speed_axis();
  const auto buffers = bench::buffer_axis();
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner("Fig. 7: buffer zones only",
                bench::kPaperProtocols.size() * buffers.size() * speeds.size(),
                repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const auto& protocol : bench::kPaperProtocols) {
    for (double buffer : buffers) {
      for (double speed : speeds) {
        auto cfg = bench::base_config();
        cfg.protocol = protocol;
        cfg.buffer_width = buffer;
        cfg.average_speed = speed;
        grid.push_back(cfg);
      }
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"protocol", "buffer_m", "speed_mps", "connectivity"});
  table.set_title("Fig. 7 (one sub-plot per protocol, one series per width)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({grid[i].protocol, grid[i].buffer_width,
                   grid[i].average_speed,
                   bench::ci_cell(results[i].delivery())});
  }
  bench::emit(table, "fig7");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
