// Fig. 9 (a-d): connectivity with and without view synchronization (VS),
// per protocol and buffer width. Expected shape (paper): VS gives every
// protocol a solid improvement — MST tolerates moderate mobility with a
// 100 m buffer, RNG with 10 m, SPT-4 with 10 m up to 20 m/s, SPT-2 with
// just 1 m.
#include "common.hpp"

int main() try {
  using namespace mstc;
  const auto speeds = bench::speed_axis();
  const auto buffers = util::env_list("MSTC_BUFFERS", {1.0, 10.0, 100.0});
  const std::size_t repeats = runner::sweep_repeats();
  bench::banner(
      "Fig. 9: view synchronization",
      bench::kPaperProtocols.size() * buffers.size() * speeds.size() * 2,
      repeats);

  std::vector<runner::ScenarioConfig> grid;
  for (const auto& protocol : bench::kPaperProtocols) {
    for (double buffer : buffers) {
      for (const bool synced : {false, true}) {
        for (double speed : speeds) {
          auto cfg = bench::base_config();
          cfg.protocol = protocol;
          cfg.buffer_width = buffer;
          cfg.mode = synced ? core::ConsistencyMode::kViewSync
                            : core::ConsistencyMode::kLatest;
          cfg.average_speed = speed;
          grid.push_back(cfg);
        }
      }
    }
  }
  const auto results = runner::run_batch(grid, repeats);

  util::Table table({"protocol", "buffer_m", "view_sync", "speed_mps",
                     "connectivity"});
  table.set_title("Fig. 9 (VS = on-the-fly view synchronization)");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row(
        {grid[i].protocol, grid[i].buffer_width,
         std::string(grid[i].mode == core::ConsistencyMode::kViewSync ? "yes"
                                                                      : "no"),
         grid[i].average_speed, bench::ci_cell(results[i].delivery())});
  }
  bench::emit(table, "fig9");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
