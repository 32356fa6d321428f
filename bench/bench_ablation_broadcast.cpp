// Ablation G: broadcast cost — blind flooding vs CDS forward nodes ([34]),
// and what staleness does to a CDS ([35]).
//
// On each mobility snapshot we build the Wu-Li CDS twice: from the CURRENT
// positions (what a magically synchronized network would use) and from
// positions STALE by one Hello interval. Fresh CDSes cover everything with
// ~1/3 of the transmissions; stale CDSes lose coverage as speed grows —
// the same mobility sensitivity this library fixes for topology control.
#include "broadcast/cds.hpp"
#include "common.hpp"
#include "mobility/models.hpp"
#include "topology/builder.hpp"

int main() try {
  using namespace mstc;
  const auto speeds = bench::speed_axis();
  const std::size_t repeats = runner::sweep_repeats(3);
  bench::banner("Ablation: flooding vs CDS broadcast", speeds.size(), repeats);

  constexpr double kRange = 250.0;
  constexpr std::size_t kNodes = 100;
  constexpr double kStaleness = 1.0;  // one Hello interval

  util::Table table({"speed_mps", "flood_tx", "cds_tx", "cds_coverage",
                     "stale_cds_tx", "stale_cds_coverage"});
  table.set_title("Broadcast from random sources (100-node snapshots)");

  for (const double speed : speeds) {
    util::Summary flood_tx, cds_tx, cds_cov, stale_tx, stale_cov;
    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
      const auto model = mobility::make_paper_waypoint({900.0, 900.0}, speed);
      const auto traces = mobility::generate_traces(
          *model, kNodes, 30.0,
          util::derive_seed(bench::base_config().seed + repeat, 0xB4));
      util::Xoshiro256 rng(
          util::derive_seed(bench::base_config().seed + repeat, 0x5C));
      for (double t = kStaleness; t <= 30.0; t += 2.0) {
        std::vector<geom::Vec2> now(kNodes), old(kNodes);
        for (std::size_t i = 0; i < kNodes; ++i) {
          now[i] = traces[i].position(t);
          old[i] = traces[i].position(t - kStaleness);
        }
        const auto current = topology::original_graph(now, kRange);
        const graph::NodeId source = rng.uniform_below(kNodes);
        const std::vector<bool> everyone(kNodes, true);
        flood_tx.add(static_cast<double>(
            broadcast::forward_count(current, everyone, source)));
        const auto fresh = broadcast::connected_dominating_set(current);
        cds_tx.add(static_cast<double>(
            broadcast::forward_count(current, fresh, source)));
        cds_cov.add(broadcast::broadcast_coverage(current, fresh, source));
        // Stale CDS: computed from positions one interval ago, used now.
        const auto stale = broadcast::connected_dominating_set(
            topology::original_graph(old, kRange));
        stale_tx.add(static_cast<double>(
            broadcast::forward_count(current, stale, source)));
        stale_cov.add(broadcast::broadcast_coverage(current, stale, source));
      }
    }
    table.add_row({speed, bench::ci_cell(flood_tx, 1),
                   bench::ci_cell(cds_tx, 1), bench::ci_cell(cds_cov),
                   bench::ci_cell(stale_tx, 1), bench::ci_cell(stale_cov)});
  }
  bench::emit(table, "ablation_broadcast");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
