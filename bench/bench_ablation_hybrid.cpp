// Ablation E (the paper's future-work experiment): mobility-TOLERANT vs
// mobility-ASSISTED management on a sparse network.
//
// Section 6 proposes combining the two regimes: when no snapshot of the
// effective topology is connected, instantaneous delivery (flooding over a
// topology-controlled network) fails, but store-carry-forward delivery
// still succeeds within a bounded delay. This bench quantifies that
// crossover: as density drops, the tolerant stack collapses while the
// assisted one keeps delivering — at the price of delay and copies.
#include "common.hpp"
#include "routing/epidemic.hpp"
#include "util/prng.hpp"

int main() try {
  using namespace mstc;
  const std::vector<double> ranges =
      util::env_list("MSTC_HYBRID_RANGES", {100.0, 150.0, 200.0, 250.0});
  const std::size_t repeats = runner::sweep_repeats(3);
  bench::banner("Ablation: tolerant vs assisted management", ranges.size(),
                repeats);

  util::Table table({"normal_range_m", "substrate_connectivity",
                     "tolerant_delivery", "assisted_delivery",
                     "assisted_delay_s", "assisted_copies"});
  table.set_title(
      "Sparse network (50 nodes, 20 m/s): flooding over RNG+VS+buffer vs "
      "epidemic store-carry-forward");

  for (const double range : ranges) {
    // Mobility-tolerant: the paper's stack (RNG + VS + 10 m buffer),
    // instantaneous flooding delivery.
    metrics::RunAggregator tolerant;
    {
      auto cfg = bench::base_config();
      cfg.protocol = "RNG";
      cfg.mode = core::ConsistencyMode::kViewSync;
      cfg.buffer_width = 10.0;
      cfg.node_count = 50;
      cfg.normal_range = range;
      cfg.average_speed = 20.0;
      tolerant = runner::run_repeated(cfg, repeats);
    }
    // Mobility-assisted: epidemic routing over the same raw range.
    util::Summary assisted_delivery, assisted_delay, assisted_copies,
        substrate;
    for (std::size_t r = 0; r < repeats; ++r) {
      routing::EpidemicConfig cfg;
      cfg.node_count = 50;
      cfg.range = range;
      cfg.average_speed = 20.0;
      cfg.duration = util::env_or("MSTC_HYBRID_TIME", 90.0);
      cfg.message_count = 40;
      cfg.seed = util::derive_seed(bench::base_config().seed, r + 1);
      const auto result = routing::run_epidemic(cfg);
      assisted_delivery.add(result.delivery_ratio);
      assisted_delay.add(result.delay.count() > 0 ? result.delay.mean() : 0.0);
      assisted_copies.add(result.mean_copies_per_message);
      substrate.add(result.snapshot_connectivity);
    }
    table.add_row({range, bench::ci_cell(substrate),
                   bench::ci_cell(tolerant.delivery()),
                   bench::ci_cell(assisted_delivery),
                   bench::ci_cell(assisted_delay, 1),
                   bench::ci_cell(assisted_copies, 1)});
  }
  bench::emit(table, "ablation_hybrid");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
