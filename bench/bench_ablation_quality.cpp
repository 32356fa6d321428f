// Ablation F: static topology quality across the whole protocol family —
// the design-space table behind the paper's choice of baselines. For each
// protocol: range/degree (Table 1's axes) plus distance stretch,
// interference (Burkhart et al. [3]), and biconnectivity odds (fault-
// tolerance line [1]/[15]/[18]). Pure graph analysis on static
// placements: no DES involved.
#include "common.hpp"
#include "graph/algorithms.hpp"
#include "topology/analysis.hpp"
#include "topology/builder.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

int main() try {
  using namespace mstc;
  const std::size_t trials = static_cast<std::size_t>(
      util::env_or("MSTC_QUALITY_TRIALS", std::int64_t{10}));
  const auto protocols = topology::protocol_names();
  bench::banner("Ablation: static topology quality", protocols.size(), trials);

  constexpr double kRange = 250.0;
  util::Xoshiro256 placement_rng(bench::base_config().seed);

  // Shared placements so protocols are compared on identical inputs.
  std::vector<std::vector<geom::Vec2>> placements;
  while (placements.size() < trials) {
    std::vector<geom::Vec2> positions;
    for (int i = 0; i < 100; ++i) {
      positions.push_back({placement_rng.uniform(0.0, 900.0),
                           placement_rng.uniform(0.0, 900.0)});
    }
    if (graph::is_connected(topology::original_graph(positions, kRange))) {
      placements.push_back(std::move(positions));
    }
  }

  util::Table table({"protocol", "range_m", "degree", "mean_stretch",
                     "max_stretch", "max_interference", "biconnected_pct"});
  table.set_title("Static quality per protocol (identical placements)");
  for (const auto& name : protocols) {
    const auto suite = topology::make_protocol(name);
    util::Summary range, degree, mean_stretch, max_stretch, interference_max;
    std::size_t biconnected = 0;
    for (const auto& positions : placements) {
      const auto topo = topology::build_topology(positions, kRange,
                                                 *suite.protocol, *suite.cost);
      const auto logical = topology::logical_graph(topo, positions);
      const auto original = topology::original_graph(positions, kRange);
      const auto stretch = topology::stretch_ratio(original, logical);
      const auto rf = topology::interference(positions, logical);
      range.add(topo.average_range());
      degree.add(topo.average_logical_degree());
      mean_stretch.add(stretch.mean_stretch);
      max_stretch.add(stretch.max_stretch);
      interference_max.add(static_cast<double>(rf.max_interference));
      biconnected += graph::is_k_connected(logical, 2);
    }
    table.add_row({name, bench::ci_cell(range, 1), bench::ci_cell(degree, 2),
                   bench::ci_cell(mean_stretch, 2),
                   bench::ci_cell(max_stretch, 2),
                   bench::ci_cell(interference_max, 1),
                   100.0 * static_cast<double>(biconnected) /
                       static_cast<double>(trials)});
  }
  bench::emit(table, "ablation_quality");
  return 0;
} catch (const std::exception& error) {
  return mstc::bench::report_error(error);
}
