// Instantaneous ("god's-eye") measurements over a running network.
//
// The paper samples its metrics 10 times per simulated second: strict
// connectivity of the effective topology, average transmission range,
// logical node degree, and (for the physical-neighbor study, Fig. 8b)
// the average number of physical neighbors.
//
// Measurement is the grid-backed fast path of the snapshot layer: link
// enumeration and the physical-degree count run over SpatialGrid candidate
// sets with exact predicate confirmation, connectivity comes from a
// union-find over the enumerated links (no per-tick Graph build), and the
// mutual-logical count is a two-pointer merge over the sorted
// logical_neighbors() spans. Every shortcut is bit-identical to the
// brute-force scan — the differential suite tests/metrics/
// snapshot_grid_test.cpp byte-compares the two paths, and
// docs/PERFORMANCE.md works the identity argument.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "geom/vec2.hpp"
#include "graph/spatial_grid.hpp"
#include "graph/union_find.hpp"
#include "obs/probe.hpp"

namespace mstc::metrics {

struct SnapshotStats {
  /// Pair-connectivity ratio of the effective topology (strict model).
  double strict_connectivity = 0.0;
  /// Mean extended transmission range over nodes (m).
  double mean_range = 0.0;
  /// Mean logical degree under the both-ends rule.
  double mean_logical_degree = 0.0;
  /// Mean number of nodes inside each node's extended range.
  double mean_physical_degree = 0.0;
};

/// Tuning for the grid-backed measurement path.
struct SnapshotConfig {
  /// Fleets below this size stay on the brute-force scan (grid build
  /// overhead dominates under the crossover, mirroring the medium's
  /// grid_min_nodes threshold). SIZE_MAX forces the brute scan, the
  /// reference bench_snapshot and the differential suite compare against;
  /// both paths produce byte-identical SnapshotStats.
  std::size_t grid_min_nodes = 150;
};

/// Reusable measurement buffers: spatial grid, candidate list, union-find
/// components, reverse-adjacency CSR rows for the mutual-logical merge.
/// Owned by the caller (runner::Scenario keeps one per replication) so the
/// per-tick measurement is allocation-free at steady state. Contents are
/// meaningful only inside measure_snapshot; treat as opaque. One scratch
/// serves one thread at a time — share per replication, never across.
class SnapshotScratch {
 public:
  SnapshotScratch() = default;

 private:
  friend SnapshotStats measure_snapshot(
      std::span<const core::NodeController> controllers,
      std::span<const geom::Vec2> positions, SnapshotScratch& scratch,
      const SnapshotConfig& config, const obs::Probe* probe);

  graph::SpatialGrid grid_;
  std::vector<std::size_t> candidates_;
  std::vector<double> xs_;  ///< SoA candidate coordinates for the
  std::vector<double> ys_;  ///< physical-degree block filter
  graph::UnionFind components_;
  // Reverse logical adjacency in CSR form: row v holds {u : v in L(u)},
  // ascending because rows fill in ascending-u order.
  std::vector<std::size_t> reverse_start_;
  std::vector<std::size_t> reverse_cursor_;
  std::vector<core::NodeId> reverse_list_;
};

/// Convenience overload with temporary scratch and default config; same
/// results as the scratch-backed overload, just not allocation-free.
[[nodiscard]] SnapshotStats measure_snapshot(
    std::span<const core::NodeController> controllers,
    std::span<const geom::Vec2> positions);

/// Measures one snapshot. `probe` (may be null) receives the
/// snapshot_links_examined count — the number of exact link checks the
/// chosen path performed, the grid's headline saving over brute force.
[[nodiscard]] SnapshotStats measure_snapshot(
    std::span<const core::NodeController> controllers,
    std::span<const geom::Vec2> positions, SnapshotScratch& scratch,
    const SnapshotConfig& config = {}, const obs::Probe* probe = nullptr);

}  // namespace mstc::metrics
