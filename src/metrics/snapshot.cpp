#include "metrics/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "core/effective.hpp"
#include "geom/filter.hpp"
#include "obs/counters.hpp"

namespace mstc::metrics {
namespace {

// Mutual (both-ends) logical link count: the number of ordered pairs
// (u, v) with v in L(u) and u in L(v) — exactly what the old per-neighbor
// is_logical() scan counted. Builds the reverse adjacency R(v) = {u : v in
// L(u)} as CSR rows (ascending, because rows fill in ascending-u order),
// then two-pointer-merges L(u) against R(u) per node. Sortedness of
// logical_neighbors() is a documented contract (controller.hpp), pinned by
// SnapshotGridTest.MutualMergeRequiresSortedLogicalNeighbors.
std::size_t mutual_logical_links(
    std::span<const core::NodeController> controllers,
    std::vector<std::size_t>& start, std::vector<std::size_t>& cursor,
    std::vector<core::NodeId>& list) {
  const std::size_t n = controllers.size();
  start.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (const core::NodeId v : controllers[u].logical_neighbors()) {
      assert(v < n);
      ++start[v + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) start[v + 1] += start[v];
  cursor.assign(start.begin(), start.begin() + static_cast<std::ptrdiff_t>(n));
  list.resize(start[n]);
  for (std::size_t u = 0; u < n; ++u) {
    for (const core::NodeId v : controllers[u].logical_neighbors()) {
      list[cursor[v]++] = u;
    }
  }
  std::size_t mutual = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::vector<core::NodeId>& forward =
        controllers[u].logical_neighbors();
    std::size_t f = 0;
    std::size_t r = start[u];
    const std::size_t r_end = start[u + 1];
    while (f < forward.size() && r < r_end) {
      if (forward[f] < list[r]) {
        ++f;
      } else if (list[r] < forward[f]) {
        ++r;
      } else {
        ++mutual;
        ++f;
        ++r;
      }
    }
  }
  return mutual;
}

}  // namespace

SnapshotStats measure_snapshot(std::span<const core::NodeController> controllers,
                               std::span<const geom::Vec2> positions) {
  SnapshotScratch scratch;
  return measure_snapshot(controllers, positions, scratch);
}

SnapshotStats measure_snapshot(std::span<const core::NodeController> controllers,
                               std::span<const geom::Vec2> positions,
                               SnapshotScratch& scratch,
                               const SnapshotConfig& config,
                               const obs::Probe* probe) {
  assert(controllers.size() == positions.size());
  const std::size_t n = controllers.size();
  SnapshotStats stats;
  if (n == 0) return stats;

  // One pass over the candidate sets covers both range-based metrics: the
  // physical-degree count re-applies the exact distance_sq predicate, and
  // the link checks re-apply the exact can_deliver predicate (both-ends)
  // feeding the union-find. Candidate sets are ascending supersets of
  // everything either predicate can accept (core/effective.hpp), so both
  // integers — and the evaluation order of every double — match the
  // brute-force scan exactly.
  scratch.components_.reset(n);
  graph::SpatialGrid* grid =
      n >= config.grid_min_nodes ? &scratch.grid_ : nullptr;
  double range_total = 0.0;
  std::size_t physical_total = 0;
  std::uint64_t links_examined = 0;
  core::for_each_snapshot_candidates(
      controllers, positions, grid, scratch.candidates_,
      [&](std::size_t u, const std::vector<std::size_t>& candidates) {
        const double range = controllers[u].extended_range();
        range_total += range;
        const double range_sq = range * range;
        // Physical degree through the block filter: the wide kernel
        // evaluates exactly the scalar distance_sq predicate, and the count
        // feeds an integer total, so the result is trivially identical.
        // u is always its own candidate (distance 0, and every candidate
        // set is a superset of the exact acceptances), so the count
        // includes u; subtract it to match the v != u loop.
        const std::size_t m = candidates.size();
        scratch.xs_.resize(m);
        scratch.ys_.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
          scratch.xs_[i] = positions[candidates[i]].x;
          scratch.ys_[i] = positions[candidates[i]].y;
        }
        assert(std::binary_search(candidates.begin(), candidates.end(), u));
        const std::size_t within = geom::count_within_range(
            scratch.xs_.data(), scratch.ys_.data(), m, positions[u], range_sq);
        physical_total += within - 1;
        for (const std::size_t v : candidates) {
          if (v <= u) continue;
          ++links_examined;
          const double d = geom::distance(positions[u], positions[v]);
          if (core::can_deliver(controllers[u], controllers[v], d) &&
              core::can_deliver(controllers[v], controllers[u], d)) {
            scratch.components_.unite(u, v);
          }
        }
      });

  // Pair connectivity is a pure function of the component partition
  // (sum of s*(s-1) over component sizes), so the union-find reproduces
  // graph::pair_connectivity_ratio(effective_snapshot(...)) bit for bit,
  // including the n < 2 convention.
  if (n < 2) {
    stats.strict_connectivity = 1.0;
  } else {
    std::size_t connected_pairs = 0;
    for (std::size_t u = 0; u < n; ++u) {
      if (scratch.components_.find(u) == u) {  // component root
        const std::size_t s = scratch.components_.component_size(u);
        connected_pairs += s * (s - 1);
      }
    }
    stats.strict_connectivity = static_cast<double>(connected_pairs) /
                                static_cast<double>(n * (n - 1));
  }

  const std::size_t logical_total =
      mutual_logical_links(controllers, scratch.reverse_start_,
                           scratch.reverse_cursor_, scratch.reverse_list_);

  stats.mean_range = range_total / static_cast<double>(n);
  stats.mean_logical_degree =
      static_cast<double>(logical_total) / static_cast<double>(n);
  stats.mean_physical_degree =
      static_cast<double>(physical_total) / static_cast<double>(n);
  if (probe != nullptr) {
    probe->count(obs::Counter::kSnapshotLinksExamined, links_examined);
  }
  return stats;
}

}  // namespace mstc::metrics
