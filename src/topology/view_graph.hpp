// The per-node view graph a topology-control protocol operates on.
//
// A ViewGraph is the owner node plus its 1-hop neighbors, with, for every
// node pair, an *interval* cost [cost_min, cost_max] that is +infinity
// where the pair has no link. With a single position version per node the
// interval collapses to a point and the protocols implement the paper's
// original link-removal conditions 1-3; with multiple versions (weak
// consistency, Section 4.2) the same code implements the enhanced
// conditions 1-3.
//
// The +infinity encoding lets the selection kernels scan whole matrix rows
// without asking whether a link exists: an absent link adds +infinity to
// any path and never wins a minimum (spt.cpp, lmst.cpp).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "topology/cost.hpp"

namespace mstc::topology {

/// A position a node advertised in one "Hello" message.
struct VersionedPosition {
  geom::Vec2 position;
  std::uint64_t version = 0;
  double send_time = 0.0;
};

class ViewGraph {
 public:
  /// Empty graph; reset() must run before any other member.
  ViewGraph() = default;

  /// Node index 0 is the owner; indices 1..neighbor_count are neighbors.
  ViewGraph(NodeId owner_id, std::size_t neighbor_count);

  /// Re-targets the graph to a new owner/size without shrinking capacity:
  /// repeated reset/assemble cycles on one instance stop allocating once
  /// the largest neighborhood has been seen. Every cost becomes +infinity
  /// (no link); ids, representatives and owner distances keep whatever the
  /// previous view wrote, and that view may have belonged to another node
  /// (NodeController assembles every refresh on its thread into one shared
  /// instance). The assembler rewrites every id and representative and the
  /// whole owner row, so no stale entry stays reachable.
  void reset(NodeId owner_id, std::size_t neighbor_count);

  [[nodiscard]] std::size_t node_count() const noexcept { return ids_.size(); }
  [[nodiscard]] std::size_t neighbor_count() const noexcept {
    return ids_.size() - 1;
  }
  [[nodiscard]] NodeId owner() const noexcept { return ids_[0]; }
  [[nodiscard]] NodeId id(std::size_t index) const noexcept {
    return ids_[index];
  }

  void set_id(std::size_t index, NodeId node_id) noexcept {
    ids_[index] = node_id;
  }
  void set_representative(std::size_t index, geom::Vec2 position) noexcept {
    representatives_[index] = position;
  }
  /// Representative position: the version a geometric rule (Gabriel cone,
  /// Yao sector, CBTC direction) should use.
  [[nodiscard]] geom::Vec2 representative(std::size_t index) const noexcept {
    return representatives_[index];
  }

  /// Declares a link between view indices i != j with cost-value interval
  /// [c_min, c_max]. Costs must be finite: +infinity means "no link". Only
  /// the values are stored: the tie-break of a link's CostKey is always the
  /// two view ids, so cost_min/cost_max build the key on read.
  void set_link(std::size_t i, std::size_t j, double cost_min,
                double cost_max);

  /// Declares the owner link (0, v) with cost interval [c_min, c_max] and
  /// largest viewed distance `distance_max`: the only distance a view
  /// keeps, since ranges are all that protocols and the controller read.
  void set_owner_link(std::size_t v, double distance_max, double cost_min,
                      double cost_max);

  [[nodiscard]] bool has_link(std::size_t i, std::size_t j) const noexcept {
    return cost_max_[flat(i, j)] < kNoLink;
  }
  [[nodiscard]] CostKey cost_min(std::size_t i, std::size_t j) const noexcept {
    return CostKey::make(cost_min_[flat(i, j)], ids_[i], ids_[j]);
  }
  [[nodiscard]] CostKey cost_max(std::size_t i, std::size_t j) const noexcept {
    return CostKey::make(cost_max_[flat(i, j)], ids_[i], ids_[j]);
  }
  /// Row i of the cost-value matrices: node_count() entries, +infinity
  /// where i has no link, the diagonal included.
  [[nodiscard]] std::span<const double> cost_min_row(
      std::size_t i) const noexcept {
    return {cost_min_.data() + flat(i, 0), ids_.size()};
  }
  [[nodiscard]] std::span<const double> cost_max_row(
      std::size_t i) const noexcept {
    return {cost_max_.data() + flat(i, 0), ids_.size()};
  }
  /// Largest viewed distance of the owner link (0, v), v >= 1.
  [[nodiscard]] double owner_distance_max(std::size_t v) const noexcept {
    return owner_distance_max_[v];
  }

  /// The cost value of an absent link.
  static constexpr double kNoLink = std::numeric_limits<double>::infinity();

 private:
  [[nodiscard]] std::size_t flat(std::size_t i, std::size_t j) const noexcept {
    return i * ids_.size() + j;
  }

  std::vector<NodeId> ids_;
  std::vector<geom::Vec2> representatives_;
  std::vector<double> cost_min_;  // n x n, row-major, +inf = no link
  std::vector<double> cost_max_;  // n x n, row-major, +inf = no link
  std::vector<double> owner_distance_max_;
};

/// Relative margin of the assemblers' squared-distance pre-filter: a pair
/// with fl(dx*dx + dy*dy) > normal_range^2 * kRangeRejectMargin certainly
/// has hypot(dx, dy) > normal_range. fl(dx*dx + dy*dy) carries at most ~3
/// ulp (~7e-16) relative error and std::hypot at most a few ulps, so the
/// 1e-12 margin exceeds the combined rounding error by three orders of
/// magnitude (proof sketch in docs/PERFORMANCE.md). Pairs inside the margin
/// fall through to the exact check, so results are byte-identical.
inline constexpr double kRangeRejectMargin = 1.0 + 1e-12;

/// Reusable buffers for assemble_point_view: member positions in SoA form
/// (owner first) and the pair kernel's survivor list. After the largest
/// neighborhood has been seen, assembling through the same scratch
/// allocates nothing.
struct PointScratch {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::size_t> survivors;
};

/// Assembles the point (single-version) view of the members `ids` at
/// positions (scratch.xs[i], scratch.ys[i]), owner first, into `out`.
/// Owner links always exist (a heard neighbor is adjacent, whatever its
/// advertised distance); a neighbor pair is linked when its distance is
/// <= normal_range. Costs are cost.cost(distance), one call per link.
void assemble_point_view(std::span<const NodeId> ids, double normal_range,
                         const CostModel& cost, PointScratch& scratch,
                         ViewGraph& out);

/// Builds a consistent (single-version) view for `owner`: neighbors are the
/// nodes within `normal_range` of it, links exist between any two view
/// nodes within `normal_range`, and every cost interval is a point. This is
/// what every node sees in a static network — and, per Theorem 1, what
/// strong view consistency restores in a mobile one.
///
/// `ids[i]` is the global id for `positions[i]`; `owner_index` indexes into
/// those arrays.
[[nodiscard]] ViewGraph make_consistent_view(
    std::span<const geom::Vec2> positions, std::span<const NodeId> ids,
    std::size_t owner_index, double normal_range, const CostModel& cost);

}  // namespace mstc::topology
