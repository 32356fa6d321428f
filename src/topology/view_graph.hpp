// The per-node view graph a topology-control protocol operates on.
//
// A ViewGraph is the owner node plus its 1-hop neighbors, with, for every
// node pair, a link-existence flag and an *interval* cost [cost_min,
// cost_max]. With a single position version per node the interval collapses
// to a point and the protocols implement the paper's original link-removal
// conditions 1-3; with multiple versions (weak consistency, Section 4.2)
// the same code implements the enhanced conditions 1-3.
#pragma once

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
  /// the largest neighborhood has been seen. Only the link-existence flags
  /// are cleared; ids, representatives, costs and distances keep whatever
  /// the previous view wrote, and that view may have belonged to another
  /// node (NodeController assembles every refresh on its thread into one
  /// shared instance). Such stale entries are unreachable: the assembler
  /// rewrites every id and representative and the whole owner row, and
  /// every other cost/distance read is guarded by has_link().
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

  /// Declares a link between view indices i and j with distance interval
  /// [d_min, d_max] and cost-value interval [c_min, c_max]. Only the values
  /// are stored: the tie-break of a link's CostKey is always the two view
  /// ids, so cost_min/cost_max build the key on read.
  void set_link(std::size_t i, std::size_t j, double distance_min,
                double distance_max, double cost_min, double cost_max);

  [[nodiscard]] bool has_link(std::size_t i, std::size_t j) const noexcept {
    return exists_[flat(i, j)];
  }
  [[nodiscard]] CostKey cost_min(std::size_t i, std::size_t j) const noexcept {
    return CostKey::make(cost_min_[flat(i, j)], ids_[i], ids_[j]);
  }
  [[nodiscard]] CostKey cost_max(std::size_t i, std::size_t j) const noexcept {
    return CostKey::make(cost_max_[flat(i, j)], ids_[i], ids_[j]);
  }
  [[nodiscard]] double distance_min(std::size_t i,
                                    std::size_t j) const noexcept {
    return distance_min_[flat(i, j)];
  }
  [[nodiscard]] double distance_max(std::size_t i,
                                    std::size_t j) const noexcept {
    return distance_max_[flat(i, j)];
  }

 private:
  [[nodiscard]] std::size_t flat(std::size_t i, std::size_t j) const noexcept {
    return i * ids_.size() + j;
  }

  std::vector<NodeId> ids_;
  std::vector<geom::Vec2> representatives_;
  std::vector<char> exists_;
  std::vector<double> cost_min_;
  std::vector<double> cost_max_;
  std::vector<double> distance_min_;
  std::vector<double> distance_max_;
};

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
