#include "topology/view_graph.hpp"

#include <cassert>
#include <cmath>

namespace mstc::topology {

ViewGraph::ViewGraph(NodeId owner_id, std::size_t neighbor_count) {
  reset(owner_id, neighbor_count);
}

// mstc:hot — runs once per view assembly; resize/assign reuse member capacity
void ViewGraph::reset(NodeId owner_id, std::size_t neighbor_count) {
  const std::size_t nodes = neighbor_count + 1;
  ids_.resize(nodes);
  representatives_.resize(nodes);
  cost_min_.assign(nodes * nodes, kNoLink);
  cost_max_.assign(nodes * nodes, kNoLink);
  owner_distance_max_.resize(nodes);
  ids_[0] = owner_id;
}

// mstc:hot — runs once per certified link per refresh
void ViewGraph::set_link(std::size_t i, std::size_t j, double c_min,
                         double c_max) {
  assert(i != j);
  assert(std::isfinite(c_min) && std::isfinite(c_max));
  assert(c_min <= c_max);
  cost_min_[flat(i, j)] = c_min;
  cost_min_[flat(j, i)] = c_min;
  cost_max_[flat(i, j)] = c_max;
  cost_max_[flat(j, i)] = c_max;
}

// mstc:hot — runs once per neighbor per refresh
void ViewGraph::set_owner_link(std::size_t v, double dist_max, double c_min,
                               double c_max) {
  assert(v != 0);
  owner_distance_max_[v] = dist_max;
  set_link(0, v, c_min, c_max);
}

// mstc:hot — runs once per point-view assembly over ~density members
void assemble_point_view(std::span<const NodeId> ids, double normal_range,
                         const CostModel& cost, PointScratch& scratch,
                         ViewGraph& out) {
  const std::size_t n = ids.size();
  assert(n >= 1 && scratch.xs.size() == n && scratch.ys.size() == n);
  const double* xs = scratch.xs.data();
  const double* ys = scratch.ys.data();
  out.reset(ids[0], n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.set_id(i, ids[i]);
    out.set_representative(i, {xs[i], ys[i]});
  }
  // Owner row: a heard neighbor is linked whatever its viewed distance.
  for (std::size_t j = 1; j < n; ++j) {
    const double d = std::hypot(xs[0] - xs[j], ys[0] - ys[j]);
    const double c = cost.cost(d);
    out.set_owner_link(j, d, c, c);
  }
  // Neighbor pairs, one row at a time. The squared-distance pre-filter
  // (see kRangeRejectMargin) compacts the row's candidates without a branch:
  // every j is written, and the cursor only advances past the ones that
  // might be in range. !(dsq > reject_sq) is the exact rejection test, NaN
  // included. Only the survivors pay for the libm hypot and the cost-model
  // call, on the same operands as ever. Quadratic in neighborhood size by
  // design, like the protocols that consume the view.
  const double reject_sq = normal_range * normal_range * kRangeRejectMargin;
  scratch.survivors.resize(n);
  std::size_t* survivors = scratch.survivors.data();
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t kept = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      survivors[kept] = j;
      kept += static_cast<std::size_t>(!(dx * dx + dy * dy > reject_sq));
    }
    for (std::size_t s = 0; s < kept; ++s) {
      const std::size_t j = survivors[s];
      const double d = std::hypot(xs[i] - xs[j], ys[i] - ys[j]);
      if (d > normal_range) continue;
      const double c = cost.cost(d);
      out.set_link(i, j, c, c);
    }
  }
}

ViewGraph make_consistent_view(std::span<const geom::Vec2> positions,
                               std::span<const NodeId> ids,
                               std::size_t owner_index, double normal_range,
                               const CostModel& cost) {
  assert(positions.size() == ids.size());
  assert(owner_index < positions.size());
  const geom::Vec2 origin = positions[owner_index];
  // Members are the owner and the nodes within range of it, by the same
  // predicate that links a neighbor pair.
  std::vector<NodeId> members{ids[owner_index]};
  PointScratch scratch;
  scratch.xs.push_back(origin.x);
  scratch.ys.push_back(origin.y);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i == owner_index) continue;
    if (geom::distance(origin, positions[i]) <= normal_range) {
      members.push_back(ids[i]);
      scratch.xs.push_back(positions[i].x);
      scratch.ys.push_back(positions[i].y);
    }
  }
  ViewGraph view;
  assemble_point_view(members, normal_range, cost, scratch, view);
  return view;
}

}  // namespace mstc::topology
