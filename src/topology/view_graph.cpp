#include "topology/view_graph.hpp"

#include <cassert>

namespace mstc::topology {

ViewGraph::ViewGraph(NodeId owner_id, std::size_t neighbor_count) {
  reset(owner_id, neighbor_count);
}

// mstc:hot — runs once per view assembly; resize/assign reuse member capacity
void ViewGraph::reset(NodeId owner_id, std::size_t neighbor_count) {
  const std::size_t nodes = neighbor_count + 1;
  ids_.resize(nodes);
  representatives_.resize(nodes);
  exists_.assign(nodes * nodes, 0);
  cost_min_.resize(nodes * nodes);
  cost_max_.resize(nodes * nodes);
  distance_min_.resize(nodes * nodes);
  distance_max_.resize(nodes * nodes);
  ids_[0] = owner_id;
}

// mstc:hot — runs once per certified link per refresh
void ViewGraph::set_link(std::size_t i, std::size_t j, double dist_min,
                         double dist_max, double c_min, double c_max) {
  assert(i != j);
  assert(dist_min <= dist_max);
  assert(c_min <= c_max);
  for (const auto& [a, b] : {std::pair{i, j}, std::pair{j, i}}) {
    const std::size_t k = flat(a, b);
    exists_[k] = 1;
    distance_min_[k] = dist_min;
    distance_max_[k] = dist_max;
    cost_min_[k] = c_min;
    cost_max_[k] = c_max;
  }
}

ViewGraph make_consistent_view(std::span<const geom::Vec2> positions,
                               std::span<const NodeId> ids,
                               std::size_t owner_index, double normal_range,
                               const CostModel& cost) {
  assert(positions.size() == ids.size());
  assert(owner_index < positions.size());
  const geom::Vec2 origin = positions[owner_index];
  const double range_sq = normal_range * normal_range;

  std::vector<std::size_t> members;  // indices into positions/ids
  members.push_back(owner_index);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i == owner_index) continue;
    if (geom::distance_sq(origin, positions[i]) <= range_sq) {
      members.push_back(i);
    }
  }

  ViewGraph view(ids[owner_index], members.size() - 1);
  for (std::size_t v = 0; v < members.size(); ++v) {
    view.set_id(v, ids[members[v]]);
    view.set_representative(v, positions[members[v]]);
  }
  // Pairs over one node's *local view* (~density members), not the fleet —
  // quadratic in neighborhood size by design, like the protocols that
  // consume the view. The trailing marker also covers the inner loop.
  for (std::size_t a = 0; a < members.size(); ++a) {  // mstc-lint: allow(all-pairs-scan)
    for (std::size_t b = a + 1; b < members.size(); ++b) {
      const double d =
          geom::distance(positions[members[a]], positions[members[b]]);
      if (d <= normal_range) {
        const double c = cost.cost(d);
        view.set_link(a, b, d, d, c, c);
      }
    }
  }
  return view;
}

}  // namespace mstc::topology
