// Search-region minimum-energy protocol.
//
// Every removal this protocol performs satisfies link-removal condition 2
// (a strictly cheaper multi-hop path exists in the view), so Theorem 1's
// connectivity guarantee — and the whole mobility-sensitive machinery —
// applies unchanged. That is precisely what the paper's Section 6 asks
// for: extending the framework to partial-information protocols.
#include <algorithm>
#include <cassert>

#include "topology/protocol.hpp"

namespace mstc::topology {

SearchRegionSptProtocol::SearchRegionSptProtocol(std::string display_name,
                                                 double initial_fraction)
    : display_name_(std::move(display_name)),
      initial_fraction_(initial_fraction) {
  assert(initial_fraction_ > 0.0 && initial_fraction_ <= 1.0);
}

void SearchRegionSptProtocol::select(const ViewGraph& view,
                                     std::vector<std::size_t>& out) const {
  out.clear();
  const std::size_t n = view.node_count();
  if (n <= 1) return;

  double max_distance = 0.0;
  for (std::size_t v = 1; v < n; ++v) {
    max_distance = std::max(max_distance, view.owner_distance_max(v));
  }

  // Grow the search radius until every outside neighbor has a certainly
  // cheaper 2-hop relay through an inside neighbor.
  double radius = initial_fraction_ * max_distance;
  inside_.assign(n, 0);
  for (int growth = 0; growth < 16; ++growth) {
    for (std::size_t v = 1; v < n; ++v) {
      inside_[v] = view.owner_distance_max(v) <= radius;
    }
    bool covered = true;
    for (std::size_t v = 1; v < n && covered; ++v) {
      if (inside_[v]) continue;
      bool relayed = false;
      for (std::size_t w = 1; w < n && !relayed; ++w) {
        if (!inside_[w] || !view.has_link(w, v)) continue;
        relayed = view.cost_max(0, w).value + view.cost_max(w, v).value <
                  view.cost_min(0, v).value;
      }
      covered = relayed;
    }
    if (covered || radius >= max_distance) break;
    radius = std::min(2.0 * radius, max_distance);
  }

  // SPT children of the owner within the region: condition 2 with paths
  // restricted to the owner and inside nodes (pessimistic costs).
  pass_.append_children(view, inside_, out);
}

}  // namespace mstc::topology
