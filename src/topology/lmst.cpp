// Local-MST protocol (link-removal condition 3).
//
// Remove (u, v) when the view contains a u-v path whose every link is
// cheaper than (u, v). By the cycle property this keeps exactly the edges
// incident to u in the MST of u's local view, i.e. Li-Hou-Sha LMST. The
// bottleneck formulation below handles interval costs directly: a path
// link counts as "certainly cheaper" when its cost_max is below the direct
// link's cost_min (enhanced condition 3).
//
// One pass per refresh. A Prim-style minimax pass from the owner over the
// cost_max keys gives, for every node y, the bottleneck
//   b[y] = min over owner-y paths of the largest cost_max on the path,
// and (0, v) is removed iff b[v] < cost_min(0, v). "Some path has every
// link below D" and "the minimax bottleneck is below D" are the same
// statement, and the pass only compares CostKeys, never adds them, so the
// decisions equal those of a per-neighbour reachability search exactly.
// The direct link never witnesses its own removal: cost_max(0, v) >=
// cost_min(0, v). tests/topology/differential_test.cpp holds the
// per-neighbour search as an oracle.
#include <algorithm>
#include <limits>

#include "topology/protocol.hpp"

namespace mstc::topology {

// mstc:hot — runs once per selection refresh; all scratch is member-owned
void LmstProtocol::select(const ViewGraph& view,
                          std::vector<std::size_t>& out) const {
  out.clear();
  const std::size_t n = view.node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr NodeId kMaxId = std::numeric_limits<NodeId>::max();
  // Below and above every real key: the owner's label, and "unreached".
  constexpr CostKey kBelowAll{-kInf, 0, 0};
  constexpr CostKey kAboveAll{kInf, kMaxId, kMaxId};
  CostKey bound = kBelowAll;
  for (std::size_t v = 1; v < n; ++v) {
    bound = std::max(bound, view.cost_min(0, v));
  }

  // O(n^2) array scan, no heap: views are dense. Expansion stops once the
  // smallest open label reaches the largest direct cost, since no label at
  // or above it can remove any link.
  bottleneck_.assign(n, kAboveAll);
  done_.assign(n, 0);
  bottleneck_[0] = kBelowAll;
  for (;;) {
    std::size_t a = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!done_[i] && (a == n || bottleneck_[i] < bottleneck_[a])) a = i;
    }
    if (a == n || bottleneck_[a] >= bound) break;
    done_[a] = 1;
    for (std::size_t y = 1; y < n; ++y) {
      if (done_[y] || !view.has_link(a, y)) continue;
      bottleneck_[y] = std::min(
          bottleneck_[y], std::max(bottleneck_[a], view.cost_max(a, y)));
    }
  }

  for (std::size_t v = 1; v < n; ++v) {
    if (!(bottleneck_[v] < view.cost_min(0, v))) out.push_back(v);
  }
}

}  // namespace mstc::topology
