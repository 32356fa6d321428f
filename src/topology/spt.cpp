// Minimum-energy / SPT protocol (link-removal condition 2).
//
// Remove (u, v) when a multi-hop path (u, w1, ..., wk, v) exists with
// c(u,v) > c(u,w1) + ... + c(wk,v). With energy cost d^alpha this is
// Rodoplu-Meng / Li-Halpern minimum-energy neighbor selection restricted
// to 1-hop information: keeping exactly the root's children in the local
// shortest-path tree. Interval views use cost_max on path links and
// cost_min on the direct link (enhanced condition 2).
//
// One pass per refresh. A single Dijkstra from the owner (view index 0)
// over cost_max, on all links including the owner's own, gives dist[w];
// then (0, v) is removed iff some w not in {0, v} with a link (w, v) has
//   dist[w] + cost_max(w, v) < cost_min(0, v)        (strict, as ever).
// Expansion stops once the popped distance reaches max_v cost_min(0, v):
// no node at or beyond it can witness any removal.
//
// Why this decides exactly what a per-neighbour search with (0, v) masked
// decides, bit for bit. Costs are >= 0 and floating-point + under
// round-to-nearest is monotone and non-decreasing, so Dijkstra yields, for
// every node, the minimum over all paths of the left-folded sum — masked
// or not.
//  * An unmasked path through (0, v) sums to at least cost_max(0, v) >=
//    cost_min(0, v), so it never passes the strict test: any unmasked
//    witness avoids (0, v) and is a masked witness too.
//  * Conversely unmasked distances are <= masked ones, so every masked
//    witness is an unmasked one.
// tests/topology/differential_test.cpp holds the per-neighbour search as
// an oracle and checks both agree on every generated view.
#include <algorithm>
#include <limits>

#include "topology/protocol.hpp"

namespace mstc::topology {

void ShortestPathPass::append_children(const ViewGraph& view,
                                       std::span<const char> region,
                                       std::vector<std::size_t>& out) {
  const std::size_t n = view.node_count();
  const auto member = [&](std::size_t i) {
    return region.empty() || region[i] != 0;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double bound = -kInf;
  for (std::size_t v = 1; v < n; ++v) {
    if (member(v)) bound = std::max(bound, view.cost_min(0, v).value);
  }

  // Array-scan Dijkstra: views are dense (every pair within range is
  // linked), so O(n^2) beats a heap. Nodes outside the region start done,
  // which keeps them out of every path. Pop order among equal distances
  // does not matter: the distances are the unique path minima.
  dist_.assign(n, kInf);
  done_.resize(n);
  for (std::size_t i = 0; i < n; ++i) done_[i] = i != 0 && !member(i);
  dist_[0] = 0.0;
  for (;;) {
    std::size_t a = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!done_[i] && (a == n || dist_[i] < dist_[a])) a = i;
    }
    if (a == n || dist_[a] >= bound) break;  // nothing left can witness
    done_[a] = 1;
    for (std::size_t b = 1; b < n; ++b) {
      if (done_[b] || !view.has_link(a, b)) continue;
      dist_[b] = std::min(dist_[b], dist_[a] + view.cost_max(a, b).value);
    }
  }

  for (std::size_t v = 1; v < n; ++v) {
    if (!member(v)) continue;
    const double direct = view.cost_min(0, v).value;
    bool removed = false;
    for (std::size_t w = 1; w < n && !removed; ++w) {
      removed = w != v && view.has_link(w, v) &&
                dist_[w] + view.cost_max(w, v).value < direct;
    }
    if (!removed) out.push_back(v);
  }
}

// mstc:hot — runs once per selection refresh; all scratch is member-owned
void SptProtocol::select(const ViewGraph& view,
                         std::vector<std::size_t>& out) const {
  out.clear();
  pass_.append_children(view, {}, out);
}

}  // namespace mstc::topology
