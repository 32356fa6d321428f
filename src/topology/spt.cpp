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
// then (0, v) is removed iff
//   min over w of (dist[w] + cost_max(v, w)) < cost_min(0, v)  (strict).
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
//
// Dense, branch-free form. The view stores +inf for an absent link and on
// the diagonal (view_graph.hpp), so every loop scans whole matrix rows
// without asking whether a link exists; with no NaN anywhere (costs are
// finite, and +inf + +inf = +inf) each step is the same floating-point
// operation on the same operands as a link-by-link loop:
//  * Relaxation updates every b. An absent link offers da + inf = inf,
//    which never lowers dist[b]. A settled b cannot improve either:
//    da + c >= da >= dist[b].
//  * The closed mask holds 0 for an open node and +inf for a settled node
//    or one outside the region; it is added after da + c, so an open
//    node's candidate keeps its bits (x + 0 = x) and the rest stay +inf.
//    Out-of-region nodes therefore keep dist = +inf and witness nothing.
//  * The witness minimum runs over every w >= 1: w = v and non-neighbours
//    of v add +inf, and a minimum of exact values is exact.
#include <algorithm>
#include <limits>

#include "topology/protocol.hpp"

namespace mstc::topology {

void ShortestPathPass::append_children(const ViewGraph& view,
                                       std::span<const char> region,
                                       std::vector<std::size_t>& out) {
  const std::size_t n = view.node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto member = [&](std::size_t i) {
    return region.empty() || region[i] != 0;
  };
  const std::span<const double> owner_min = view.cost_min_row(0);
  double bound = -kInf;
  closed_.resize(n);
  closed_[0] = 0.0;
  for (std::size_t v = 1; v < n; ++v) {
    const bool in = member(v);
    closed_[v] = in ? 0.0 : kInf;
    bound = std::max(bound, in ? owner_min[v] : -kInf);
  }

  // Array-scan Dijkstra: views are dense (every pair within range is
  // linked), so O(n^2) beats a heap. The scan picks the first open node of
  // least distance; pop order among equal distances does not matter, since
  // the distances are the unique path minima.
  dist_.assign(n, kInf);
  dist_[0] = 0.0;
  double* const dist = dist_.data();
  double* const closed = closed_.data();
  for (;;) {
    std::size_t a = n;
    double da = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      const double key = dist[i] + closed[i];
      const bool less = key < da;
      a = less ? i : a;
      da = less ? key : da;
    }
    if (a == n || da >= bound) break;  // nothing left can witness
    closed[a] = kInf;
    const double* const row = view.cost_max_row(a).data();
    for (std::size_t b = 1; b < n; ++b) {
      dist[b] = std::min(dist[b], (da + row[b]) + closed[b]);
    }
  }

  for (std::size_t v = 1; v < n; ++v) {
    if (!member(v)) continue;
    const double* const row = view.cost_max_row(v).data();
    double via = kInf;
    for (std::size_t w = 1; w < n; ++w) via = std::min(via, dist[w] + row[w]);
    if (!(via < owner_min[v])) out.push_back(v);
  }
}

// mstc:hot — runs once per selection refresh; all scratch is member-owned
void SptProtocol::select(const ViewGraph& view,
                         std::vector<std::size_t>& out) const {
  out.clear();
  pass_.append_children(view, {}, out);
}

}  // namespace mstc::topology
