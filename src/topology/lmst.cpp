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
//
// Dense, branch-free form. Each CostKey (value, lo, hi) is packed into one
// 128-bit unsigned integer whose order is CostKey's order: the value's
// bits mapped monotonically onto 64 bits (-0.0 folded onto +0.0, which
// CostKey compares equal), then the view-local ranks of lo and hi. Ranks
// order exactly as the ids do, so ties break as ever. A 128-bit compare is
// a cmp/sbb pair and a select is two cmovs, so no branch depends on the
// data. Relaxation runs over every y of the matrix row: an absent link
// (or the diagonal) has cost value +inf, so its candidate key lies above
// every finite one and can only replace another such label — every one of
// them means "unreached": it is above the finite bound, so it neither
// expands nor removes anything. A settled y cannot improve, because
// max(b[a], key) >= b[a] >= b[y]. Settled nodes drop out of the next pick
// by an all-ones mask or-ed onto their label.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "topology/protocol.hpp"

namespace mstc::topology {

namespace {

using Key = LmstProtocol::Key;

constexpr Key kAboveAll = ~Key{0};  // "unreached"; the owner's label is 0

/// Monotone map of a non-NaN double onto uint64: negative values have all
/// bits flipped, the others only the sign bit. Adding +0.0 first folds
/// -0.0 onto +0.0.
inline std::uint64_t ordered_bits(double value) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(value + 0.0);
  const std::uint64_t negative = 0 - (bits >> 63);
  return bits ^ (negative | (std::uint64_t{1} << 63));
}

/// CostKey::make(value, u, v) as a Key, given the ranks of u and v.
inline Key make_key(double value, std::uint64_t rank_u,
                    std::uint64_t rank_v) noexcept {
  const std::uint64_t lo = rank_u < rank_v ? rank_u : rank_v;
  const std::uint64_t hi = rank_u < rank_v ? rank_v : rank_u;
  return (Key{ordered_bits(value)} << 64) | (lo << 32) | hi;
}

}  // namespace

// mstc:hot — runs once per selection refresh; all scratch is member-owned
void LmstProtocol::select(const ViewGraph& view,
                          std::vector<std::size_t>& out) const {
  out.clear();
  const std::size_t n = view.node_count();
  // rank[i] = how many view ids are below id(i): order-preserving, and
  // below 2^32 for any view that fits in memory.
  rank_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t below = 0;
    for (std::size_t j = 0; j < n; ++j) below += view.id(j) < view.id(i);
    rank_[i] = below;
  }
  const std::span<const double> owner_min = view.cost_min_row(0);
  Key bound = 0;
  for (std::size_t v = 1; v < n; ++v) {
    bound = std::max(bound, make_key(owner_min[v], rank_[0], rank_[v]));
  }

  // O(n^2) array scan, no heap: views are dense. Expansion stops once the
  // smallest open label reaches the largest direct cost, since no label at
  // or above it can remove any link.
  label_.assign(n, kAboveAll);
  closed_.assign(n, 0);
  label_[0] = 0;
  Key* const label = label_.data();
  Key* const closed = closed_.data();
  for (;;) {
    std::size_t a = n;
    Key la = kAboveAll;
    for (std::size_t i = 0; i < n; ++i) {
      const Key key = label[i] | closed[i];
      const bool less = key < la;
      a = less ? i : a;
      la = less ? key : la;
    }
    if (a == n || la >= bound) break;  // nothing left can remove a link
    closed[a] = kAboveAll;
    const double* const row = view.cost_max_row(a).data();
    const std::uint64_t ra = rank_[a];
    for (std::size_t y = 1; y < n; ++y) {
      const Key key = make_key(row[y], ra, rank_[y]);
      const Key candidate = la < key ? key : la;  // max(b[a], key(a, y))
      label[y] = candidate < label[y] ? candidate : label[y];
    }
  }

  for (std::size_t v = 1; v < n; ++v) {
    if (!(label[v] < make_key(owner_min[v], rank_[0], rank_[v]))) {
      out.push_back(v);
    }
  }
}

}  // namespace mstc::topology
