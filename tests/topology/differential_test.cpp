// Differential suite for the one-pass condition-2 and condition-3 kernels.
//
// SptProtocol, SearchRegionSptProtocol and LmstProtocol decide every owner
// link from one single-source pass. The oracles below are the earlier
// per-neighbour implementations — one masked Dijkstra (SPT, SPT-R) or one
// reachability search (LMST) per owner link — kept here, and only here, as
// the reference. Every generated view must get the exact same selection
// vector from both: point and interval views, n = 0..60 neighbours, equal
// link costs and exact sum ties (integer lattices), coincident nodes,
// disconnected views, and distance / energy costs with and without a
// per-hop overhead.
//
// The same binary pins what view reuse rests on: production assembly into
// one ViewGraph reused across owners selects exactly what a fresh view
// selects, and controllers refreshing through their thread's shared view
// workspace stop allocating once it has seen the largest view.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/consistency.hpp"
#include "core/controller.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

// Heap-allocation counter for the no-allocation-after-warm-up checks.
// Counting is switched on only around the measured calls.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
// Kept out of line: once inlined, GCC pairs the free() with the operator
// new at the allocation site and reports -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mstc::topology {
namespace {

using geom::Vec2;

// ---- Oracles: the per-neighbour searches -------------------------------

using Heap = std::vector<std::pair<double, std::size_t>>;

// Dijkstra from the owner with the direct link (0, v) masked, over nodes
// with `member(b)`, pruned at `direct`. Returns the masked distance to v
// (or a value >= direct when no cheaper masked path exists).
template <class Member>
double masked_distance(const ViewGraph& view, std::size_t v, double direct,
                       Member member) {
  const std::size_t n = view.node_count();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  dist[0] = 0.0;
  Heap heap{{0.0, std::size_t{0}}};
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, a] = heap.back();
    heap.pop_back();
    if (d > dist[a] || d >= direct) continue;
    for (std::size_t b = 1; b < n; ++b) {
      if (b == a || !member(b) || !view.has_link(a, b)) continue;
      if (a == 0 && b == v) continue;
      const double candidate = d + view.cost_max(a, b).value;
      if (candidate < dist[b]) {
        dist[b] = candidate;
        heap.emplace_back(candidate, b);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
  return dist[v];
}

std::vector<std::size_t> oracle_spt(const ViewGraph& view) {
  std::vector<std::size_t> out;
  for (std::size_t v = 1; v < view.node_count(); ++v) {
    const double direct = view.cost_min(0, v).value;
    const double via = masked_distance(view, v, direct,
                                       [](std::size_t) { return true; });
    if (!(direct > via)) out.push_back(v);
  }
  return out;
}

// `outside`, when given, receives the number of neighbours left out of the
// final search region.
std::vector<std::size_t> oracle_spt_region(const ViewGraph& view,
                                           double initial_fraction,
                                           std::size_t* outside = nullptr) {
  std::vector<std::size_t> out;
  const std::size_t n = view.node_count();
  if (n <= 1) return out;
  double max_distance = 0.0;
  for (std::size_t v = 1; v < n; ++v) {
    max_distance = std::max(max_distance, view.owner_distance_max(v));
  }
  double radius = initial_fraction * max_distance;
  std::vector<char> inside(n, 0);
  for (int growth = 0; growth < 16; ++growth) {
    for (std::size_t v = 1; v < n; ++v) {
      inside[v] = view.owner_distance_max(v) <= radius;
    }
    bool covered = true;
    for (std::size_t v = 1; v < n && covered; ++v) {
      if (inside[v]) continue;
      bool relayed = false;
      for (std::size_t w = 1; w < n && !relayed; ++w) {
        if (!inside[w] || !view.has_link(w, v)) continue;
        relayed = view.cost_max(0, w).value + view.cost_max(w, v).value <
                  view.cost_min(0, v).value;
      }
      covered = relayed;
    }
    if (covered || radius >= max_distance) break;
    radius = std::min(2.0 * radius, max_distance);
  }
  if (outside != nullptr) {
    *outside = static_cast<std::size_t>(
        std::count(inside.begin() + 1, inside.end(), char{0}));
  }
  for (std::size_t v = 1; v < n; ++v) {
    if (!inside[v]) continue;
    const double direct = view.cost_min(0, v).value;
    const double via = masked_distance(
        view, v, direct, [&](std::size_t b) { return inside[b] != 0; });
    if (!(direct > via)) out.push_back(v);
  }
  return out;
}

std::vector<std::size_t> oracle_lmst(const ViewGraph& view) {
  std::vector<std::size_t> out;
  const std::size_t n = view.node_count();
  for (std::size_t v = 1; v < n; ++v) {
    // Search from the owner over links with cost_max < direct.
    const CostKey direct = view.cost_min(0, v);
    std::vector<char> reachable(n, 0);
    reachable[0] = 1;
    std::vector<std::size_t> stack{0};
    bool removed = false;
    while (!stack.empty() && !removed) {
      const std::size_t a = stack.back();
      stack.pop_back();
      for (std::size_t b = 1; b < n; ++b) {
        if (reachable[b] || !view.has_link(a, b)) continue;
        if (view.cost_max(a, b) < direct) {
          if (b == v) {
            removed = true;
            break;
          }
          reachable[b] = 1;
          stack.push_back(b);
        }
      }
    }
    if (!removed) out.push_back(v);
  }
  return out;
}

// ---- View generators ---------------------------------------------------

constexpr double kRange = 250.0;

enum class Layout {
  kUniform,     // continuous positions: generic costs
  kLattice,     // integer lattice: equal costs, exact sum ties
  kCoincident,  // clusters of identical positions, owner's included: d = 0
  kSparse,      // neighbours spread on the range circle: few or no links
};
constexpr Layout kLayouts[] = {Layout::kUniform, Layout::kLattice,
                               Layout::kCoincident, Layout::kSparse};

// Owner at the origin plus `neighbors` positions within kRange of it.
std::vector<Vec2> positions_for(Layout layout, std::size_t neighbors,
                                util::Xoshiro256& rng) {
  std::vector<Vec2> positions{{0.0, 0.0}};
  while (positions.size() < neighbors + 1) {
    Vec2 p;
    switch (layout) {
      case Layout::kUniform:
        p = {rng.uniform(-kRange, kRange), rng.uniform(-kRange, kRange)};
        break;
      case Layout::kLattice: {
        // Spacing 50 on a 11x11 grid: distances like 50/100/150 and the
        // 3-4-5 triangles make sums of squared lengths tie exactly.
        const auto cell = [&] {
          return 50.0 * (static_cast<double>(rng.uniform_below(11)) - 5.0);
        };
        p = {cell(), cell()};
        break;
      }
      case Layout::kCoincident:
        p = rng.uniform_below(3) == 0
                ? positions[rng.uniform_below(positions.size())]
                : Vec2{rng.uniform(-kRange, kRange),
                       rng.uniform(-kRange, kRange)};
        break;
      case Layout::kSparse: {
        const double angle = rng.uniform(0.0, 6.283185307179586);
        const double r = kRange * rng.uniform(0.9, 1.0);
        p = {r * std::cos(angle), r * std::sin(angle)};
        break;
      }
    }
    if (p.norm() <= kRange) positions.push_back(p);
  }
  return positions;
}

std::vector<NodeId> shuffled_ids(std::size_t count, util::Xoshiro256& rng) {
  std::vector<NodeId> ids(count);
  for (std::size_t i = 0; i < count; ++i) ids[i] = 7 * i + 3;
  for (std::size_t i = count; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.uniform_below(i)]);
  }
  return ids;
}

ViewGraph point_view(Layout layout, std::size_t neighbors,
                     const CostModel& cost, util::Xoshiro256& rng) {
  const auto positions = positions_for(layout, neighbors, rng);
  const auto ids = shuffled_ids(positions.size(), rng);
  return make_consistent_view(positions, ids, 0, kRange, cost);
}

// Interval view: every node carries a position uncertainty r_i (zero for
// some), so a pair at distance d gets [d - r_a - r_b, d + r_a + r_b] and
// the matching cost interval. Owner links always exist; the others exist
// when certainly in range and survive a random drop with `drop` chance.
ViewGraph interval_view(Layout layout, std::size_t neighbors, double drop,
                        const CostModel& cost, util::Xoshiro256& rng) {
  const auto positions = positions_for(layout, neighbors, rng);
  const auto ids = shuffled_ids(positions.size(), rng);
  std::vector<double> slack(positions.size());
  for (double& s : slack) {
    s = rng.uniform_below(3) == 0 ? 0.0
        : layout == Layout::kLattice
            ? 5.0 * static_cast<double>(rng.uniform_below(3))
            : rng.uniform(0.0, 20.0);
  }
  ViewGraph view(ids[0], neighbors);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    view.set_id(i, ids[i]);
    view.set_representative(i, positions[i]);
  }
  for (std::size_t a = 0; a < positions.size(); ++a) {
    for (std::size_t b = a + 1; b < positions.size(); ++b) {
      const double d = geom::distance(positions[a], positions[b]);
      const double d_min = std::max(0.0, d - slack[a] - slack[b]);
      const double d_max = d + slack[a] + slack[b];
      if (a != 0 && (d_max > kRange || rng.bernoulli(drop))) {
        continue;
      }
      if (a == 0) {
        view.set_owner_link(b, d_max, cost.cost(d_min), cost.cost(d_max));
      } else {
        view.set_link(a, b, cost.cost(d_min), cost.cost(d_max));
      }
    }
  }
  return view;
}

std::vector<std::unique_ptr<CostModel>> cost_models() {
  std::vector<std::unique_ptr<CostModel>> models;
  models.push_back(std::make_unique<DistanceCost>());
  models.push_back(std::make_unique<EnergyCost>(2.0));
  models.push_back(std::make_unique<EnergyCost>(4.0));
  models.push_back(std::make_unique<EnergyCost>(2.0, 2.0e4));
  models.push_back(std::make_unique<EnergyCost>(4.0, 1.0e8));
  return models;
}

// Drives every generated view through `check`.
template <class Check>
void for_each_view(std::uint64_t seed, Check check) {
  util::Xoshiro256 rng(seed);
  const auto models = cost_models();
  for (std::size_t neighbors = 0; neighbors <= 60; ++neighbors) {
    for (const Layout layout : kLayouts) {
      for (const auto& cost : models) {
        check(point_view(layout, neighbors, *cost, rng));
        for (const double drop : {0.0, 0.6, 1.0}) {
          check(interval_view(layout, neighbors, drop, *cost, rng));
        }
      }
    }
  }
}

// Tallies kept and removed owner links so each suite can show it hit both.
struct Tally {
  std::size_t kept = 0;
  std::size_t removed = 0;
  void add(const ViewGraph& view, const std::vector<std::size_t>& chosen) {
    kept += chosen.size();
    removed += view.neighbor_count() - chosen.size();
  }
};

// ---- Differential tests ------------------------------------------------

TEST(TopologyDifferential, SptMatchesPerNeighbourOracle) {
  const SptProtocol protocol("SPT");  // one instance: scratch reuse across n
  std::vector<std::size_t> chosen;
  Tally tally;
  std::size_t views = 0;
  for_each_view(1201, [&](const ViewGraph& view) {
    protocol.select(view, chosen);
    ASSERT_EQ(chosen, oracle_spt(view))
        << "view " << views << " with " << view.neighbor_count()
        << " neighbours";
    tally.add(view, chosen);
    ++views;
  });
  EXPECT_GT(tally.kept, 0u);
  EXPECT_GT(tally.removed, 0u);
}

// SPT-R's region enters the one-pass kernel as an additive +inf mask, so
// the suite must see views whose final region leaves neighbours out (on
// point and interval views alike), next to views where it covers all.
TEST(TopologyDifferential, SearchRegionSptMatchesPerNeighbourOracle) {
  for (const double fraction : {0.05, 0.25, 1.0}) {
    const SearchRegionSptProtocol protocol("SPT-R", fraction);
    std::vector<std::size_t> chosen;
    Tally tally;
    std::size_t views = 0;
    std::size_t views_with_outside = 0;
    for_each_view(1202, [&](const ViewGraph& view) {
      protocol.select(view, chosen);
      std::size_t outside = 0;
      ASSERT_EQ(chosen, oracle_spt_region(view, fraction, &outside))
          << "fraction " << fraction << ", view " << views << " with "
          << view.neighbor_count() << " neighbours";
      tally.add(view, chosen);
      views_with_outside += outside > 0 ? 1 : 0;
      ++views;
    });
    EXPECT_GT(tally.kept, 0u) << fraction;
    EXPECT_GT(tally.removed, 0u) << fraction;
    if (fraction < 1.0) {
      EXPECT_GT(views_with_outside, views / 20) << fraction;
    } else {
      EXPECT_EQ(views_with_outside, 0u);
    }
  }
}

TEST(TopologyDifferential, LmstMatchesPerNeighbourOracle) {
  const LmstProtocol protocol;
  std::vector<std::size_t> chosen;
  Tally tally;
  std::size_t views = 0;
  for_each_view(1203, [&](const ViewGraph& view) {
    protocol.select(view, chosen);
    ASSERT_EQ(chosen, oracle_lmst(view))
        << "view " << views << " with " << view.neighbor_count()
        << " neighbours";
    tally.add(view, chosen);
    ++views;
  });
  EXPECT_GT(tally.kept, 0u);
  EXPECT_GT(tally.removed, 0u);
}

// A path whose squared lengths sum exactly to the direct link's keeps the
// link (strict test), and one strictly cheaper removes it.
TEST(TopologyDifferential, ExactSumTieKeepsTheDirectLink) {
  const EnergyCost cost(2.0);
  const std::vector<Vec2> tie{{0, 0}, {30, 40}, {30, 0}};  // 2500 = 900+1600
  const std::vector<Vec2> cheaper{{0, 0}, {30, 40}, {29, 1}};
  const std::vector<NodeId> ids{0, 1, 2};
  const SptProtocol protocol("SPT-2");
  const auto tie_view = make_consistent_view(tie, ids, 0, kRange, cost);
  const auto cheaper_view = make_consistent_view(cheaper, ids, 0, kRange, cost);
  EXPECT_EQ(protocol.select(tie_view), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(protocol.select(tie_view), oracle_spt(tie_view));
  EXPECT_EQ(protocol.select(cheaper_view), (std::vector<std::size_t>{2}));
  EXPECT_EQ(protocol.select(cheaper_view), oracle_spt(cheaper_view));
  // SPT-R with the whole view as its region decides the same.
  const SearchRegionSptProtocol region("SPT-R", 1.0);
  EXPECT_EQ(region.select(tie_view), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(region.select(tie_view), oracle_spt_region(tie_view, 1.0));
  EXPECT_EQ(region.select(cheaper_view), (std::vector<std::size_t>{2}));
  EXPECT_EQ(region.select(cheaper_view), oracle_spt_region(cheaper_view, 1.0));
}

// An out-of-region relay must witness nothing. Under d^2 costs, with the
// owner O at the origin, A = (5, 5.5), S = (10, 0) and X = (9.35, 4.43):
// O-A-S costs 110.5 >= 100 = O-S, but O-A-X-S costs 95.4 < 100. With
// fraction 0.97 the region radius is 0.97 * |OX| = 10.04, so A and S are
// inside, X is outside and relayed through A (75.3 < 107.0): the region
// stops at {A, S} and S must be kept. Plain SPT, which may use X, removes
// S — so a kernel that let X's distance leak into S's witness test fails.
TEST(TopologyDifferential, SearchRegionIgnoresOutOfRegionRelays) {
  const EnergyCost cost(2.0);
  const std::vector<Vec2> positions{{0, 0}, {5, 5.5}, {10, 0}, {9.35, 4.43}};
  const std::vector<NodeId> ids{0, 1, 2, 3};
  const auto view = make_consistent_view(positions, ids, 0, kRange, cost);
  const SearchRegionSptProtocol region("SPT-R", 0.97);
  std::size_t outside = 0;
  EXPECT_EQ(oracle_spt_region(view, 0.97, &outside),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(outside, 1u);
  EXPECT_EQ(region.select(view), (std::vector<std::size_t>{1, 2}));
  const SptProtocol spt("SPT-2");
  EXPECT_EQ(spt.select(view), (std::vector<std::size_t>{1}));
  EXPECT_EQ(spt.select(view), oracle_spt(view));
}

// ---- No heap allocation once warm ---------------------------------------

template <class Body>
std::size_t allocations_during(Body body) {
  g_allocations.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(TopologyDifferential, WarmSelectionDoesNotAllocate) {
  util::Xoshiro256 rng(1204);
  const EnergyCost energy(4.0);
  const DistanceCost distance;
  const auto big = interval_view(Layout::kUniform, 40, 0.2, energy, rng);
  const auto small = point_view(Layout::kUniform, 12, energy, rng);
  const auto big_mst = interval_view(Layout::kUniform, 40, 0.2, distance, rng);
  const auto small_mst = point_view(Layout::kUniform, 12, distance, rng);

  const SptProtocol spt("SPT-4");
  const SearchRegionSptProtocol spt_r("SPT-R");
  const LmstProtocol lmst;
  std::vector<std::size_t> out;
  out.reserve(64);
  const auto warm_then_count = [&](const Protocol& protocol,
                                   const ViewGraph& large,
                                   const ViewGraph& smaller) {
    protocol.select(large, out);  // warm-up sizes every scratch buffer
    return allocations_during([&] {
      protocol.select(smaller, out);
      protocol.select(large, out);
    });
  };
  EXPECT_EQ(warm_then_count(spt, big, small), 0u);
  EXPECT_EQ(warm_then_count(spt_r, big, small), 0u);
  EXPECT_EQ(warm_then_count(lmst, big_mst, small_mst), 0u);
}

// ---- Views reused across owners ------------------------------------------

// A store for ids[0] holding `history` Hellos from every member (owner
// included), each version drifted up to 20 m from `positions`.
core::LocalViewStore filled_store(const std::vector<Vec2>& positions,
                                  const std::vector<NodeId>& ids,
                                  std::size_t history, util::Xoshiro256& rng) {
  core::LocalViewStore store(ids[0], history, 1e9);
  for (std::uint64_t version = 1; version <= history; ++version) {
    const double sent = static_cast<double>(version);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const Vec2 drift{rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)};
      store.record({ids[i], {positions[i] + drift, version, sent}});
    }
  }
  return store;
}

// Everything a protocol may read: ids, representatives, every cost entry
// (+inf where no link), and the owner-row distances.
void expect_same_view(const ViewGraph& reused, const ViewGraph& fresh) {
  ASSERT_EQ(reused.node_count(), fresh.node_count());
  for (std::size_t i = 0; i < fresh.node_count(); ++i) {
    ASSERT_EQ(reused.id(i), fresh.id(i));
    ASSERT_EQ(reused.representative(i), fresh.representative(i));
    for (std::size_t j = 0; j < fresh.node_count(); ++j) {
      ASSERT_EQ(reused.has_link(i, j), fresh.has_link(i, j)) << i << "," << j;
      ASSERT_EQ(reused.cost_min(i, j), fresh.cost_min(i, j));
      ASSERT_EQ(reused.cost_max(i, j), fresh.cost_max(i, j));
    }
    if (i == 0) continue;
    ASSERT_EQ(reused.owner_distance_max(i), fresh.owner_distance_max(i));
  }
}

// ViewGraph::reset clears the links but keeps ids, representatives and
// owner distances, so a reused view still holds whatever a larger view of
// another owner wrote there. Assembly must rewrite all of it: every
// protocol selects on the reused view exactly what it
// selects on a freshly constructed one, for point (latest) and interval
// (weak) views, growing and shrinking, under distance and energy costs.
TEST(TopologyDifferential, ReusedViewSelectsLikeAFreshOne) {
  util::Xoshiro256 rng(1205);
  std::vector<std::pair<std::string, ProtocolSuite>> suites;
  for (const std::string& name : protocol_names()) {
    suites.emplace_back(name, make_protocol(name));
  }
  const DistanceCost distance;
  const EnergyCost free_space(2.0);
  const EnergyCost two_ray(4.0);
  core::ViewScratch scratch;
  ViewGraph reused;
  std::vector<std::size_t> chosen;
  std::size_t views = 0;
  const CostModel* const costs[] = {&distance, &free_space, &two_ray};
  for (const CostModel* cost : costs) {
    for (const std::size_t neighbors : {60u, 0u, 1u, 35u, 60u}) {
      for (const std::size_t history : {1u, 3u}) {
        const auto positions = positions_for(Layout::kUniform, neighbors, rng);
        const auto ids = shuffled_ids(positions.size(), rng);
        const auto store = filled_store(positions, ids, history, rng);
        ViewGraph fresh;
        if (history == 1) {  // point view
          fresh = core::build_latest_view(store, kRange, *cost);
          core::build_latest_view(store, kRange, *cost, scratch, reused);
        } else {  // interval view
          fresh = core::build_weak_view(store, kRange, *cost);
          core::build_weak_view(store, kRange, *cost, scratch, reused);
        }
        SCOPED_TRACE(testing::Message() << "view " << views);
        expect_same_view(reused, fresh);
        for (const auto& [name, suite] : suites) {
          suite.protocol->select(reused, chosen);
          EXPECT_EQ(chosen, suite.protocol->select(fresh)) << name;
        }
        ++views;
      }
    }
  }
}

// Every controller a thread drives refreshes in that thread's one view
// workspace. Once a pass has sized it for the largest view (and each
// controller's own logical set), refreshes allocate nothing, in any order.
TEST(TopologyDifferential, WarmRefreshDoesNotAllocate) {
  constexpr std::size_t kNodes = 60;
  util::Xoshiro256 rng(1206);
  std::vector<Vec2> positions(kNodes);
  for (Vec2& p : positions) {
    p = {rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)};
  }
  using Mode = core::ConsistencyMode;
  for (const char* name : {"RNG", "MST", "SPT-4", "SPT-2"}) {
    for (const Mode mode : {Mode::kLatest, Mode::kWeak}) {
      const ProtocolSuite suite = make_protocol(name);
      core::ControllerConfig config;
      config.mode = mode;
      config.history_limit = mode == Mode::kWeak ? 3 : 1;
      config.view_expiry = 1e9;
      config.recompute_cache = false;  // every refresh assembles and selects
      std::vector<core::NodeController> nodes;
      nodes.reserve(kNodes);
      for (std::size_t u = 0; u < kNodes; ++u) {
        nodes.emplace_back(u, *suite.protocol, *suite.cost, config);
      }
      // Three Hello rounds from drifting positions fill every store.
      for (std::uint64_t version = 1; version <= 3; ++version) {
        const double now = static_cast<double>(version);
        for (std::size_t u = 0; u < kNodes; ++u) {
          const Vec2 drift{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
          const Vec2 p = positions[u] + drift;
          const auto hello = nodes[u].on_hello_send_record(now, p, version);
          for (std::size_t v = 0; v < kNodes; ++v) {
            if (v != u && geom::distance(p, positions[v]) <= kRange) {
              nodes[v].on_hello_receive(hello, now);
            }
          }
        }
      }
      std::size_t largest = 0;
      for (const core::NodeController& node : nodes) {
        largest = std::max(largest, node.store().neighbor_count());
      }
      for (core::NodeController& node : nodes) node.refresh_selection(4.0);
      const std::size_t allocations = allocations_during([&] {
        for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
          it->refresh_selection(4.0);
        }
        for (core::NodeController& node : nodes) node.refresh_selection(4.0);
      });
      EXPECT_EQ(allocations, 0u) << name << ", " << core::to_string(mode);
      EXPECT_GE(largest, 25u);  // the views are paper-sized, not trivial
    }
  }
}

}  // namespace
}  // namespace mstc::topology
