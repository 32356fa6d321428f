#include "core/consistency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/prng.hpp"

namespace mstc::core {
namespace {

HelloRecord hello(NodeId sender, double x, double y, std::uint64_t version,
                  double time) {
  return HelloRecord{sender, {{x, y}, version, time}};
}

TEST(ConsistencyMode, StringRoundTrip) {
  for (const auto mode :
       {ConsistencyMode::kLatest, ConsistencyMode::kViewSync,
        ConsistencyMode::kProactive, ConsistencyMode::kReactive,
        ConsistencyMode::kWeak}) {
    EXPECT_EQ(consistency_mode_from(to_string(mode)), mode);
  }
  EXPECT_THROW((void)consistency_mode_from("nope"), std::invalid_argument);
}

TEST(BuildLatestView, UsesNewestRecordPerNeighbor) {
  const topology::DistanceCost cost;
  LocalViewStore store(0, 3, 100.0);
  store.record(hello(0, 0.0, 0.0, 2, 2.0));
  store.record(hello(1, 5.0, 0.0, 1, 1.0));
  store.record(hello(1, 7.0, 0.0, 2, 2.0));  // newest wins
  const auto view = build_latest_view(store, 250.0, cost);
  ASSERT_EQ(view.neighbor_count(), 1u);
  EXPECT_DOUBLE_EQ(view.cost_min(0, 1).value, 7.0);  // DistanceCost: c = d
  EXPECT_DOUBLE_EQ(view.owner_distance_max(1), 7.0);
  EXPECT_EQ(view.representative(1), (geom::Vec2{7.0, 0.0}));
}

TEST(BuildLatestView, OwnerNeighborLinkExistsEvenWhenStaleBeyondRange) {
  // A heard neighbor stays in the view even if its viewed distance now
  // exceeds the normal range (the Hello proves 1-hop adjacency).
  const topology::DistanceCost cost;
  LocalViewStore store(0, 1, 100.0);
  store.record(hello(0, 0.0, 0.0, 1, 1.0));
  store.record(hello(1, 300.0, 0.0, 1, 1.0));
  const auto view = build_latest_view(store, 250.0, cost);
  ASSERT_EQ(view.neighbor_count(), 1u);
  EXPECT_TRUE(view.has_link(0, 1));
}

TEST(BuildLatestView, NeighborNeighborLinkRequiresRange) {
  const topology::DistanceCost cost;
  LocalViewStore store(0, 1, 100.0);
  store.record(hello(0, 0.0, 0.0, 1, 1.0));
  store.record(hello(1, -200.0, 0.0, 1, 1.0));
  store.record(hello(2, 200.0, 0.0, 1, 1.0));
  const auto view = build_latest_view(store, 250.0, cost);
  ASSERT_EQ(view.neighbor_count(), 2u);
  EXPECT_TRUE(view.has_link(0, 1));
  EXPECT_TRUE(view.has_link(0, 2));
  EXPECT_FALSE(view.has_link(1, 2)) << "400 m apart in the view";
}

TEST(BuildVersionedView, PinsExactVersion) {
  const topology::DistanceCost cost;
  LocalViewStore store(0, 3, 100.0);
  store.record(hello(0, 0.0, 0.0, 1, 1.0));
  store.record(hello(0, 0.0, 1.0, 2, 2.0));
  store.record(hello(1, 5.0, 0.0, 1, 1.0));
  store.record(hello(1, 9.0, 0.0, 2, 2.0));
  store.record(hello(2, 8.0, 0.0, 2, 2.0));  // no version-1 record
  const auto view = build_versioned_view(store, 1, 250.0, cost);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->neighbor_count(), 1u) << "node 2 lacks version 1";
  EXPECT_EQ(view->id(1), 1u);
  EXPECT_DOUBLE_EQ(view->cost_min(0, 1).value, 5.0);  // DistanceCost: c = d
}

TEST(BuildVersionedView, NulloptWithoutOwnVersion) {
  const topology::DistanceCost cost;
  LocalViewStore store(0, 3, 100.0);
  store.record(hello(0, 0.0, 0.0, 2, 2.0));
  store.record(hello(1, 5.0, 0.0, 1, 1.0));
  EXPECT_FALSE(build_versioned_view(store, 1, 250.0, cost).has_value());
}

TEST(BuildVersionedView, Theorem2SingleVersionEverywhereIsConsistent) {
  // Theorem 2: when all local views use the same Hello per node, every
  // link has the same cost in every view. Build the views of two observers
  // and compare the shared link's cost.
  const topology::DistanceCost cost;
  LocalViewStore store_a(0, 3, 100.0);
  LocalViewStore store_b(1, 3, 100.0);
  // The mobile node 2 advertises twice from different spots.
  const auto w_v1 = hello(2, 4.5, 3.969, 1, 1.0);
  const auto w_v2 = hello(2, 0.5, 3.969, 2, 2.0);
  for (auto* store : {&store_a, &store_b}) {
    store->record(hello(0, 0.0, 0.0, 1, 1.0));
    store->record(hello(1, 5.0, 0.0, 1, 1.0));
    store->record(w_v1);
    store->record(w_v2);
  }
  const auto view_a = build_versioned_view(store_a, 1, 250.0, cost);
  const auto view_b = build_versioned_view(store_b, 1, 250.0, cost);
  ASSERT_TRUE(view_a && view_b);
  // Link (0, 2) appears in both views with identical cost.
  const auto cost_in = [](const topology::ViewGraph& view, NodeId a, NodeId b) {
    for (std::size_t i = 0; i < view.node_count(); ++i) {
      for (std::size_t j = 0; j < view.node_count(); ++j) {
        if (view.id(i) == a && view.id(j) == b) return view.cost_min(i, j);
      }
    }
    return topology::CostKey{};
  };
  EXPECT_EQ(cost_in(*view_a, 0, 2), cost_in(*view_b, 0, 2));
  EXPECT_EQ(cost_in(*view_a, 1, 2), cost_in(*view_b, 1, 2));
}

TEST(BuildWeakView, IntervalSpansStoredVersions) {
  const topology::DistanceCost cost;
  LocalViewStore store(0, 2, 100.0);
  store.record(hello(0, 0.0, 0.0, 1, 1.0));
  store.record(hello(1, 4.0, 0.0, 1, 1.0));
  store.record(hello(1, 6.0, 0.0, 2, 2.0));
  const auto view = build_weak_view(store, 250.0, cost);
  ASSERT_EQ(view.neighbor_count(), 1u);
  EXPECT_DOUBLE_EQ(view.owner_distance_max(1), 6.0);
  EXPECT_DOUBLE_EQ(view.cost_min(0, 1).value, 4.0);
  EXPECT_DOUBLE_EQ(view.cost_max(0, 1).value, 6.0);
  // Representative is the newest position.
  EXPECT_EQ(view.representative(1), (geom::Vec2{6.0, 0.0}));
}

TEST(BuildWeakView, IntervalOverBothEndpointHistories) {
  const topology::DistanceCost cost;
  LocalViewStore store(0, 2, 100.0);
  store.record(hello(0, 0.0, 0.0, 1, 1.0));
  store.record(hello(1, 10.0, 0.0, 1, 1.0));
  store.record(hello(1, 20.0, 0.0, 2, 2.0));
  store.record(hello(2, 30.0, 0.0, 1, 1.0));
  store.record(hello(2, 15.0, 0.0, 2, 2.0));
  const auto view = build_weak_view(store, 250.0, cost);
  ASSERT_EQ(view.neighbor_count(), 2u);
  // Combinations of node 1 {10, 20} x node 2 {30, 15}: distances
  // |10-30|=20, |10-15|=5, |20-30|=10, |20-15|=5 -> [5, 20].
  // DistanceCost: the cost interval is the distance interval.
  EXPECT_DOUBLE_EQ(view.cost_min(1, 2).value, 5.0);
  EXPECT_DOUBLE_EQ(view.cost_max(1, 2).value, 20.0);
}

// --- Theorem 3: k = ceil(delta/Delta) + 1 stored Hellos preserve weak
// consistency (all observers share at least one version of every node).

/// Versions of the mobile node's Hellos (sent at phase + i*Delta) that an
/// observer sampling at `sample_time` retains with history depth k.
std::vector<std::uint64_t> retained_versions(double phase, double interval,
                                             double sample_time,
                                             std::size_t k) {
  std::vector<std::uint64_t> versions;
  // Latest version sent at or before the sample time.
  if (sample_time < phase) return versions;
  const auto newest =
      static_cast<std::uint64_t>((sample_time - phase) / interval);
  for (std::size_t i = 0; i < k && i <= newest; ++i) {
    versions.push_back(newest - i);
  }
  return versions;
}

TEST(Theorem3, SufficientHistoryGuaranteesCommonVersion) {
  util::Xoshiro256 rng(333);
  for (int trial = 0; trial < 500; ++trial) {
    const double interval = rng.uniform(0.5, 2.0);         // Delta
    const double delta = rng.uniform(0.1, 3.0 * interval);  // view skew bound
    const std::size_t k =
        static_cast<std::size_t>(std::ceil(delta / interval)) + 1;
    const double phase = rng.uniform(0.0, interval);
    // Sample times of several observers inside a window of length delta,
    // far enough in that k Hellos already exist.
    const double window_start = phase + 10.0 * interval + rng.uniform(0.0, 5.0);
    std::vector<std::vector<std::uint64_t>> views;
    for (int observer = 0; observer < 4; ++observer) {
      views.push_back(retained_versions(
          phase, interval, window_start + rng.uniform(0.0, delta), k));
    }
    // Intersection across observers must be nonempty.
    std::vector<std::uint64_t> common = views[0];
    for (std::size_t i = 1; i < views.size(); ++i) {
      std::vector<std::uint64_t> next;
      for (std::uint64_t v : common) {
        if (std::find(views[i].begin(), views[i].end(), v) !=
            views[i].end()) {
          next.push_back(v);
        }
      }
      common = std::move(next);
    }
    EXPECT_FALSE(common.empty())
        << "trial " << trial << " Delta=" << interval << " delta=" << delta
        << " k=" << k;
  }
}

TEST(Theorem3, SmallerHistoryCanFail) {
  // Counterexample with k = ceil(delta/Delta) (one less than the theorem):
  // Delta = 1, delta = 1.2, observers at 0.95 and 2.10 retain {0} and
  // {2, 1} — no common version.
  const auto a = retained_versions(0.0, 1.0, 0.95, 2);
  const auto b = retained_versions(0.0, 1.0, 2.10, 2);
  ASSERT_EQ(a, (std::vector<std::uint64_t>{0}));
  ASSERT_EQ(b, (std::vector<std::uint64_t>{2, 1}));
  for (std::uint64_t v : a) {
    EXPECT_TRUE(std::find(b.begin(), b.end(), v) == b.end());
  }
}

TEST(DelayBound, MatchesSection43) {
  EXPECT_DOUBLE_EQ(delay_bound(ConsistencyMode::kProactive, 1.0, 2), 2.0);
  EXPECT_DOUBLE_EQ(delay_bound(ConsistencyMode::kReactive, 1.0, 1, 0.05),
                   1.05);
  EXPECT_DOUBLE_EQ(delay_bound(ConsistencyMode::kWeak, 1.0, 3), 4.0);
  EXPECT_DOUBLE_EQ(delay_bound(ConsistencyMode::kLatest, 1.25, 1), 2.5);
  EXPECT_DOUBLE_EQ(delay_bound(ConsistencyMode::kViewSync, 1.0, 1), 2.0);
}

}  // namespace
}  // namespace mstc::core
