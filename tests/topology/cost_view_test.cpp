#include <gtest/gtest.h>

#include <cmath>

#include "topology/cost.hpp"
#include "topology/view_graph.hpp"

namespace mstc::topology {
namespace {

using geom::Vec2;

TEST(CostModel, DistanceCostIsIdentity) {
  const DistanceCost cost;
  EXPECT_DOUBLE_EQ(cost.cost(7.5), 7.5);
  EXPECT_EQ(cost.name(), "distance");
}

TEST(CostModel, EnergyCostPowerLaw) {
  const EnergyCost free_space(2.0);
  EXPECT_DOUBLE_EQ(free_space.cost(3.0), 9.0);
  const EnergyCost two_ray(4.0, 5.0);
  EXPECT_DOUBLE_EQ(two_ray.cost(2.0), 21.0);
  EXPECT_DOUBLE_EQ(two_ray.alpha(), 4.0);
}

TEST(CostModel, EnergyCostIsMonotone) {
  const EnergyCost cost(4.0, 10.0);
  double previous = cost.cost(0.0);
  for (double d = 0.5; d <= 250.0; d += 0.5) {
    const double current = cost.cost(d);
    EXPECT_GT(current, previous);
    previous = current;
  }
}

TEST(CostKey, OrderedByValueFirst) {
  const CostKey a = CostKey::make(1.0, 5, 9);
  const CostKey b = CostKey::make(2.0, 0, 1);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
}

TEST(CostKey, TiesBrokenByNodeIds) {
  const CostKey a = CostKey::make(1.0, 2, 3);
  const CostKey b = CostKey::make(1.0, 2, 4);
  const CostKey c = CostKey::make(1.0, 1, 9);
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // lower lo id wins
}

TEST(CostKey, MakeNormalizesEndpointOrder) {
  EXPECT_EQ(CostKey::make(1.0, 7, 3), CostKey::make(1.0, 3, 7));
}

TEST(CostKey, DistinctLinksNeverEqual) {
  // Total order requirement of Theorem 1.
  const CostKey a = CostKey::make(4.0, 0, 1);
  const CostKey b = CostKey::make(4.0, 0, 2);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(ViewGraph, OwnerIsIndexZero) {
  ViewGraph view(42, 2);
  EXPECT_EQ(view.owner(), 42u);
  EXPECT_EQ(view.node_count(), 3u);
  EXPECT_EQ(view.neighbor_count(), 2u);
}

TEST(ViewGraph, SetLinkIsSymmetric) {
  ViewGraph view(0, 2);
  view.set_id(1, 10);
  view.set_id(2, 20);
  view.set_owner_link(1, 5.0, 9.0, 25.0);
  EXPECT_TRUE(view.has_link(0, 1));
  EXPECT_TRUE(view.has_link(1, 0));
  EXPECT_FALSE(view.has_link(0, 2));
  EXPECT_EQ(view.cost_min(1, 0), CostKey::make(9.0, 0, 10));
  EXPECT_EQ(view.cost_max(0, 1), CostKey::make(25.0, 0, 10));
  EXPECT_DOUBLE_EQ(view.owner_distance_max(1), 5.0);
  view.set_link(2, 1, 4.0, 4.0);
  EXPECT_TRUE(view.has_link(1, 2));
  EXPECT_TRUE(view.has_link(2, 1));
}

// The contract the dense kernels rest on: a link exists exactly where its
// cost is finite; every other entry, the diagonal included, is +inf.
TEST(ViewGraph, LinkExistsExactlyWhereCostIsFinite) {
  ViewGraph view(5, 3);
  for (std::size_t i = 0; i < 4; ++i) view.set_id(i, 10 + i);
  view.set_owner_link(1, 1.0, 1.0, 1.0);
  view.set_owner_link(3, 2.0, 0.0, 4.0);  // zero cost is a link too
  view.set_link(1, 2, 3.0, 5.0);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto min_row = view.cost_min_row(i);
    const auto max_row = view.cost_max_row(i);
    ASSERT_EQ(min_row.size(), 4u);
    ASSERT_EQ(max_row.size(), 4u);
    for (std::size_t j = 0; j < 4; ++j) {
      SCOPED_TRACE(testing::Message() << "(" << i << ", " << j << ")");
      EXPECT_EQ(view.has_link(i, j), std::isfinite(view.cost_max(i, j).value));
      EXPECT_EQ(view.has_link(i, j), std::isfinite(view.cost_min(i, j).value));
      EXPECT_EQ(min_row[j], view.cost_min(i, j).value);
      EXPECT_EQ(max_row[j], view.cost_max(i, j).value);
      if (!view.has_link(i, j)) {
        EXPECT_EQ(max_row[j], ViewGraph::kNoLink);
        EXPECT_EQ(min_row[j], ViewGraph::kNoLink);
      }
    }
  }
  EXPECT_TRUE(view.has_link(0, 3));
  EXPECT_TRUE(view.has_link(2, 1));
  EXPECT_FALSE(view.has_link(2, 3));
  EXPECT_FALSE(view.has_link(0, 2));
}

TEST(ViewGraph, DiagonalIsAbsent) {
  ViewGraph view(0, 2);
  view.set_owner_link(1, 1.0, 1.0, 1.0);
  view.set_owner_link(2, 1.0, 1.0, 1.0);
  view.set_link(1, 2, 1.0, 1.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(view.has_link(i, i)) << i;
    EXPECT_EQ(view.cost_min_row(i)[i], ViewGraph::kNoLink) << i;
    EXPECT_EQ(view.cost_max_row(i)[i], ViewGraph::kNoLink) << i;
  }
}

// reset() keeps capacity for reuse but must not keep links: a smaller view
// assembled into a larger one's storage starts with every pair absent,
// including the entries the larger view's rows wrote.
TEST(ViewGraph, ResetAfterLargerViewLeavesNoStaleLink) {
  ViewGraph view(0, 5);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      if (i == 0) {
        view.set_owner_link(j, 1.0, 1.0, 1.0);
      } else {
        view.set_link(i, j, 2.0, 2.0);
      }
    }
  }
  view.reset(9, 2);
  ASSERT_EQ(view.node_count(), 3u);
  EXPECT_EQ(view.owner(), 9u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_FALSE(view.has_link(i, j)) << i << "," << j;
      EXPECT_EQ(view.cost_min_row(i)[j], ViewGraph::kNoLink);
    }
  }
  view.set_owner_link(2, 3.0, 3.0, 3.0);
  EXPECT_TRUE(view.has_link(2, 0));
  EXPECT_FALSE(view.has_link(1, 2));
}

// Costs are stored as values; each read builds the key's tie-break from
// the two view ids, in either index order, whatever order the ids are in.
TEST(ViewGraph, CostKeysComeFromViewIds) {
  ViewGraph view(42, 2);
  view.set_id(1, 7);
  view.set_id(2, 19);
  view.set_owner_link(1, 2.0, 1.0, 4.0);
  view.set_link(2, 1, 9.0, 9.0);
  view.set_owner_link(2, 6.0, 25.0, 36.0);
  const auto check = [&](std::size_t i, std::size_t j, double lo, double hi) {
    SCOPED_TRACE(testing::Message() << "link (" << i << ", " << j << ")");
    const CostKey key_lo = CostKey::make(lo, view.id(i), view.id(j));
    const CostKey key_hi = CostKey::make(hi, view.id(i), view.id(j));
    EXPECT_EQ(view.cost_min(i, j), key_lo);
    EXPECT_EQ(view.cost_min(j, i), key_lo);
    EXPECT_EQ(view.cost_max(i, j), key_hi);
    EXPECT_EQ(view.cost_max(j, i), key_hi);
  };
  check(0, 1, 1.0, 4.0);
  check(1, 2, 9.0, 9.0);
  check(0, 2, 25.0, 36.0);
  EXPECT_EQ(view.cost_min(0, 1), CostKey::make(1.0, 7, 42));
  EXPECT_EQ(view.cost_max(2, 1), CostKey::make(9.0, 7, 19));
  EXPECT_EQ(view.cost_max(2, 0), (CostKey{36.0, 19, 42}));
}

TEST(MakeConsistentView, SelectsNeighborsWithinRange) {
  const std::vector<Vec2> positions = {{0, 0}, {10, 0}, {30, 0}, {100, 0}};
  const std::vector<NodeId> ids = {0, 1, 2, 3};
  const DistanceCost cost;
  const ViewGraph view = make_consistent_view(positions, ids, 0, 35.0, cost);
  EXPECT_EQ(view.owner(), 0u);
  EXPECT_EQ(view.neighbor_count(), 2u);  // nodes 1 and 2; node 3 out of range
  EXPECT_EQ(view.id(1), 1u);
  EXPECT_EQ(view.id(2), 2u);
}

TEST(MakeConsistentView, NeighborNeighborLinksIncluded) {
  // Node 1 and node 2 are 20 apart: linked in node 0's view.
  const std::vector<Vec2> positions = {{0, 0}, {10, 0}, {30, 0}};
  const std::vector<NodeId> ids = {0, 1, 2};
  const DistanceCost cost;
  const ViewGraph view = make_consistent_view(positions, ids, 0, 35.0, cost);
  EXPECT_TRUE(view.has_link(1, 2));
  EXPECT_DOUBLE_EQ(view.cost_min(1, 2).value, 20.0);  // DistanceCost: c = d
  EXPECT_EQ(view.cost_min(1, 2), CostKey::make(20.0, 1, 2));
}

TEST(MakeConsistentView, NeighborLinksBeyondRangeExcluded) {
  // Nodes 1 and 2 are both within range of 0, but 40 apart (> 35).
  const std::vector<Vec2> positions = {{0, 0}, {-20, 0}, {20, 0}};
  const std::vector<NodeId> ids = {0, 1, 2};
  const DistanceCost cost;
  const ViewGraph view = make_consistent_view(positions, ids, 0, 35.0, cost);
  EXPECT_EQ(view.neighbor_count(), 2u);
  EXPECT_TRUE(view.has_link(0, 1));
  EXPECT_TRUE(view.has_link(0, 2));
  EXPECT_FALSE(view.has_link(1, 2));
}

TEST(MakeConsistentView, PointIntervals) {
  const std::vector<Vec2> positions = {{0, 0}, {10, 0}};
  const std::vector<NodeId> ids = {0, 1};
  const EnergyCost cost(2.0);
  const ViewGraph view = make_consistent_view(positions, ids, 0, 35.0, cost);
  EXPECT_EQ(view.cost_min(0, 1), view.cost_max(0, 1));
  EXPECT_DOUBLE_EQ(view.cost_min(0, 1).value, 100.0);
}

}  // namespace
}  // namespace mstc::topology
