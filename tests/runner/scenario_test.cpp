// End-to-end integration tests of the simulation runner. Each test uses a
// shortened scenario (12 simulated seconds) to stay fast; the qualitative
// assertions mirror the paper's findings with wide margins so they are
// robust to the reduced duration.
#include "runner/scenario.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "mobility/trace_cache.hpp"
#include "runner/sweep.hpp"
#include "util/prng.hpp"

namespace mstc::runner {
namespace {

ScenarioConfig quick(const std::string& protocol, double speed) {
  ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.average_speed = speed;
  cfg.duration = 12.0;
  cfg.warmup = 2.5;
  cfg.seed = 12345;
  return cfg;
}

bool stats_equal(const metrics::RunStats& a, const metrics::RunStats& b) {
  return a.delivery_ratio == b.delivery_ratio &&
         a.strict_connectivity == b.strict_connectivity &&
         a.mean_range == b.mean_range &&
         a.mean_logical_degree == b.mean_logical_degree &&
         a.mean_physical_degree == b.mean_physical_degree;
}

TEST(Scenario, DeterministicForSameSeed) {
  const auto cfg = quick("RNG", 20.0);
  EXPECT_TRUE(stats_equal(run_scenario(cfg), run_scenario(cfg)));
}

TEST(Scenario, DifferentSeedsProduceDifferentRuns) {
  auto cfg = quick("RNG", 20.0);
  const auto a = run_scenario(cfg);
  cfg.seed = 54321;
  const auto b = run_scenario(cfg);
  EXPECT_FALSE(stats_equal(a, b));
}

TEST(Scenario, MetricsAreWithinBounds) {
  for (const char* protocol : {"MST", "RNG", "SPT-2", "SPT-4"}) {
    const auto stats = run_scenario(quick(protocol, 20.0));
    EXPECT_GE(stats.delivery_ratio, 0.0) << protocol;
    EXPECT_LE(stats.delivery_ratio, 1.0) << protocol;
    EXPECT_GE(stats.strict_connectivity, 0.0) << protocol;
    EXPECT_LE(stats.strict_connectivity, 1.0) << protocol;
    EXPECT_GT(stats.mean_range, 0.0) << protocol;
    EXPECT_LT(stats.mean_range, 250.0) << protocol;
    EXPECT_GT(stats.mean_logical_degree, 0.0) << protocol;
  }
}

TEST(Scenario, StaticNetworkIsFullyConnected) {
  // With no mobility every protocol keeps a connected logical topology and
  // floods reach every node (the paper's static-case guarantee).
  for (const char* protocol : {"MST", "RNG", "SPT-2"}) {
    auto cfg = quick(protocol, 1.0);
    cfg.mobility_model = "static";
    const auto stats = run_scenario(cfg);
    EXPECT_DOUBLE_EQ(stats.delivery_ratio, 1.0) << protocol;
    EXPECT_DOUBLE_EQ(stats.strict_connectivity, 1.0) << protocol;
  }
}

TEST(Scenario, MobilityDegradesConnectivity) {
  // Fig. 6: baselines are vulnerable to mobility, badly so at high speed.
  const auto slow = run_scenario(quick("RNG", 1.0));
  const auto fast = run_scenario(quick("RNG", 80.0));
  EXPECT_GT(slow.delivery_ratio, fast.delivery_ratio);
  EXPECT_LT(fast.delivery_ratio, 0.25);
}

TEST(Scenario, MstIsMostVulnerableAndSpt2Strongest) {
  // Fig. 6's protocol ordering at moderate speed.
  const auto mst = run_scenario(quick("MST", 20.0));
  const auto spt2 = run_scenario(quick("SPT-2", 20.0));
  EXPECT_LT(mst.delivery_ratio, spt2.delivery_ratio);
  EXPECT_GT(spt2.delivery_ratio, 0.4);
  EXPECT_LT(mst.delivery_ratio, 0.3);
}

TEST(Scenario, BufferZoneImprovesConnectivity) {
  // Fig. 7: a 100 m buffer rescues RNG at moderate speed.
  auto cfg = quick("RNG", 40.0);
  const auto bare = run_scenario(cfg);
  cfg.buffer_width = 100.0;
  const auto buffered = run_scenario(cfg);
  EXPECT_GT(buffered.delivery_ratio, bare.delivery_ratio + 0.3);
  EXPECT_GT(buffered.mean_range, bare.mean_range);
  EXPECT_DOUBLE_EQ(buffered.mean_logical_degree, bare.mean_logical_degree)
      << "buffer zones change ranges, not logical selections";
}

TEST(Scenario, ViewSynchronizationImprovesConnectivity) {
  // Fig. 9: VS + 100 m buffer lets MST tolerate moderate mobility.
  auto cfg = quick("MST", 40.0);
  cfg.buffer_width = 100.0;
  const auto plain = run_scenario(cfg);
  cfg.mode = core::ConsistencyMode::kViewSync;
  const auto synced = run_scenario(cfg);
  EXPECT_GT(synced.delivery_ratio, plain.delivery_ratio + 0.2);
  EXPECT_GT(synced.delivery_ratio, 0.85);
}

TEST(Scenario, PhysicalNeighborsWithLargeBufferNearPerfect) {
  // Fig. 10: PN + 100 m buffer achieves ~100 % even under high mobility.
  auto cfg = quick("MST", 80.0);
  cfg.buffer_width = 100.0;
  cfg.physical_neighbors = true;
  const auto stats = run_scenario(cfg);
  EXPECT_GT(stats.delivery_ratio, 0.95);
  EXPECT_GT(stats.strict_connectivity, 0.9);
}

TEST(Scenario, WeakConsistencyImprovesOverBaseline) {
  auto cfg = quick("RNG", 40.0);
  cfg.buffer_width = 10.0;
  const auto baseline = run_scenario(cfg);
  cfg.mode = core::ConsistencyMode::kWeak;
  const auto weak = run_scenario(cfg);
  EXPECT_GT(weak.delivery_ratio, baseline.delivery_ratio + 0.2);
  EXPECT_GT(weak.mean_logical_degree, baseline.mean_logical_degree)
      << "conservative decisions keep more links";
}

TEST(Scenario, ReactiveSynchronizationImprovesOverBaseline) {
  auto cfg = quick("RNG", 40.0);
  cfg.buffer_width = 10.0;
  const auto baseline = run_scenario(cfg);
  cfg.mode = core::ConsistencyMode::kReactive;
  const auto reactive = run_scenario(cfg);
  EXPECT_GT(reactive.delivery_ratio, baseline.delivery_ratio + 0.1);
}

TEST(Scenario, ProactiveModeRunsWithAdaptiveBuffer) {
  auto cfg = quick("RNG", 20.0);
  cfg.mode = core::ConsistencyMode::kProactive;
  cfg.adaptive_buffer = true;
  const auto stats = run_scenario(cfg);
  EXPECT_GT(stats.delivery_ratio, 0.5)
      << "strong consistency + Theorem 5 buffer tolerates moderate speed";
}

TEST(Scenario, HelloLossIsToleratedByWeakConsistency) {
  auto cfg = quick("RNG", 10.0);
  cfg.hello_loss = 0.2;
  cfg.mode = core::ConsistencyMode::kWeak;
  cfg.history_limit = 3;  // extra records absorb losses (Section 4.2)
  const auto stats = run_scenario(cfg);
  EXPECT_GT(stats.delivery_ratio, 0.3);
}

TEST(Scenario, AlternativeMobilityModelsRun) {
  for (const char* model : {"walk", "gauss"}) {
    auto cfg = quick("SPT-2", 10.0);
    cfg.mobility_model = model;
    const auto stats = run_scenario(cfg);
    EXPECT_GT(stats.delivery_ratio, 0.2) << model;
    EXPECT_LE(stats.delivery_ratio, 1.0) << model;
  }
}

TEST(Scenario, ControlOverheadAccounting) {
  // Latest mode: one Hello per node per ~1 s interval. Reactive mode adds
  // the per-round initiation flood, roughly doubling the control traffic —
  // Section 4.1's "significant traffic" remark, quantified.
  auto cfg = quick("RNG", 10.0);
  const auto latest = run_scenario(cfg);
  EXPECT_NEAR(latest.control_tx_rate, 1.0, 0.35);
  cfg.mode = core::ConsistencyMode::kReactive;
  const auto reactive = run_scenario(cfg);
  EXPECT_GT(reactive.control_tx_rate, 1.5 * latest.control_tx_rate);
}

TEST(Scenario, SearchRegionProtocolRunsEndToEnd) {
  auto cfg = quick("SPT-R", 20.0);
  cfg.mode = core::ConsistencyMode::kViewSync;
  cfg.buffer_width = 10.0;
  const auto stats = run_scenario(cfg);
  EXPECT_GT(stats.delivery_ratio, 0.2);
  EXPECT_LT(stats.mean_range, 250.0);
}

TEST(Scenario, CsmaMacRunsAndCausesSomeCollisions) {
  auto cfg = quick("RNG", 20.0);
  cfg.mode = core::ConsistencyMode::kViewSync;
  cfg.buffer_width = 10.0;
  cfg.mac = "csma";
  const auto stats = run_scenario(cfg);
  EXPECT_GT(stats.mac_collision_fraction, 0.0);
  EXPECT_LT(stats.mac_collision_fraction, 0.5)
      << "collisions should be a perturbation, not a collapse";
  EXPECT_GT(stats.delivery_ratio, 0.2);
}

TEST(Scenario, IdealMacReportsNoCollisions) {
  const auto stats = run_scenario(quick("RNG", 20.0));
  EXPECT_DOUBLE_EQ(stats.mac_collision_fraction, 0.0);
}

TEST(Scenario, UnknownMacThrows) {
  auto cfg = quick("RNG", 1.0);
  cfg.mac = "aloha";
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

TEST(Scenario, UnknownProtocolThrows) {
  auto cfg = quick("definitely-not-a-protocol", 1.0);
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

TEST(Scenario, UnknownMobilityModelThrows) {
  auto cfg = quick("RNG", 1.0);
  cfg.mobility_model = "teleport";
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

// Variables scenario.cpp once read on every replication, after
// apply_env_overrides: a bad MSTC_EVENT_QUEUE threw, MSTC_KERNEL_SERIAL
// forced one shard, MSTC_NO_TRACE_CACHE turned cache hits into misses, and
// the other two switched the Hello delivery and filter kernels.
// ScenarioConfig now carries every execution setting, so none of them may
// reach a run.
constexpr std::array kRunnerEnvSwitches = {
    "MSTC_EVENT_QUEUE", "MSTC_KERNEL_SERIAL", "MSTC_NO_TRACE_CACHE",
    "MSTC_NO_BATCH_DELIVERY", "MSTC_FILTER_SCALAR"};

class ScenarioEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name : kRunnerEnvSwitches) ::unsetenv(name);
  }
};

/// What a run exposes: result bits, every counter of a run whose traces
/// come from a warm cache, and the shard count it resolves to.
struct RunFacts {
  std::vector<std::uint64_t> stats_bits;
  std::vector<std::uint64_t> counters;
  std::uint32_t shards = 0;
};

RunFacts run_facts(const ScenarioConfig& cfg) {
  RunFacts facts;
  facts.shards = resolved_shard_count(cfg);
  mobility::TraceCache::global().clear();
  (void)run_scenario(cfg);  // warms the trace cache
  obs::RunObservation observation;
  const metrics::RunStats stats = run_scenario(cfg, &observation);
  for (const double metric :
       {stats.delivery_ratio, stats.strict_connectivity, stats.mean_range,
        stats.mean_logical_degree, stats.mean_physical_degree,
        stats.control_tx_rate, stats.mac_collision_fraction}) {
    facts.stats_bits.push_back(std::bit_cast<std::uint64_t>(metric));
  }
  for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
    facts.counters.push_back(
        observation.counters.total(static_cast<obs::Counter>(c)));
  }
  return facts;
}

TEST_F(ScenarioEnvTest, RunReadsNoEnvironment) {
  auto cfg = quick("RNG", 20.0);
  cfg.duration = 6.0;
  cfg.warmup = 1.5;
  cfg.shards = 2;
  const RunFacts unset = run_facts(cfg);
  ASSERT_EQ(unset.shards, 2u);
  ASSERT_EQ(unset.counters[static_cast<std::size_t>(
                obs::Counter::kTraceCacheHits)],
            1u);

  for (const char* name : kRunnerEnvSwitches) ::setenv(name, "1", 1);
  ::setenv("MSTC_EVENT_QUEUE", "bogus", 1);
  RunFacts set;
  ASSERT_NO_THROW(set = run_facts(cfg));
  EXPECT_EQ(set.shards, unset.shards);
  EXPECT_EQ(set.stats_bits, unset.stats_bits);
  EXPECT_EQ(set.counters, unset.counters)
      << "an environment variable changed a run's execution path";
}

TEST(Sweep, RepeatedRunsMatchManualDerivation) {
  auto cfg = quick("RNG", 20.0);
  cfg.duration = 8.0;
  const auto aggregated = run_repeated(cfg, 3);
  EXPECT_EQ(aggregated.runs(), 3u);
  metrics::RunAggregator manual;
  for (std::size_t r = 0; r < 3; ++r) {
    ScenarioConfig replica = cfg;
    replica.seed = util::derive_seed(cfg.seed, r + 1);
    manual.add(run_scenario(replica));
  }
  EXPECT_DOUBLE_EQ(aggregated.delivery().mean(), manual.delivery().mean());
  EXPECT_DOUBLE_EQ(aggregated.strict().mean(), manual.strict().mean());
}

TEST(Sweep, BatchKeepsConfigOrder) {
  auto fragile = quick("MST", 40.0);
  auto robust = quick("MST", 40.0);
  robust.physical_neighbors = true;
  robust.buffer_width = 100.0;
  fragile.duration = robust.duration = 8.0;
  const auto results = run_batch({fragile, robust}, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].runs(), 2u);
  EXPECT_LT(results[0].delivery().mean(), results[1].delivery().mean());
}

}  // namespace
}  // namespace mstc::runner
