// Executable determinism contract (ctest label "concurrency").
//
// The repo promises two invariants: (1) every run is a pure function of
// (config, seed), and (2) pool-backed sweeps are bit-identical to serial
// execution regardless of thread count. These tests byte-compare metric
// outputs — exact IEEE-754 bit patterns via bit_cast, not EXPECT_NEAR —
// across serial re-runs and 1-, 2- and N-thread pools, so any source of
// nondeterminism (unordered iteration, uninitialized reads, racing
// accumulation) fails the suite instead of silently skewing Figs. 6-10.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "metrics/aggregate.hpp"
#include "mobility/trace_cache.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace mstc::runner {
namespace {

// Exact bit patterns of every metric in a RunStats — two results are
// "byte-identical" iff these vectors compare equal.
std::vector<std::uint64_t> bit_snapshot(const metrics::RunStats& stats) {
  return {std::bit_cast<std::uint64_t>(stats.delivery_ratio),
          std::bit_cast<std::uint64_t>(stats.strict_connectivity),
          std::bit_cast<std::uint64_t>(stats.mean_range),
          std::bit_cast<std::uint64_t>(stats.mean_logical_degree),
          std::bit_cast<std::uint64_t>(stats.mean_physical_degree),
          std::bit_cast<std::uint64_t>(stats.control_tx_rate),
          std::bit_cast<std::uint64_t>(stats.mac_collision_fraction)};
}

std::vector<std::uint64_t> bit_snapshot(
    const std::vector<metrics::RunStats>& runs) {
  std::vector<std::uint64_t> bits;
  bits.reserve(runs.size() * 7);
  for (const auto& run : runs) {
    const auto one = bit_snapshot(run);
    bits.insert(bits.end(), one.begin(), one.end());
  }
  return bits;
}

std::vector<ScenarioConfig> representative_configs() {
  ScenarioConfig baseline;
  baseline.protocol = "RNG";
  baseline.average_speed = 30.0;
  baseline.duration = 6.0;
  baseline.warmup = 1.5;
  baseline.seed = 987654321;

  ScenarioConfig consistent = baseline;
  consistent.protocol = "MST";
  consistent.mode = core::ConsistencyMode::kWeak;
  consistent.buffer_width = 50.0;

  ScenarioConfig contended = baseline;
  contended.protocol = "SPT-2";
  contended.mode = core::ConsistencyMode::kViewSync;
  contended.mac = "csma";

  return {baseline, consistent, contended};
}

constexpr std::size_t kRepeats = 2;

// Plain-loop reference: what run_batch_raw must reproduce exactly.
std::vector<metrics::RunStats> serial_reference(
    const std::vector<ScenarioConfig>& configs, std::size_t repeats) {
  std::vector<metrics::RunStats> results;
  results.reserve(configs.size() * repeats);
  for (const auto& config : configs) {
    for (std::size_t r = 0; r < repeats; ++r) {
      ScenarioConfig replica = config;
      replica.seed = util::derive_seed(config.seed, r + 1);
      results.push_back(run_scenario(replica));
    }
  }
  return results;
}

TEST(Determinism, SerialRerunIsByteIdentical) {
  const auto configs = representative_configs();
  const auto first = bit_snapshot(serial_reference(configs, kRepeats));
  const auto second = bit_snapshot(serial_reference(configs, kRepeats));
  ASSERT_EQ(first, second)
      << "run_scenario is not a pure function of (config, seed)";
}

TEST(Determinism, PoolSizesOneTwoAndNMatchSerialByteForByte) {
  const auto configs = representative_configs();
  const auto reference = bit_snapshot(serial_reference(configs, kRepeats));

  const std::size_t hardware = std::max<std::size_t>(
      2, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hardware}) {
    util::ThreadPool pool(threads);
    const auto parallel =
        bit_snapshot(run_batch_raw(configs, kRepeats, pool));
    ASSERT_EQ(parallel, reference)
        << "sweep through a " << threads
        << "-thread pool diverged from serial execution";
  }
}

TEST(Determinism, GlobalPoolBatchMatchesSerial) {
  const auto configs = representative_configs();
  const auto reference = serial_reference(configs, kRepeats);
  const auto aggregated = run_batch(configs, kRepeats);
  ASSERT_EQ(aggregated.size(), configs.size());

  metrics::RunAggregator manual;
  for (std::size_t r = 0; r < kRepeats; ++r) manual.add(reference[r]);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(aggregated[0].delivery().mean()),
            std::bit_cast<std::uint64_t>(manual.delivery().mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(aggregated[0].strict().mean()),
            std::bit_cast<std::uint64_t>(manual.strict().mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(aggregated[0].control_tx().mean()),
            std::bit_cast<std::uint64_t>(manual.control_tx().mean()));
}

TEST(Determinism, ObservationOnDoesNotChangeResults) {
  // The observability layer's core contract: attaching counters, tracing
  // and profiling to every replication must leave the simulation outputs
  // byte-identical — observation never feeds back into simulation state.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto plain = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  std::vector<obs::RunObservation> observations;
  SweepHooks hooks;
  hooks.observations = &observations;
  hooks.trace = true;
  hooks.profile = true;
  const auto observed =
      bit_snapshot(run_batch_raw(configs, kRepeats, pool, hooks));

  ASSERT_EQ(observed, plain)
      << "tracing/profiling changed simulation results";
  ASSERT_EQ(observations.size(), configs.size() * kRepeats);
  for (const auto& observation : observations) {
    EXPECT_GT(observation.counters.total(obs::Counter::kHelloTx), 0u);
    EXPECT_FALSE(observation.trace.empty());
  }
}

TEST(Determinism, LedgerAndExporterOnDoesNotChangeResults) {
  // PR 7's telemetry layer rides the same contract: resource ledgers,
  // flight recording, streaming metrics exposition and the straggler
  // watchdog all read finished runs and write their own files — none of
  // it may perturb simulation outputs.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto plain = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  obs::MetricsExporter exporter;
  obs::MetricsExporter::Options options;
  options.jsonl_path = testing::TempDir() + "det_metrics.jsonl";
  options.prom_path = testing::TempDir() + "det_metrics.prom";
  ASSERT_TRUE(exporter.open(options));
  obs::PostMortemWriter postmortem;
  ASSERT_TRUE(postmortem.open(testing::TempDir() + "det_postmortem.jsonl"));

  std::vector<obs::RunObservation> observations;
  SweepHooks hooks;
  hooks.observations = &observations;
  hooks.ledger = true;
  hooks.flight = true;
  hooks.flight_capacity = 64;
  hooks.exporter = &exporter;
  hooks.postmortem = &postmortem;
  // Generous deadline: the watchdog must arm without ever firing here.
  hooks.soft_deadline_seconds = 3600.0;
  const auto observed =
      bit_snapshot(run_batch_raw(configs, kRepeats, pool, hooks));
  exporter.close();

  ASSERT_EQ(observed, plain)
      << "ledger/flight/exporter/watchdog changed simulation results";
  ASSERT_EQ(observations.size(), configs.size() * kRepeats);
  EXPECT_EQ(exporter.completed(), configs.size() * kRepeats);
  EXPECT_EQ(postmortem.incidents(), 0u);
  for (const auto& observation : observations) {
    EXPECT_TRUE(observation.ledger.captured);
    EXPECT_GT(observation.ledger.events, 0u);
    EXPECT_GT(observation.ledger.total_wall_ns, 0u);
    EXPECT_GT(observation.flight.total_recorded(), 0u);
  }
}

TEST(Determinism, GridIndexedMediumMatchesBruteForceByteForByte) {
  // The medium's spatial index and the grid-backed snapshot are
  // optimizations with a bit-identity contract: conservative-radius
  // candidate sets plus exact checks (and union-find connectivity) must
  // reproduce the brute scans exactly, so whole sweeps — metrics, event
  // ordering, everything — byte-compare across the two paths. One
  // crossover threshold drives both layers: grid_min_nodes = 0 forces both
  // grids on the representative fleets (which sit below the default
  // crossover), SIZE_MAX forces both brute scans (the threshold is
  // ScenarioConfig::medium_grid_min_nodes, hence the name). Runs through
  // the pool so the TSan job also covers the index's mutable caches.
  auto configs = representative_configs();
  for (auto& config : configs) config.medium_grid_min_nodes = 0;
  util::ThreadPool pool(3);
  const auto grid = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  for (auto& config : configs) {
    config.medium_grid_min_nodes = std::numeric_limits<std::size_t>::max();
  }
  const auto brute = bit_snapshot(run_batch_raw(configs, kRepeats, pool));

  ASSERT_EQ(grid, brute)
      << "grid-backed medium/snapshot diverged from the brute-force scans";
}

TEST(Determinism, SnapshotGridMatchesBruteForceByteForByte) {
  // The snapshot half of the test above, guarded against passing
  // vacuously: the scenario hands medium_grid_min_nodes to
  // measure_snapshot, and if that wiring broke, both sweeps would measure
  // with the brute scan and still byte-compare. The snapshot_links_examined
  // counter tells the paths apart (the brute scan checks every pair, the
  // grid only padded-cell candidates), so each replication must report
  // strictly fewer exact link checks on the grid side, with identical
  // result bytes.
  auto configs = representative_configs();
  for (auto& config : configs) config.medium_grid_min_nodes = 0;
  util::ThreadPool pool(3);
  std::vector<obs::RunObservation> grid_obs;
  SweepHooks grid_hooks;
  grid_hooks.observations = &grid_obs;
  const auto grid =
      bit_snapshot(run_batch_raw(configs, kRepeats, pool, grid_hooks));

  for (auto& config : configs) {
    config.medium_grid_min_nodes = std::numeric_limits<std::size_t>::max();
  }
  std::vector<obs::RunObservation> brute_obs;
  SweepHooks brute_hooks;
  brute_hooks.observations = &brute_obs;
  const auto brute =
      bit_snapshot(run_batch_raw(configs, kRepeats, pool, brute_hooks));

  ASSERT_EQ(grid, brute)
      << "grid-backed snapshots diverged from the brute-force measurement";
  ASSERT_EQ(grid_obs.size(), configs.size() * kRepeats);
  ASSERT_EQ(brute_obs.size(), grid_obs.size());
  for (std::size_t i = 0; i < grid_obs.size(); ++i) {
    const auto grid_links =
        grid_obs[i].counters.total(obs::Counter::kSnapshotLinksExamined);
    const auto brute_links =
        brute_obs[i].counters.total(obs::Counter::kSnapshotLinksExamined);
    EXPECT_GT(grid_links, 0u) << "run " << i << " measured no snapshot";
    EXPECT_LT(grid_links, brute_links)
        << "run " << i << " did not take the snapshot grid path";
  }
}

TEST(Determinism, RecomputeCacheOnMatchesOff) {
  // The recompute cache (PR 4) skips the protocol run when the assembled
  // view's fingerprint — member ids and raw position bits, post-expiry —
  // matches the previous refresh. Equal fingerprints imply a bit-identical
  // view, so cached runs must byte-compare against cache-off runs: any
  // divergence means the key misses an input the selection depends on.
  // Serial and pooled, per the suite's standing contract.
  const auto cached = representative_configs();
  auto uncached = cached;
  for (auto& config : uncached) config.recompute_cache = false;

  const auto serial_on = bit_snapshot(serial_reference(cached, kRepeats));
  const auto serial_off = bit_snapshot(serial_reference(uncached, kRepeats));
  ASSERT_EQ(serial_on, serial_off)
      << "recompute cache changed serial simulation results";

  util::ThreadPool pool(3);
  const auto pooled_on = bit_snapshot(run_batch_raw(cached, kRepeats, pool));
  const auto pooled_off =
      bit_snapshot(run_batch_raw(uncached, kRepeats, pool));
  ASSERT_EQ(pooled_on, serial_on);
  ASSERT_EQ(pooled_off, serial_on)
      << "recompute cache changed pooled simulation results";
}

TEST(Determinism, TraceCacheSharedMatchesPerReplication) {
  // Replications of one sweep point share a mobility TraceSet through
  // mobility::TraceCache (PR 5). Generation is pure in the cache key, so
  // cache-on sweeps must byte-compare against sweeps that regenerate
  // per replication (trace_cache = false) — any divergence means the key
  // misses an input trace generation reads, or a shared consumer mutated
  // the set.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  mobility::TraceCache::global().clear();
  const auto shared = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  // The representative configs differ only in protocol / mode / MAC — none
  // of which the trace key reads — so all three share one set per
  // replication seed: exactly kRepeats generations for the whole batch.
  // This is the setup saving the bench's amortization row quantifies.
  EXPECT_EQ(mobility::TraceCache::global().size(), kRepeats);

  auto uncached = configs;
  for (auto& config : uncached) config.trace_cache = false;
  const auto regenerated =
      bit_snapshot(run_batch_raw(uncached, kRepeats, pool));
  ASSERT_EQ(shared, regenerated)
      << "trace-cache sharing changed simulation results";
}

TEST(Determinism, ShardedKernelMatchesSerialByteForByte) {
  // The sharded event kernel (PR 8) partitions the fleet into x-axis
  // strips and drains node-local events shard-parallel between
  // conservative barriers. Sharding is pure scheduling: any shard count
  // must byte-match the serial kernel, for mobile and static fleets, per
  // replication. Divergence means an event was misclassified (a "local"
  // handler touched shared state) or a barrier fired too late.
  ScenarioConfig waypoint;
  waypoint.protocol = "RNG";
  waypoint.average_speed = 30.0;
  waypoint.duration = 6.0;
  waypoint.warmup = 1.5;
  waypoint.seed = 246813579;

  ScenarioConfig still = waypoint;
  still.mobility_model = "static";
  still.protocol = "MST";
  still.mode = core::ConsistencyMode::kWeak;

  for (const auto& base : {waypoint, still}) {
    const auto reference = bit_snapshot(serial_reference({base}, kRepeats));
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      ScenarioConfig sharded = base;
      sharded.shards = shards;
      ASSERT_EQ(bit_snapshot(serial_reference({sharded}, kRepeats)),
                reference)
          << base.mobility_model << " fleet diverged at " << shards
          << " shards";
    }
  }
}

TEST(Determinism, CalendarQueueMatchesHeapByteForByte) {
  // The calendar event queue (see sim/event_queue.hpp) orders events by
  // the same strict (time, sequence) total order the heap reference does,
  // so every backend/shard combination must produce byte-identical stats.
  // Divergence means the calendar popped out of order somewhere — a
  // bucket-boundary, overflow-ladder or resize bug.
  ScenarioConfig waypoint;
  waypoint.protocol = "RNG";
  waypoint.average_speed = 30.0;
  waypoint.duration = 6.0;
  waypoint.warmup = 1.5;
  waypoint.seed = 975318642;

  ScenarioConfig still = waypoint;
  still.mobility_model = "static";
  still.protocol = "MST";
  still.mode = core::ConsistencyMode::kWeak;

  for (const auto& base : {waypoint, still}) {
    ScenarioConfig heap = base;
    heap.queue = "heap";
    const auto reference = bit_snapshot(serial_reference({heap}, kRepeats));
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      ScenarioConfig calendar = base;
      calendar.queue = "calendar";
      calendar.shards = shards;
      ASSERT_EQ(bit_snapshot(serial_reference({calendar}, kRepeats)),
                reference)
          << base.mobility_model << " fleet diverged at " << shards
          << " shards on the calendar queue";
    }
  }
}

TEST(Determinism, ShardedReplicationsShareThePoolWithSweeps) {
  // Shards and replications share one ThreadPool: a sweep task running a
  // sharded replication re-enters the pool at every barrier drain
  // (nested submission). The pool's caller-participates contract makes
  // that deadlock-free, and results must still byte-match serial.
  auto configs = representative_configs();
  for (auto& config : configs) config.shards = 4;
  const auto reference = bit_snapshot(serial_reference(configs, kRepeats));
  util::ThreadPool pool(3);
  const auto pooled = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  ASSERT_EQ(pooled, reference)
      << "sharded replications through a sweep pool diverged from serial";
}

TEST(Determinism, RepeatedParallelBatchesAreByteIdentical) {
  // Pool reuse across batches must not leak state between sweeps.
  const auto configs = representative_configs();
  util::ThreadPool pool(3);
  const auto first = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  const auto second = bit_snapshot(run_batch_raw(configs, kRepeats, pool));
  ASSERT_EQ(first, second);
}

}  // namespace
}  // namespace mstc::runner
