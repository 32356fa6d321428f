// Micro-benchmarks of the per-node kernels (google-benchmark): protocol
// selection over a realistic 1-hop view, view assembly, the controller's
// whole refresh, effective-topology snapshots, and trace position queries.
// These bound the per-event cost of the simulator and of a real
// implementation's Hello handler.
#include <benchmark/benchmark.h>

#include "core/consistency.hpp"
#include "core/controller.hpp"
#include "core/effective.hpp"
#include "metrics/snapshot.hpp"
#include "mobility/models.hpp"
#include "topology/builder.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"

namespace {

using namespace mstc;

constexpr double kRange = 250.0;

/// A dense random neighborhood around the origin (paper density: ~18
/// 1-hop neighbors).
std::vector<geom::Vec2> neighborhood(std::size_t total, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<geom::Vec2> positions{{0.0, 0.0}};
  while (positions.size() < total) {
    const geom::Vec2 p{rng.uniform(-kRange, kRange),
                       rng.uniform(-kRange, kRange)};
    if (p.norm() <= kRange) positions.push_back(p);
  }
  return positions;
}

void BM_ProtocolSelect(benchmark::State& state, const char* name) {
  const auto suite = topology::make_protocol(name);
  const auto positions =
      neighborhood(static_cast<std::size_t>(state.range(0)), 99);
  std::vector<topology::NodeId> ids(positions.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const auto view =
      topology::make_consistent_view(positions, ids, 0, kRange, *suite.cost);
  for (auto _ : state) {
    benchmark::DoNotOptimize(suite.protocol->select(view));
  }
}
// Arg(28) is the mean view degree of the paper's n = 100 sweep.
BENCHMARK_CAPTURE(BM_ProtocolSelect, rng, "RNG")->Arg(19)->Arg(28)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, mst, "MST")->Arg(19)->Arg(28)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, spt2, "SPT-2")->Arg(19)->Arg(28)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, spt4, "SPT-4")->Arg(19)->Arg(28)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, yao, "Yao")->Arg(19)->Arg(28)->Arg(40);
BENCHMARK_CAPTURE(BM_ProtocolSelect, cbtc, "CBTC")->Arg(19)->Arg(28)->Arg(40);

constexpr std::size_t kRotation = 100;

// Selection over kRotation distinct neighbourhoods of state.range(0)
// neighbours, cycled. BM_ProtocolSelect replays one view, which trains the
// branch predictor on it; a run never sees the same view twice in a row.
void BM_RotatingSelect(benchmark::State& state, const char* name) {
  const auto suite = topology::make_protocol(name);
  const std::size_t degree = static_cast<std::size_t>(state.range(0));
  std::vector<topology::ViewGraph> views;
  views.reserve(kRotation);
  for (std::size_t k = 0; k < kRotation; ++k) {
    const auto positions = neighborhood(degree + 1, 2000 + k);
    std::vector<topology::NodeId> ids(positions.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    views.push_back(topology::make_consistent_view(positions, ids, 0, kRange,
                                                   *suite.cost));
  }
  std::vector<std::size_t> chosen;
  std::size_t next = 0;
  for (auto _ : state) {
    suite.protocol->select(views[next], chosen);
    benchmark::DoNotOptimize(chosen.data());
    next = next + 1 == views.size() ? 0 : next + 1;
  }
}
BENCHMARK_CAPTURE(BM_RotatingSelect, rng, "RNG")->Arg(28);
BENCHMARK_CAPTURE(BM_RotatingSelect, mst, "MST")->Arg(28);
BENCHMARK_CAPTURE(BM_RotatingSelect, spt2, "SPT-2")->Arg(28);
BENCHMARK_CAPTURE(BM_RotatingSelect, spt4, "SPT-4")->Arg(28);

// The production point-view assembly (latest / viewsync): build_latest_view
// from kRotation filled stores of state.range(0) neighbours, cycled, into
// one reused scratch and view, under distance (RNG, MST) and energy (SPT)
// costs.
void BM_LatestViewAssembly(benchmark::State& state, const char* name) {
  const auto suite = topology::make_protocol(name);
  const std::size_t degree = static_cast<std::size_t>(state.range(0));
  std::vector<core::LocalViewStore> stores;
  stores.reserve(kRotation);
  for (std::size_t k = 0; k < kRotation; ++k) {
    const auto positions = neighborhood(degree + 1, 3000 + k);
    stores.emplace_back(0, 1, 1e9);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      stores.back().record({i, {positions[i], 1, 0.0}});
    }
  }
  core::ViewScratch scratch;
  topology::ViewGraph view;
  std::size_t next = 0;
  for (auto _ : state) {
    core::build_latest_view(stores[next], kRange, *suite.cost, scratch, view);
    benchmark::DoNotOptimize(view);
    next = next + 1 == stores.size() ? 0 : next + 1;
  }
}
BENCHMARK_CAPTURE(BM_LatestViewAssembly, distance, "MST")->Arg(28);
BENCHMARK_CAPTURE(BM_LatestViewAssembly, energy2, "SPT-2")->Arg(28);
BENCHMARK_CAPTURE(BM_LatestViewAssembly, energy4, "SPT-4")->Arg(28);

void BM_ConsistentViewAssembly(benchmark::State& state) {
  const auto positions =
      neighborhood(static_cast<std::size_t>(state.range(0)), 7);
  std::vector<topology::NodeId> ids(positions.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const topology::DistanceCost cost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topology::make_consistent_view(positions, ids, 0, kRange, cost));
  }
}
BENCHMARK(BM_ConsistentViewAssembly)->Arg(19)->Arg(40);

void BM_WeakViewAssembly(benchmark::State& state) {
  // Weak view with k = 3 records per sender.
  const auto positions =
      neighborhood(static_cast<std::size_t>(state.range(0)), 11);
  core::LocalViewStore store(0, 3, 1e9);
  util::Xoshiro256 rng(13);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::uint64_t version = 1; version <= 3; ++version) {
      const geom::Vec2 drift{rng.uniform(-20.0, 20.0),
                             rng.uniform(-20.0, 20.0)};
      store.record({i, {positions[i] + drift, version,
                        static_cast<double>(version)}});
    }
  }
  const topology::DistanceCost cost;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_weak_view(store, kRange, cost));
  }
}
BENCHMARK(BM_WeakViewAssembly)->Arg(19)->Arg(40);

// The production refresh path: NodeController::refresh_selection assembles
// into its thread's view workspace, selects and applies, cycling over 100
// controllers whose stores each hold state.range(0) neighbours (so the
// workspace carries another owner's view into every refresh, as in a run).
// The recompute cache is off: every refresh assembles and selects.
void BM_RefreshSelection(benchmark::State& state, const char* name) {
  const auto suite = topology::make_protocol(name);
  const std::size_t degree = static_cast<std::size_t>(state.range(0));
  core::ControllerConfig config;
  config.view_expiry = 1e9;
  config.recompute_cache = false;
  std::vector<core::NodeController> nodes;
  nodes.reserve(100);
  for (std::size_t u = 0; u < 100; ++u) {
    nodes.emplace_back(u, *suite.protocol, *suite.cost, config);
    const auto positions = neighborhood(degree + 1, 1000 + u);
    for (std::size_t i = 1; i < positions.size(); ++i) {
      nodes.back().on_hello_receive({100 + i, {positions[i], 1, 0.0}}, 0.0);
    }
    nodes.back().on_hello_send_record(0.0, positions[0], 1);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    nodes[next].refresh_selection(1.0);
    benchmark::DoNotOptimize(nodes[next].logical_neighbors().data());
    benchmark::ClobberMemory();
    next = next + 1 == nodes.size() ? 0 : next + 1;
  }
}
BENCHMARK_CAPTURE(BM_RefreshSelection, rng, "RNG")->Arg(28);
BENCHMARK_CAPTURE(BM_RefreshSelection, mst, "MST")->Arg(28);
BENCHMARK_CAPTURE(BM_RefreshSelection, spt4, "SPT-4")->Arg(28);

void BM_EffectiveSnapshot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(3);
  std::vector<geom::Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
  }
  const auto suite = topology::make_protocol("RNG");
  const topology::NoneProtocol keep_all;
  core::ControllerConfig config;
  std::vector<core::NodeController> nodes;
  nodes.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    nodes.emplace_back(u, *suite.protocol, *suite.cost, config);
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u != v && geom::distance(positions[u], positions[v]) <= kRange) {
        nodes[u].on_hello_receive({v, {positions[v], 1, 0.0}}, 0.0);
      }
    }
    nodes[u].on_hello_send(0.1, positions[u], 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::measure_snapshot(nodes, positions));
  }
}
BENCHMARK(BM_EffectiveSnapshot)->Arg(100)->Arg(200);

void BM_WholeTopologyBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(5);
  std::vector<geom::Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)});
  }
  const auto suite = topology::make_protocol("MST");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topology::build_topology(positions, kRange, *suite.protocol,
                                 *suite.cost));
  }
}
BENCHMARK(BM_WholeTopologyBuild)->Arg(100)->Arg(200);

void BM_TracePositionQuery(benchmark::State& state) {
  const mobility::Area area{900.0, 900.0};
  const mobility::RandomWaypoint model(area, 10.0, 30.0);
  util::Xoshiro256 rng(17);
  const mobility::Trace trace = model.make_trace(rng, 1000.0);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.37;
    if (t > 1000.0) t = 0.0;
    benchmark::DoNotOptimize(trace.position(t));
  }
}
BENCHMARK(BM_TracePositionQuery);

}  // namespace

BENCHMARK_MAIN();
