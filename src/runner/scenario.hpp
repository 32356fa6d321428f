// One end-to-end simulation run.
//
// Wires the substrates together exactly as the paper's Section 5.1
// describes: mobility traces drive an ideal-MAC medium; every node beacons
// asynchronous (or synchronized, per consistency mode) Hellos at the normal
// range and runs its NodeController; a flooding application measures weak
// connectivity; periodic snapshots measure strict connectivity, ranges and
// degrees.
//
// A run reads no environment: every input is in the ScenarioConfig (see
// apply_env_overrides for the MSTC_* variables a front end may fold in).
#pragma once

#include "metrics/aggregate.hpp"
#include "obs/probe.hpp"
#include "runner/config.hpp"

namespace mstc::runner {

/// Runs one scenario to completion; deterministic in (config, config.seed).
[[nodiscard]] metrics::RunStats run_scenario(const ScenarioConfig& config);

/// Same, recording counters, trace events, histograms and wall-clock
/// profiling into `observation` (see docs/OBSERVABILITY.md for the
/// catalogue). Passing null behaves exactly like the plain overload; the
/// returned stats are byte-identical either way — observation never feeds
/// back into simulation state.
[[nodiscard]] metrics::RunStats run_scenario(const ScenarioConfig& config,
                                             obs::RunObservation* observation);

/// The shard count a replication of `config` would actually run with:
/// config.shards after the csma serial fallback and the fleet-size /
/// grid-column clamps (see effective_shards in scenario.cpp). Tracing and
/// flight recording force serial separately — this resolution assumes both
/// are off, as in benchmarks.
[[nodiscard]] std::uint32_t resolved_shard_count(const ScenarioConfig& config);

}  // namespace mstc::runner
