// perfbench: the repository benchmark program.
//
// Runs one workload through the simulator's public API (runner::run_batch_raw
// and runner::run_scenario on generated ScenarioConfigs), checks every
// replication's output, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1) as one JSON object on the last line of
// stdout. Every span and clock read lives here, outside src/: the per-layer
// numbers come from spans around calls into each layer's public functions,
// and the call counts from the simulator's own obs counters on the same
// seed. README.md in this directory explains the workloads and metrics.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/consistency.hpp"
#include "core/controller.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/snapshot.hpp"
#include "mobility/models.hpp"
#include "mobility/trace_cache.hpp"
#include "obs/probe.hpp"
#include "runner/config.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/event_queue.hpp"
#include "sim/medium.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"
#include "util/rusage.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mstc;
using Clock = std::chrono::steady_clock;
using obs::Counter;

constexpr const char* kPaperProtocols[] = {"MST", "RNG", "SPT-4", "SPT-2"};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- workloads ---------------------------------------------------------

/// One workload: the configs of one timed phase. Batched workloads go
/// through run_batch_raw on the benchmark's pool (replication r of config i
/// gets run_batch's derived seed); single ones are one run_scenario call.
struct Workload {
  std::string name;
  std::string reference_name;  ///< whose recorded digests apply
  std::vector<runner::ScenarioConfig> configs;
  std::size_t repeats = 1;
  bool batch = false;
  [[nodiscard]] std::size_t replications() const {
    return configs.size() * repeats;
  }
  [[nodiscard]] const runner::ScenarioConfig& config_of(std::size_t task) const {
    return configs[task / repeats];
  }
  /// The config replication `task` actually runs (seed derived as
  /// run_batch_raw derives it).
  [[nodiscard]] runner::ScenarioConfig task_config(std::size_t task) const {
    runner::ScenarioConfig cfg = config_of(task);
    if (batch) cfg.seed = util::derive_seed(cfg.seed, task % repeats + 1);
    return cfg;
  }
};

/// Simulated seconds of one replication (the default 3 s warm-up included).
/// Every node passes the recompute cache's kRecomputeCacheWarmup probes (one
/// per Hello interval) by about 8 s, so a replication measures 10 s, of
/// which 5 s with the cache settled as in a default-length run.
constexpr double kReplicationSeconds = 13.0;

/// A fixed, stratified slice of the Table 1 + Figs. 6-10 grid: 16 points
/// where every protocol meets every speed and every buffer width once, and
/// each protocol runs twice under latest and twice under view
/// synchronization, twice with and twice without physical neighbors. Each
/// point runs 2 replications of kReplicationSeconds (smoke mode: 1 of 2 s).
///
/// The round's wall time should follow its total work, not the draw of one
/// replication, so:
/// - Points pair up on a seed: at each speed, SPT-2 with MST and SPT-4 with
///   RNG. Each pair shares one cached trace set per replication (the trace
///   cache keys on seed and speed), and the 16 pair replications start from
///   independent layouts. The runner's trace seed does not depend on the
///   speed, so with one seed every point would start from the same layout.
/// - Points run most expensive protocol first (SPT-2, SPT-4, MST, RNG; SPT
///   replications cost 5-25x RNG ones), as a campaign that knows its costs
///   would order them, so cheap replications fill the pool's tail.
Workload paper_sweep(std::uint64_t seed, bool smoke) {
  constexpr double kSpeeds[] = {1.0, 10.0, 40.0, 160.0};
  constexpr double kBuffers[] = {0.0, 25.0, 50.0, 100.0};
  constexpr const char* kCostliestFirst[] = {"SPT-2", "SPT-4", "MST", "RNG"};
  Workload w;
  w.name = w.reference_name = "paper_sweep";
  w.batch = true;
  w.repeats = smoke ? 1 : 2;
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t s = 0; s < 4; ++s) {
      runner::ScenarioConfig cfg;  // paper defaults: n=100, 900x900 m, waypoint
      cfg.protocol = kCostliestFirst[p];
      cfg.average_speed = kSpeeds[s];
      cfg.buffer_width = kBuffers[(p + s) % 4];
      cfg.mode = (s + p / 2) % 2 == 0 ? core::ConsistencyMode::kLatest
                                      : core::ConsistencyMode::kViewSync;
      cfg.physical_neighbors = (s / 2 + p) % 2 == 1;
      cfg.duration = smoke ? 2.0 : kReplicationSeconds;
      if (smoke) cfg.warmup = 0.5;
      cfg.seed = util::derive_seed(seed, 2 * s + p % 2 + 1);
      w.configs.push_back(cfg);
    }
  }
  return w;
}

/// n = 10 000 (smoke: 1 000) at the paper's density of 100 nodes per
/// 900 x 900 m^2: waypoint, RNG, view synchronization.
Workload fleet(std::uint64_t seed, bool smoke, std::size_t shards) {
  Workload w;
  w.name = shards > 1 ? "fleet_sharded" : "fleet_serial";
  w.reference_name = "fleet_serial";  // sharded must be byte-identical
  runner::ScenarioConfig cfg;
  cfg.node_count = smoke ? 1000 : 10000;
  const double side =
      900.0 * std::sqrt(static_cast<double>(cfg.node_count) / 100.0);
  cfg.area = {side, side};
  cfg.protocol = "RNG";
  cfg.mode = core::ConsistencyMode::kViewSync;
  cfg.average_speed = 20.0;
  cfg.duration = smoke ? 2.0 : kReplicationSeconds;
  if (smoke) cfg.warmup = 0.5;
  cfg.shards = shards;
  cfg.seed = seed;
  w.configs.push_back(cfg);
  return w;
}

// --- output checks -----------------------------------------------------

/// FNV-1a over the bit patterns of every RunStats field.
std::uint64_t digest(const metrics::RunStats& stats) {
  const double fields[] = {stats.delivery_ratio,       stats.strict_connectivity,
                           stats.mean_range,           stats.mean_logical_degree,
                           stats.mean_physical_degree, stats.control_tx_rate,
                           stats.mac_collision_fraction};
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double field : fields) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &field, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Every field finite and inside the range its definition allows.
bool plausible(const metrics::RunStats& s, const runner::ScenarioConfig& cfg) {
  const double max_degree = static_cast<double>(cfg.node_count) - 1.0;
  const auto within = [](double v, double lo, double hi) {
    return std::isfinite(v) && v >= lo && v <= hi;
  };
  return within(s.delivery_ratio, 0.0, 1.0) &&
         within(s.strict_connectivity, 0.0, 1.0) &&
         within(s.mean_range, 0.0, cfg.normal_range + cfg.buffer_width) &&
         within(s.mean_logical_degree, 0.0, max_degree) &&
         within(s.mean_physical_degree, 0.0, max_degree) &&
         within(s.control_tx_rate, 0.0, 1e3) &&
         s.mac_collision_fraction == 0.0;  // ideal MAC: no collisions
}

/// Recorded digests: lines of "<workload> <seed> <hex digest per
/// replication...>"; '#' starts a comment.
std::vector<std::uint64_t> load_reference(const std::string& path,
                                          const std::string& workload,
                                          std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t line_seed = 0;
    if (!(fields >> name) || name.front() == '#' || name != workload) continue;
    if (!(fields >> line_seed) || line_seed != seed) continue;
    std::vector<std::uint64_t> digests;
    std::string token;
    while (fields >> token) digests.push_back(std::stoull(token, nullptr, 16));
    return digests;
  }
  return {};
}

/// Counts attempted and failed replications. A replication fails when a
/// field is out of range, when its digest differs from the recorded
/// reference (reference seeds only), or when it differs from the digest the
/// same replication produced first in this process (every seed; for
/// fleet_sharded the first is the serial kernel's run). `last` holds the
/// digests of the last round checked, which on fleet_sharded is a sharded
/// round.
struct Checker {
  std::vector<std::uint64_t> reference;
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> last;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(const Workload& w, const std::vector<metrics::RunStats>& stats) {
    last.clear();
    for (const auto& s : stats) last.push_back(digest(s));
    if (first.empty()) first = last;
    for (std::size_t task = 0; task < stats.size(); ++task) {
      const std::uint64_t d = last[task];
      bool ok = plausible(stats[task], w.config_of(task)) && d == first[task];
      if (!reference.empty()) {
        ok = ok && task < reference.size() && d == reference[task];
      }
      ++attempted;
      if (!ok) ++failed;
    }
  }
};

// --- timed phase -------------------------------------------------------

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<metrics::RunStats> stats;
};

/// One timed phase with tracing off. The trace cache is emptied first so
/// every round generates its traces, as a fresh campaign does.
Round untraced_round(const Workload& w, util::ThreadPool& pool) {
  mobility::TraceCache::global().clear();
  Round round;
  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  if (w.batch) {
    round.stats = runner::run_batch_raw(w.configs, w.repeats, pool);
  } else {
    round.stats = {runner::run_scenario(w.configs.front())};
  }
  round.wall_s = seconds_since(start);
  round.cpu_s = process_cpu_seconds() - cpu_start;
  return round;
}

double node_seconds(const Workload& w) {
  double total = 0.0;
  for (const auto& cfg : w.configs) {
    total += static_cast<double>(cfg.node_count) * cfg.duration *
             static_cast<double>(w.repeats);
  }
  return total;
}

/// Set-up before simulation can begin, timed from outside: starting the
/// workload's thread pool, generating each distinct trace set it uses, and
/// constructing each replication's scenario (a run_scenario call whose run
/// ends before the first Hello, so nearly all of it is construction).
double setup_sample(const Workload& w, std::size_t pool_threads,
                    std::uint64_t salt) {
  constexpr double kConstructionOnly = 1e-3;  // s of simulated time
  mobility::TraceCache::global().clear();
  const Clock::time_point start = Clock::now();
  std::optional<util::ThreadPool> pool;
  if (pool_threads > 0) pool.emplace(pool_threads);
  std::set<std::pair<double, std::uint64_t>> seen;  // (speed, seed)
  for (std::size_t task = 0; task < w.replications(); ++task) {
    runner::ScenarioConfig cfg = w.task_config(task);
    cfg.seed = util::derive_seed(cfg.seed, salt);
    if (seen.emplace(cfg.average_speed, cfg.seed).second) {
      const auto traces = mobility::generate_traces(
          *mobility::make_paper_waypoint(cfg.area, cfg.average_speed),
          cfg.node_count, cfg.duration, cfg.seed);
      if (traces.size() != cfg.node_count) throw std::runtime_error("traces");
    }
    cfg.duration = kConstructionOnly;
    (void)runner::run_scenario(cfg);
  }
  return seconds_since(start);
}

// --- traced run --------------------------------------------------------

/// Accumulated wall time of one kind of span.
struct Span {
  double ns = 0.0;
  std::uint64_t calls = 0;
  void add(Clock::time_point start, std::uint64_t n = 1) {
    ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    calls += n;
  }
  [[nodiscard]] double per_call() const { return ratio(ns, static_cast<double>(calls)); }
};

/// The timed phase again, with a span around every replication and the
/// simulator's counters (and optionally its profiler) attached. Runs the
/// same parallel_for run_batch_raw runs, with the same derived seeds.
struct TracedRound {
  double wall_s = 0.0;
  std::vector<metrics::RunStats> stats;
  std::vector<obs::RunObservation> observations;
  std::vector<double> replication_s;
  std::vector<double> end_s;  ///< replication end, from round start
  std::vector<std::thread::id> worker;
};

TracedRound traced_round(const Workload& w, util::ThreadPool& pool,
                         bool profile) {
  mobility::TraceCache::global().clear();
  const std::size_t total = w.replications();
  TracedRound round;
  round.stats.resize(total);
  round.observations.assign(total, obs::RunObservation{});
  for (auto& slot : round.observations) slot.profile_on = profile;
  round.replication_s.resize(total);
  round.end_s.resize(total);
  round.worker.resize(total);
  const Clock::time_point start = Clock::now();
  const auto body = [&](std::size_t task) {
    const runner::ScenarioConfig cfg = w.task_config(task);
    const Clock::time_point task_start = Clock::now();
    round.stats[task] = runner::run_scenario(cfg, &round.observations[task]);
    round.replication_s[task] = seconds_since(task_start);
    round.end_s[task] = seconds_since(start);
    round.worker[task] = std::this_thread::get_id();
  };
  if (w.batch) {
    util::parallel_for(pool, total, body);
  } else {
    body(0);
  }
  round.wall_s = seconds_since(start);
  return round;
}

/// Per-call self times of one config's layers, from spans around public
/// calls replayed on that config's own fleet: its traces, a medium over
/// them, and controllers driven through every Hello of the run's duration
/// at its beacon pattern.
struct LayerCosts {
  std::map<std::string, Span> select;  ///< every paper protocol, sampled views
  Span own_assembly, own_select;       ///< the config's protocol, in flow
  Span refresh_self;  ///< refresh_selection minus its assembly and select
  Span hello_receive, medium, queue, snapshot, trace_gen;
  double degree_sum = 0.0;
};

/// The controller wiring runner::Scenario builds from a config (fixed buffer
/// widths only; the workloads use no adaptive buffer).
core::ControllerConfig controller_config(const runner::ScenarioConfig& cfg) {
  core::ControllerConfig cc;
  cc.normal_range = cfg.normal_range;
  cc.mode = cfg.mode;
  cc.history_limit = cfg.effective_history();
  cc.view_expiry = 2.5 * cfg.hello_interval;
  cc.buffer.width = cfg.buffer_width;
  cc.accept_physical_neighbors = cfg.physical_neighbors;
  cc.recompute_cache = cfg.recompute_cache;
  cc.recompute_cache_min_skip_rate = cfg.recompute_cache_min_skip_rate;
  return cc;
}

LayerCosts replay_layers(const runner::ScenarioConfig& cfg, bool smoke) {
  constexpr double kPropagation = 1e-6;
  LayerCosts costs;
  const std::size_t n = cfg.node_count;

  // A trace set with the config's mobility inputs; the scenario's own trace
  // seed is private to the runner.
  Clock::time_point t0 = Clock::now();
  const auto traces = mobility::generate_traces(
      *mobility::make_paper_waypoint(cfg.area, cfg.average_speed), n,
      cfg.duration, util::derive_seed(cfg.seed, 0x7ACE));
  costs.trace_gen.add(t0);

  const sim::Medium medium(traces, {.propagation_delay = kPropagation,
                                    .grid_min_nodes = cfg.medium_grid_min_nodes});
  const topology::ProtocolSuite suite = topology::make_protocol(cfg.protocol);
  obs::RunObservation replay_obs;
  const obs::Probe probe(&replay_obs);
  std::vector<core::NodeController> nodes;
  nodes.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    nodes.emplace_back(u, *suite.protocol, *suite.cost, controller_config(cfg));
    nodes.back().attach_probe(&probe);
  }

  // Every Hello of the run, stores filling up and recompute caches deciding
  // as they do in the run: node u beacons every interval[u] (jittered once,
  // as runner schedules it) from offset[u], in time order. Every refresh
  // that recomputes is split by assembling and selecting the same view
  // under separate spans, alternately before and after the refresh so that
  // neither side always finds the store in a warm cache.
  util::Xoshiro256 rng(util::derive_seed(cfg.seed, 0xBEAC));
  std::vector<double> interval(n), offset(n);
  for (std::size_t u = 0; u < n; ++u) {
    interval[u] =
        cfg.hello_interval * (1.0 + cfg.hello_jitter * rng.uniform(-1.0, 1.0));
    offset[u] = rng.uniform(0.0, interval[u]);
  }
  std::vector<std::pair<double, std::size_t>> hellos;  // (time, node)
  for (std::size_t u = 0; u < n; ++u) {
    for (double t = offset[u]; t < cfg.duration; t += interval[u]) {
      hellos.emplace_back(t, u);
    }
  }
  std::sort(hellos.begin(), hellos.end());
  std::vector<sim::NodeId> receivers;
  core::ViewScratch scratch;
  topology::ViewGraph view;
  std::vector<std::size_t> chosen;
  const auto assemble_and_select = [&](const core::LocalViewStore& store) {
    Span assembly, select;
    Clock::time_point t = Clock::now();
    core::build_latest_view(store, cfg.normal_range, *suite.cost, scratch, view);
    assembly.add(t);
    t = Clock::now();
    suite.protocol->select(view, chosen);
    select.add(t);
    return std::pair{assembly, select};
  };
  std::uint64_t refreshes = 0;
  std::vector<std::uint64_t> version(n, 0);
  for (const auto& [t, u] : hellos) {
    const core::HelloRecord hello =
        nodes[u].on_hello_send_record(t, medium.position(u, t), ++version[u]);
    t0 = Clock::now();
    medium.receivers(u, cfg.normal_range, t, receivers);
    costs.medium.add(t0);
    t0 = Clock::now();
    for (const sim::NodeId v : receivers) {
      nodes[v].on_hello_receive(hello, t + kPropagation);
    }
    costs.hello_receive.add(t0, receivers.size());
    const bool split_first = refreshes++ % 2 == 0;
    std::pair<Span, Span> split;
    if (split_first) split = assemble_and_select(nodes[u].store());
    const std::uint64_t recomputes =
        replay_obs.counters.total(Counter::kTopologyRecomputes);
    t0 = Clock::now();
    nodes[u].refresh_selection(t);
    Span refresh;
    refresh.add(t0);
    if (replay_obs.counters.total(Counter::kTopologyRecomputes) != recomputes) {
      if (!split_first) split = assemble_and_select(nodes[u].store());
      refresh.ns -= split.first.ns + split.second.ns;
      costs.own_assembly.ns += split.first.ns;
      costs.own_select.ns += split.second.ns;
      ++costs.own_assembly.calls;
      ++costs.own_select.calls;
      costs.degree_sum += static_cast<double>(view.neighbor_count());
    }
    costs.refresh_self.ns += refresh.ns;
    ++costs.refresh_self.calls;
  }

  // Selection by every paper protocol on a sample of the filled stores,
  // each view built with that protocol's own cost model.
  const std::size_t sample = std::min<std::size_t>(n, smoke ? 50 : 200);
  const std::size_t stride = n / sample;
  for (const char* name : kPaperProtocols) {
    const topology::ProtocolSuite paper = topology::make_protocol(name);
    Span& select = costs.select[name];
    for (std::size_t i = 0; i < sample; ++i) {
      core::build_latest_view(nodes[i * stride].store(), cfg.normal_range,
                              *paper.cost, scratch, view);
      t0 = Clock::now();
      paper.protocol->select(view, chosen);
      select.add(t0);
    }
  }

  // Snapshots of the fleet during the last Hello interval.
  metrics::SnapshotScratch snapshot_scratch;
  std::vector<geom::Vec2> positions;
  const int snapshots = smoke ? 2 : 4;
  for (int i = 0; i < snapshots; ++i) {
    const double t = hellos.back().first -
                     cfg.hello_interval * i / static_cast<double>(snapshots);
    medium.positions(t, positions);
    t0 = Clock::now();
    const metrics::SnapshotStats stats = metrics::measure_snapshot(
        nodes, positions, snapshot_scratch,
        {.grid_min_nodes = cfg.medium_grid_min_nodes});
    costs.snapshot.add(t0);
    if (!std::isfinite(stats.mean_range)) throw std::runtime_error("snapshot");
  }

  // Event queue configured and pre-sized as runner configures the
  // simulator's (calendar backend, the bucket-width hint of batched
  // delivery: two entries per node per Hello interval), holding the run's
  // pre-scheduled flood start/finish and snapshot events, on the Hello time
  // pattern: every popped beacon pushes its fan-out one propagation delay
  // later and the node's next beacon. Flood forwarding and view-expiry
  // events are not replayed.
  sim::EventQueue queue;
  const double width = cfg.hello_interval * sim::EventQueue::kTargetOccupancy /
                       (2.0 * static_cast<double>(n));
  queue.configure({.backend = sim::QueueBackend::kCalendar,
                   .bucket_width = std::clamp(
                       width, 1e-6, std::max(1e-6, cfg.hello_interval / 16.0))});
  queue.reserve(2 * n +
                static_cast<std::size_t>(2.0 * cfg.duration *
                                         (2.0 * cfg.flood_rate + cfg.snapshot_rate)) +
                64);
  constexpr std::uint32_t kBeacon = 0, kFanout = 1, kPreScheduled = 2;
  std::uint64_t sequence = 0;
  for (std::size_t u = 0; u < n; ++u) {
    queue.push({offset[u], sequence++, static_cast<std::uint32_t>(u), kBeacon});
  }
  for (double t = cfg.warmup;
       cfg.flood_rate > 0.0 && t <= cfg.duration - cfg.flood_settle;
       t += 1.0 / cfg.flood_rate) {
    queue.push({t, sequence++, 0, kPreScheduled});
    queue.push({t + cfg.flood_settle, sequence++, 0, kPreScheduled});
  }
  for (double t = cfg.warmup; cfg.snapshot_rate > 0.0 && t <= cfg.duration;
       t += 1.0 / cfg.snapshot_rate) {
    queue.push({t, sequence++, 0, kPreScheduled});
  }
  const std::uint64_t events = std::max<std::uint64_t>(smoke ? 20000 : 200000,
                                                        20 * n);
  t0 = Clock::now();
  for (std::uint64_t e = 0; e < events; ++e) {
    const sim::EventKey event = queue.pop();
    if (event.key == kBeacon) {
      queue.push({event.time + kPropagation, sequence++, event.slot, kFanout});
      queue.push(
          {event.time + interval[event.slot], sequence++, event.slot, kBeacon});
    }
  }
  costs.queue.add(t0, events);
  return costs;
}

// --- reporting ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_string(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

void print_result(const Checker& checker, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += checker.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(checker.attempted);
  line += ", \"failed\": " + std::to_string(checker.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string digests;
  std::string git_describe = "unknown";
  std::optional<std::uint64_t> expect_digest;  ///< replaces every reference
  std::optional<double> duration;  ///< replaces every config's duration
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--digests") {
      o.digests = value;
    } else if (flag == "--git-describe") {
      o.git_describe = value;
    } else if (flag == "--expect-digest") {
      o.expect_digest = std::stoull(value, nullptr, 16);
    } else if (flag == "--duration") {
      o.duration = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int run(const Options& o) {
  const std::size_t cpus = available_cpus();
  Workload w;
  if (o.workload == "paper_sweep") {
    w = paper_sweep(o.seed, o.smoke);
  } else if (o.workload == "fleet_serial") {
    w = fleet(o.seed, o.smoke, 1);
  } else if (o.workload == "fleet_sharded") {
    w = fleet(o.seed, o.smoke, std::max<std::size_t>(2, cpus));
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  if (o.duration.has_value()) {
    for (auto& cfg : w.configs) cfg.duration = *o.duration;
  }
  // parallel_for runs chunks on the calling thread too, so nproc - 1 pool
  // threads give nproc workers (a 1-thread pool runs everything inline).
  const std::size_t pool_threads = cpus >= 3 ? cpus - 1 : 2;
  const std::size_t workers = pool_threads + 1;
  util::ThreadPool pool(w.batch ? pool_threads : 1);
  const bool sharded = w.configs.front().shards > 1;
  const std::size_t shards_effective =
      runner::resolved_shard_count(w.configs.front());
  // CPU budget of one replication: the sharded kernel drains on the global
  // pool plus the calling thread, capped by the CPUs available.
  const std::size_t threads_per_replication =
      sharded ? std::min(cpus, util::global_pool().thread_count() + 1) : 1;

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string labels;
  const auto label = [&labels](const char* text) {
    labels += std::string(labels.empty() ? "" : ", ") + "\"" + text + "\"";
  };
  if (build_type != "Release") label("non-release-build");
  if (o.git_describe.ends_with("-dirty")) label("dirty-tree");
  if (o.git_describe == "unknown") label("not-a-git-checkout");
  if (o.smoke) label("smoke");
  if (o.duration.has_value()) label("duration-override");
  std::printf(
      "{\"fingerprint\": {\"workload\": %s, \"seed\": %llu, \"cpu_model\": %s, "
      "\"nproc\": %zu, \"compiler\": %s, \"cxx_flags\": %s, \"build_type\": "
      "%s, \"git_describe\": %s, \"pool_workers_requested\": %zu, "
      "\"pool_workers_effective\": %zu, \"shards_requested\": %zu, "
      "\"shards_effective\": %zu, \"shard_pool_threads\": %zu, \"labels\": "
      "[%s]}}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(o.seed),
      json_string(cpu_model()).c_str(), cpus,
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(), json_string(build_type).c_str(),
      json_string(o.git_describe).c_str(), w.batch ? cpus : 1,
      w.batch ? workers : 1, w.configs.front().shards, shards_effective,
      sharded ? util::global_pool().thread_count() : 0, labels.c_str());

  Checker checker;
  if (o.expect_digest.has_value()) {
    checker.reference.assign(w.replications(), *o.expect_digest);
  } else if (!o.smoke && !o.duration.has_value()) {
    checker.reference = load_reference(o.digests, w.reference_name, o.seed);
  }
  // Untimed warm-up round (checked like the rest): first-touch page faults
  // and allocator growth otherwise land on whichever round runs first. On
  // fleet_sharded it is the serial kernel's run of the same scenario, whose
  // result every sharded round must reproduce (the byte-identity contract).
  if (sharded) {
    Workload serial = w;
    serial.configs.front().shards = 1;
    checker.check(w, {runner::run_scenario(serial.configs.front())});
  } else {
    checker.check(w, untraced_round(w, pool).stats);
  }

  std::vector<Metric> metrics;
  const Clock::time_point budget_start = Clock::now();
  // At least three timed rounds, so that their median shrugs off one round
  // slowed by the host (the sharded kernel stalls at every barrier while
  // one of its vCPUs is descheduled).
  const auto min_rounds = static_cast<std::size_t>(o.smoke ? 1 : 3);
  std::vector<double> round_walls, untraced_walls;
  if (!o.trace) {
    // Set-up samples are taken in small groups after every round, so their
    // median spans the same stretch of machine time as the rounds'.
    const std::size_t setup_threads = w.batch   ? pool_threads
                                      : sharded ? util::global_pool().thread_count()
                                                : 0;
    std::vector<double> setups;
    std::vector<double> walls, cpus_s, rates;
    while (walls.size() < min_rounds || seconds_since(budget_start) < o.seconds) {
      const Round round = untraced_round(w, pool);
      checker.check(w, round.stats);
      walls.push_back(round.wall_s);
      cpus_s.push_back(round.cpu_s);
      rates.push_back(node_seconds(w) / round.wall_s);
      for (int i = 0; i < 5; ++i) {
        setups.push_back(setup_sample(w, setup_threads, setups.size() + 1));
      }
    }
    round_walls = walls;
    metrics = {
        {"wall_s", median(walls), "s"},
        {"node_sim_s_per_s", median(rates), "node-s/s"},
        {"cpu_s", median(cpus_s), "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb",
         static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0), "MiB"},
        {"ok_share",
         1.0 - ratio(static_cast<double>(checker.failed),
                     static_cast<double>(checker.attempted)),
         "share"},
    };
  } else {
    // Alternate untraced and traced rounds for the overhead estimate; the
    // first traced round also supplies the spans and counters.
    std::vector<double> traced_walls;
    std::optional<TracedRound> traced;
    while (traced_walls.size() < min_rounds - (o.smoke ? 0 : 1) ||
           seconds_since(budget_start) < 0.5 * o.seconds) {
      const Round round = untraced_round(w, pool);
      checker.check(w, round.stats);
      untraced_walls.push_back(round.wall_s);
      TracedRound t = traced_round(w, pool, false);
      checker.check(w, t.stats);
      traced_walls.push_back(t.wall_s);
      if (!traced) traced = std::move(t);
    }
    round_walls = traced_walls;
    const TracedRound profiled = traced_round(w, pool, true);
    checker.check(w, profiled.stats);

    // Replays run on the workload's own pool, so per-call costs are taken
    // under the same contention as the sweep's.
    std::vector<LayerCosts> costs(w.configs.size());
    const auto replay = [&](std::size_t i) {
      costs[i] = replay_layers(w.configs[i], o.smoke);
    };
    if (w.batch) {
      util::parallel_for(pool, costs.size(), replay);
    } else {
      replay(0);
    }

    // Counter totals and per-layer estimates (calls x self time per call).
    std::uint64_t totals[obs::kCounterCount] = {};
    double est_select = 0, est_assembly = 0, est_refresh = 0, est_receive = 0,
           est_medium = 0, est_queue = 0, est_snapshot = 0, est_trace = 0;
    double thread_time = 0.0;
    for (std::size_t task = 0; task < w.replications(); ++task) {
      const obs::CounterRegistry& c = traced->observations[task].counters;
      for (std::size_t k = 0; k < obs::kCounterCount; ++k) {
        totals[k] += c.total(static_cast<Counter>(k));
      }
      const auto count = [&c](Counter counter) {
        return static_cast<double>(c.total(counter));
      };
      const LayerCosts& lc = costs[task / w.repeats];
      const double recomputes = count(Counter::kTopologyRecomputes);
      est_select += recomputes * lc.own_select.per_call();
      est_assembly += recomputes * lc.own_assembly.per_call();
      est_refresh += count(Counter::kViewSyncs) * lc.refresh_self.per_call();
      est_receive += count(Counter::kHelloRx) * lc.hello_receive.per_call();
      est_medium += (count(Counter::kHelloTx) + count(Counter::kBroadcastForwards) +
                     count(Counter::kSyncFloodForwards)) *
                    lc.medium.per_call();
      est_queue += count(Counter::kSimEventsScheduled) * lc.queue.per_call();
      est_snapshot += count(Counter::kSnapshots) * lc.snapshot.per_call();
      est_trace += count(Counter::kTraceCacheMisses) * lc.trace_gen.per_call();
      thread_time += traced->replication_s[task] *
                     static_cast<double>(threads_per_replication);
    }
    const auto total = [&totals](Counter counter) {
      return static_cast<double>(totals[static_cast<std::size_t>(counter)]);
    };
    const double attributed_ns = est_select + est_assembly + est_refresh +
                                 est_receive + est_medium + est_queue +
                                 est_snapshot + est_trace;
    const double attributed = ratio(attributed_ns * 1e-9, thread_time);

    // Runner: replication spans and pool occupancy.
    const std::size_t round_workers = w.batch ? workers : 1;
    std::map<std::thread::id, double> last_end;
    double busy = 0.0;
    for (std::size_t task = 0; task < w.replications(); ++task) {
      double& end = last_end[traced->worker[task]];
      end = std::max(end, traced->end_s[task]);
      busy += traced->replication_s[task];
    }
    double first_idle = traced->wall_s;
    for (const auto& entry : last_end) first_idle = std::min(first_idle, entry.second);
    if (last_end.size() < round_workers) first_idle = 0.0;

    Span select_all[4], receive, refresh_self, medium, queue, snapshot, trace_gen;
    double degree_sum = 0.0, degree_views = 0.0;
    for (const LayerCosts& lc : costs) {
      for (std::size_t p = 0; p < 4; ++p) {
        select_all[p].ns += lc.select.at(kPaperProtocols[p]).ns;
        select_all[p].calls += lc.select.at(kPaperProtocols[p]).calls;
      }
      for (auto [sum, part] : {std::pair{&receive, &lc.hello_receive},
                               std::pair{&medium, &lc.medium},
                               std::pair{&queue, &lc.queue},
                               std::pair{&snapshot, &lc.snapshot},
                               std::pair{&trace_gen, &lc.trace_gen}}) {
        sum->ns += part->ns;
        sum->calls += part->calls;
      }
      degree_sum += lc.degree_sum;
      degree_views += static_cast<double>(lc.own_assembly.calls);
    }
    const double recomputes = total(Counter::kTopologyRecomputes);
    const double skips = total(Counter::kTopologyRecomputeSkips);
    metrics = {
        {"runner.replication_s_p50", quantile(traced->replication_s, 0.5), "s"},
        {"runner.replication_s_p90", quantile(traced->replication_s, 0.9), "s"},
        {"runner.pool_busy_share",
         ratio(busy, static_cast<double>(round_workers) * traced->wall_s), "share"},
        {"runner.tail_idle_s", traced->wall_s - first_idle, "s"},
        {"topology.select_ns.MST", select_all[0].per_call(), "ns"},
        {"topology.select_ns.RNG", select_all[1].per_call(), "ns"},
        {"topology.select_ns.SPT-4", select_all[2].per_call(), "ns"},
        {"topology.select_ns.SPT-2", select_all[3].per_call(), "ns"},
        {"topology.select_calls", recomputes, "count"},
        {"core.hello_receive_ns", receive.per_call(), "ns"},
        {"core.view_assembly_ns", ratio(est_assembly, recomputes), "ns"},
        {"core.refresh_ns", ratio(est_refresh, total(Counter::kViewSyncs)), "ns"},
        {"core.view_degree_mean", ratio(degree_sum, degree_views), "count"},
        {"core.recompute_skip_share", ratio(skips, skips + recomputes), "share"},
        {"sim.medium_query_ns", medium.per_call(), "ns"},
        {"sim.medium_query_calls",
         total(Counter::kHelloTx) + total(Counter::kBroadcastForwards) +
             total(Counter::kSyncFloodForwards),
         "count"},
        {"sim.medium_accept_share",
         ratio(total(Counter::kMediumCandidatesAccepted),
               total(Counter::kMediumCandidates)),
         "share"},
        {"sim.queue_ns_per_event", queue.per_call(), "ns"},
        {"sim.events", total(Counter::kSimEventsScheduled), "count"},
        {"sim.kernel_barriers", total(Counter::kKernelBarriers), "count"},
        {"sim.cross_shard_share",
         ratio(total(Counter::kKernelCrossShardEvents),
               total(Counter::kSimEventsScheduled)),
         "share"},
        {"metrics.snapshot_ms", snapshot.per_call() * 1e-6, "ms"},
        {"metrics.snapshot_links_examined", total(Counter::kSnapshotLinksExamined),
         "count"},
        {"mobility.trace_gen_s", trace_gen.per_call() * 1e-9, "s"},
        {"mobility.trace_cache_hit_share",
         ratio(total(Counter::kTraceCacheHits),
               total(Counter::kTraceCacheHits) + total(Counter::kTraceCacheMisses)),
         "share"},
        {"attributed_share", attributed, "share"},
        {"other_share", 1.0 - attributed, "share"},
        {"trace_overhead_share",
         ratio(median(traced_walls), median(untraced_walls)) - 1.0, "share"},
    };

    // The in-program profiler on the same config and seed, next to the
    // outside estimates. Its categories nest (select inside assembly,
    // medium queries inside the phase that issued them), and it times
    // assembly, select and delivery on the serial path only.
    obs::Profiler merged;
    for (const auto& slot : profiled.observations) merged.merge(slot.profiler);
    const auto prof_s = [&merged](obs::Category category) {
      return static_cast<double>(merged.nanos(category)) * 1e-9;
    };
    std::printf(
        "{\"crosscheck\": {\"nested\": true, \"profiler_serial_path_only\": %s, "
        "\"profiler_s\": {\"protocol_select\": %s, "
        "\"view_assembly_minus_select\": %s, \"medium_query\": %s, "
        "\"delivery\": %s}, \"outside_s\": {\"protocol_select\": %s, "
        "\"view_assembly_minus_select\": %s, \"medium_query\": %s, "
        "\"delivery\": %s}}}\n",
        sharded ? "true" : "false",
        number(prof_s(obs::Category::kProtocolSelect)).c_str(),
        number(prof_s(obs::Category::kViewAssembly) -
               prof_s(obs::Category::kProtocolSelect))
            .c_str(),
        number(prof_s(obs::Category::kMediumQuery)).c_str(),
        number(prof_s(obs::Category::kDelivery)).c_str(),
        number(est_select * 1e-9).c_str(),
        number((est_assembly + est_refresh) * 1e-9).c_str(),
        number(est_medium * 1e-9).c_str(), number(est_receive * 1e-9).c_str());
  }

  const auto digest_line = [&](const std::vector<std::uint64_t>& digests) {
    std::string line = w.reference_name;
    line += ' ';
    line += std::to_string(o.seed);
    for (const std::uint64_t d : digests) (line += ' ') += hex(d);
    return json_string(line);
  };
  std::string walls;
  for (const double s : round_walls) walls += (walls.empty() ? "" : ", ") + number(s);
  std::string untraced;
  for (const double s : untraced_walls) {
    untraced += (untraced.empty() ? "" : ", ") + number(s);
  }
  std::printf("{\"detail\": {\"reference_checked\": %s, \"round_wall_s\": [%s], "
              "\"untraced_round_wall_s\": [%s], \"digests\": %s, "
              "\"last_round_digests\": %s}}\n",
              checker.reference.empty() ? "false" : "true", walls.c_str(),
              untraced.c_str(), digest_line(checker.first).c_str(),
              digest_line(checker.last).c_str());
  print_result(checker, metrics);
  std::fflush(stdout);
  return checker.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
