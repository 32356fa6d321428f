#include "runner/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/effective.hpp"
#include "mac/channel.hpp"
#include "metrics/snapshot.hpp"
#include "mobility/models.hpp"
#include "mobility/trace_cache.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"
#include "topology/protocol.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace mstc::runner {

namespace {

using core::NodeId;

constexpr double kPropagationDelay = 1e-5;   // seconds
constexpr double kMinForwardBackoff = 5e-4;  // seconds
constexpr double kMaxForwardBackoff = 2e-3;  // seconds
constexpr double kReactiveDecisionWait = 0.1;  // seconds after sync flood
constexpr double kProactiveSkewFraction = 0.1;
constexpr std::size_t kHelloBits = 512;   // ~64-byte beacon
constexpr std::size_t kDataBits = 2048;   // ~256-byte data packet
constexpr std::size_t kSyncBits = 320;    // ~40-byte initiation frame

std::unique_ptr<mobility::MobilityModel> make_mobility(
    const ScenarioConfig& cfg) {
  if (cfg.mobility_model == "static") {
    return std::make_unique<mobility::StaticModel>(cfg.area);
  }
  if (cfg.mobility_model == "waypoint") {
    return mobility::make_paper_waypoint(cfg.area, cfg.average_speed);
  }
  if (cfg.mobility_model == "walk") {
    return std::make_unique<mobility::RandomWalk>(cfg.area, cfg.average_speed,
                                                  5.0);
  }
  if (cfg.mobility_model == "gauss") {
    return std::make_unique<mobility::GaussMarkov>(cfg.area,
                                                   cfg.average_speed, 0.8);
  }
  throw std::invalid_argument("unknown mobility model: " + cfg.mobility_model);
}

/// Obtains the replication's immutable trace set — from the process-wide
/// TraceCache when enabled (sweep points differing only in protocol /
/// mode / buffer share one set), generated privately otherwise.
/// Generation is pure in (mobility inputs, derived seed), so the two
/// sources are bit-identical and trace_cache = false costs wall clock only.
std::shared_ptr<const mobility::TraceSet> acquire_traces(
    const ScenarioConfig& cfg, const obs::Probe& probe) {
  const obs::ScopedTimer timer(probe.profiler(), obs::Category::kTraceGen);
  const std::uint64_t seed = util::derive_seed(cfg.seed, 0xA11CE);
  const auto generate = [&cfg, seed] {
    return mobility::generate_traces(*make_mobility(cfg), cfg.node_count,
                                     cfg.duration, seed);
  };
  if (!cfg.trace_cache) {
    probe.count(obs::Counter::kTraceCacheMisses);
    return std::make_shared<const mobility::TraceSet>(generate());
  }
  const mobility::TraceKey key{cfg.mobility_model, cfg.area.width,
                               cfg.area.height,    cfg.average_speed,
                               cfg.node_count,     cfg.duration,
                               seed};
  bool generated = false;
  auto traces = mobility::TraceCache::global().get(key, generate, &generated);
  probe.count(generated ? obs::Counter::kTraceCacheMisses
                        : obs::Counter::kTraceCacheHits);
  return traces;
}

/// Narrows a NodeId to the kernel's 31-bit event-key domain; fleet sizes
/// are bounded far below it.
std::uint32_t key_of(NodeId u) { return static_cast<std::uint32_t>(u); }

/// Width of one spatial-grid cell column; shard strips align to these so a
/// shard boundary is always a grid-cell boundary.
double shard_cell_width(const ScenarioConfig& cfg) { return cfg.normal_range; }

std::size_t shard_columns(const ScenarioConfig& cfg) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(cfg.area.width / shard_cell_width(cfg))));
}

/// Resolves the shard count actually used for this replication. Serial
/// fallbacks: the csma MAC (its channel draws RNG per delivery, so
/// deliveries must stay in the global serial order); event tracing / flight
/// recording (their sinks record the global order). The count is clamped to
/// the fleet size and to the number of grid-cell columns (a strip narrower
/// than one cell cannot be cut).
std::uint32_t effective_shards(const ScenarioConfig& cfg,
                               const obs::RunObservation* observation) {
  if (cfg.shards <= 1) return 1;
  if (cfg.mac == "csma") return 1;
  if (observation != nullptr &&
      (observation->trace_on || observation->flight_on)) {
    return 1;
  }
  const std::size_t clamped = std::max<std::size_t>(
      1, std::min({cfg.shards, cfg.node_count, shard_columns(cfg)}));
  return static_cast<std::uint32_t>(clamped);
}

/// Resolves the event-queue backend and its bucket-width hint; unknown
/// backend names are a configuration error.
sim::QueueConfig resolve_queue(const ScenarioConfig& cfg) {
  const std::optional<sim::QueueBackend> backend =
      sim::parse_queue_backend(cfg.queue);
  if (!backend.has_value()) {
    throw std::invalid_argument("unknown event queue backend: " + cfg.queue);
  }
  sim::QueueConfig queue;
  queue.backend = *backend;
  if (queue.backend == sim::QueueBackend::kCalendar) {
    // Bucket-width hint from the scenario's timing shape: the event stream
    // is dominated by the Hello fan-out, one send + one fan-out entry per
    // node per interval. Width targets kTargetOccupancy events per bucket;
    // the queue's occupancy self-resize corrects any drift (floods, MAC
    // retries, expiry sweeps). The hint shapes wall clock only — event
    // order is identical whatever the width.
    const double per_interval = 2.0 * static_cast<double>(cfg.node_count);
    if (per_interval > 0.0 && cfg.hello_interval > 0.0) {
      const double cap = std::max(1e-6, cfg.hello_interval / 16.0);
      queue.bucket_width = std::clamp(
          cfg.hello_interval * sim::EventQueue::kTargetOccupancy /
              per_interval,
          1e-6, cap);
    }
  }
  return queue;
}

class Scenario {
 public:
  Scenario(const ScenarioConfig& cfg, obs::RunObservation* observation)
      : cfg_(cfg),
        observation_(observation),
        probe_(observation),
        traces_(acquire_traces(cfg, probe_)),
        medium_(*traces_,
                {.propagation_delay = kPropagationDelay,
                 .grid_min_nodes = cfg.medium_grid_min_nodes}),
        suite_(topology::make_protocol(cfg.protocol)),
        beacon_rng_(util::derive_seed(cfg.seed, 0xBEAC0)),
        traffic_rng_(util::derive_seed(cfg.seed, 0x7AFF1C)),
        loss_rng_(util::derive_seed(cfg.seed, 0x105535)),
        backoff_rng_(util::derive_seed(cfg.seed, 0xBACC0FF)) {
    core::ControllerConfig controller_config;
    controller_config.normal_range = cfg.normal_range;
    controller_config.mode = cfg.mode;
    controller_config.history_limit = cfg.effective_history();
    controller_config.view_expiry = 2.5 * cfg.hello_interval;
    controller_config.buffer.width = cfg.buffer_width;
    if (cfg.adaptive_buffer) {
      controller_config.buffer.adaptive = true;
      // Speed bound of the paper's waypoint config: 1.5 * average speed.
      controller_config.buffer.max_speed = 1.5 * cfg.average_speed;
      controller_config.buffer.delay_bound = core::delay_bound(
          cfg.mode, 1.25 * cfg.hello_interval, controller_config.history_limit);
    }
    controller_config.accept_physical_neighbors = cfg.physical_neighbors;
    controller_config.recompute_cache = cfg.recompute_cache;
    controller_config.recompute_cache_min_skip_rate =
        cfg.recompute_cache_min_skip_rate;

    nodes_.reserve(cfg.node_count);
    for (NodeId u = 0; u < cfg.node_count; ++u) {
      nodes_.emplace_back(u, *suite_.protocol, *suite_.cost,
                          controller_config);
    }
    for (auto& node : nodes_) node.attach_probe(&probe_);
    medium_.set_probe(&probe_);
    simulator_.set_probe(&probe_);
    configure_sharding(cfg, observation);
    simulator_.configure_queue(resolve_queue(cfg));
    // Size the event kernel for the whole run up front: per-node beacon
    // chains plus the pre-scheduled flood and snapshot events (x2 covers
    // per-hop forwarding churn and MAC retries).
    simulator_.reserve_events(
        2 * cfg.node_count +
        2 * static_cast<std::size_t>(
                cfg.duration * (2.0 * cfg.flood_rate + cfg.snapshot_rate)) +
        64);
    last_hello_version_.assign(cfg.node_count, 0);

    if (cfg.mac == "csma") {
      channel_ = std::make_unique<mac::ContentionChannel>(
          simulator_, medium_, mac::ContentionChannel::Config{},
          util::derive_seed(cfg.seed, 0x3AC));
    } else if (cfg.mac != "ideal") {
      throw std::invalid_argument("unknown MAC: " + cfg.mac);
    }
  }

  metrics::RunStats run() {
    schedule_beaconing();
    schedule_floods();
    schedule_snapshots();
    const std::uint64_t wall_start =
        probe_.profiler() != nullptr ? obs::wall_now_ns() : 0;
    simulator_.run_until(cfg_.duration);
    if (obs::Profiler* profiler = probe_.profiler()) {
      profiler->add_run(obs::wall_now_ns() - wall_start,
                        simulator_.processed_events());
    }
    // Fold the per-shard counter registries back into the run's registry
    // (fixed shard order; merge is additive, so the totals are identical
    // to what a serial run counts directly).
    if (observation_ != nullptr) {
      for (const obs::RunObservation& shard : shard_obs_) {
        observation_->counters.merge(shard.counters);
      }
    }
    metrics::RunStats stats;
    stats.delivery_ratio = delivery_.mean();
    stats.strict_connectivity = strict_.mean();
    stats.mean_range = range_.mean();
    stats.mean_logical_degree = logical_degree_.mean();
    stats.mean_physical_degree = physical_degree_.mean();
    stats.control_tx_rate =
        static_cast<double>(control_transmissions_) /
        (static_cast<double>(nodes_.size()) * cfg_.duration);
    if (channel_) {
      const double total = static_cast<double>(channel_->receptions() +
                                               channel_->collisions());
      stats.mac_collision_fraction =
          total > 0.0 ? static_cast<double>(channel_->collisions()) / total
                      : 0.0;
    }
    return stats;
  }

 private:
  // --- sharded kernel --------------------------------------------------

  /// Resolves the shard count and, when parallel, builds the per-shard
  /// protocol suites / counter registries and installs the kernel's
  /// ShardPlan. Serial resolutions leave the kernel untouched.
  void configure_sharding(const ScenarioConfig& cfg,
                          obs::RunObservation* observation) {
    shards_ = effective_shards(cfg, observation);
    sharded_ = shards_ > 1;
    if (!sharded_) return;
    // Each shard gets its own protocol/cost instances because
    // Protocol::select uses per-instance mutable scratch; remap_shards
    // rebinds every controller to its owner shard's instances.
    shard_suites_.reserve(shards_);
    for (std::uint32_t s = 0; s < shards_; ++s) {
      shard_suites_.push_back(topology::make_protocol(cfg.protocol));
    }
    shard_probes_.assign(shards_, obs::Probe{});
    if (observation != nullptr) {
      // Sized once; never resized afterwards (probes point into it).
      shard_obs_ = std::vector<obs::RunObservation>(shards_);
      for (std::uint32_t s = 0; s < shards_; ++s) {
        shard_probes_[s] = obs::Probe(&shard_obs_[s]);
      }
    }
    sim::Simulator::ShardPlan plan;
    plan.shards = shards_;
    // One propagation delay plus a fraction of the Hello period: long
    // enough to batch a full beacon fan-out, short enough that shards
    // rejoin several times per Hello interval. Purely a batching bound —
    // conflicting serial events force their own exact barriers.
    plan.lookahead = kPropagationDelay + 0.25 * cfg.hello_interval;
    // Remap ownership before a border node can cross a whole strip:
    // strip_width / (2 * vmax) seconds, floored at one Hello interval so
    // static-ish fleets do not remap pointlessly. Zero top speed means
    // ownership never goes stale — no epochs at all.
    const double vmax =
        cfg.mobility_model == "static" ? 0.0 : 1.5 * cfg.average_speed;
    plan.epoch_interval =
        vmax > 0.0 ? std::max(cfg.hello_interval,
                              cfg.area.width /
                                  (2.0 * vmax * static_cast<double>(shards_)))
                   : 0.0;
    plan.pool = &util::global_pool();
    plan.remap = [this](double t, std::vector<std::uint32_t>& owner) {
      remap_shards(t, owner);
    };
    simulator_.configure_sharding(std::move(plan));
  }

  /// Ownership map: x-axis strips aligned to spatial-grid cell columns,
  /// balanced over shards. Also rebinds each controller to its shard's
  /// protocol suite and counter registry (pure aliasing — see
  /// NodeController::rebind).
  void remap_shards(double now, std::vector<std::uint32_t>& owner) {
    medium_.positions(now, position_buffer_);
    owner.resize(nodes_.size());
    const std::size_t columns = shard_columns(cfg_);
    const double cell = shard_cell_width(cfg_);
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      const double column = std::clamp(
          std::floor(position_buffer_[u].x / cell), 0.0,
          static_cast<double>(columns - 1));
      const auto shard = static_cast<std::uint32_t>(
          static_cast<std::size_t>(column) * shards_ / columns);
      owner[u] = shard;
      nodes_[u].rebind(*shard_suites_[shard].protocol,
                       *shard_suites_[shard].cost);
      nodes_[u].attach_probe(&shard_probes_[shard]);
    }
  }

  // --- beaconing -----------------------------------------------------

  void schedule_beaconing() {
    switch (cfg_.mode) {
      case core::ConsistencyMode::kLatest:
      case core::ConsistencyMode::kViewSync:
      case core::ConsistencyMode::kWeak:
        for (NodeId u = 0; u < nodes_.size(); ++u) {
          const double interval =
              cfg_.hello_interval *
              (1.0 + cfg_.hello_jitter * beacon_rng_.uniform(-1.0, 1.0));
          async_interval_.push_back(interval);
          simulator_.schedule_serial(beacon_rng_.uniform(0.0, interval), key_of(u),
                                     [this, u] { async_hello(u); });
        }
        break;
      case core::ConsistencyMode::kProactive:
        for (NodeId u = 0; u < nodes_.size(); ++u) {
          proactive_skew_.push_back(beacon_rng_.uniform(
              0.0, kProactiveSkewFraction * cfg_.hello_interval));
        }
        schedule_proactive_round(0);
        break;
      case core::ConsistencyMode::kReactive:
        sync_round_seen_.assign(nodes_.size(), 0);
        schedule_reactive_round(1);  // round numbers start at 1 (0 = unseen)
        break;
    }
  }

  void async_hello(NodeId u) {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kBeaconing);
    const double now = simulator_.now();
    const std::uint64_t version = ++last_hello_version_[u];
    broadcast_hello(u, version, now);
    if (now + async_interval_[u] <= cfg_.duration) {
      simulator_.schedule_serial(now + async_interval_[u], key_of(u),
                                 [this, u] { async_hello(u); });
    }
  }

  void schedule_proactive_round(std::uint64_t round) {
    const double base = static_cast<double>(round) * cfg_.hello_interval;
    if (base > cfg_.duration) return;
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      simulator_.schedule_serial(base + proactive_skew_[u], key_of(u),
                                 [this, u, round] {
        const obs::ScopedTimer timer(probe_.profiler(),
                                     obs::Category::kBeaconing);
        last_hello_version_[u] = round;
        broadcast_hello(u, round, simulator_.now());
      });
    }
    simulator_.schedule_at(base, [this, round] {
      schedule_proactive_round(round + 1);
    });
  }

  void schedule_reactive_round(std::uint64_t round) {
    const double start = static_cast<double>(round - 1) * cfg_.hello_interval;
    if (start > cfg_.duration) return;
    // The initiator (node 0) starts the synchronization flood; every node
    // sends its Hello on first contact with the round, then decides after
    // a bounded wait.
    simulator_.schedule_serial(start, 0, [this, round] {
      sync_contact(0, round);
    });
    simulator_.schedule_at(start + kReactiveDecisionWait, [this, round] {
      const obs::ScopedTimer timer(probe_.profiler(),
                                   obs::Category::kSyncFlood);
      for (auto& node : nodes_) {
        node.refresh_selection_versioned(simulator_.now(), round);
      }
    });
    simulator_.schedule_at(start, [this, round] {
      schedule_reactive_round(round + 1);
    });
  }

  void sync_contact(NodeId u, std::uint64_t round) {
    if (sync_round_seen_[u] >= round) return;
    const obs::ScopedTimer timer(probe_.profiler(),
                                 obs::Category::kSyncFlood);
    sync_round_seen_[u] = round;
    const double now = simulator_.now();
    last_hello_version_[u] = round;
    broadcast_hello(u, round, now);
    ++control_transmissions_;  // the separate initiation forward
    probe_.count_node(obs::Counter::kSyncFloodForwards, u);
    probe_.trace(obs::EventKind::kSyncContact, now, u, 0.0, round);
    // Forward the initiation (flooding: every node forwards once).
    if (channel_) {
      channel_->transmit(u, cfg_.normal_range, kSyncBits,
                         [this, round](NodeId v) { sync_contact(v, round); });
      return;
    }
    medium_.receivers(u, cfg_.normal_range, now, receiver_buffer_);
    // Each forward draws its own randomized backoff, so the per-receiver
    // delivery times genuinely differ — a shared fan-out event cannot
    // carry per-receiver timestamps.
    // mstc-lint: allow(per-receiver-schedule)
    for (NodeId v : receiver_buffer_) {
      const double delay = kPropagationDelay +
                           backoff_rng_.uniform(kMinForwardBackoff,
                                                kMaxForwardBackoff);
      simulator_.schedule_serial(now + delay, key_of(v), [this, v, round] {
        sync_contact(v, round);
      });
    }
  }

  // mstc:hot — one call per Hello; under sharding its deliveries and the
  // sender's refresh become node-local (deferred, shard-parallel) events
  void broadcast_hello(NodeId u, std::uint64_t version, double now) {
    ++control_transmissions_;
    // Sharded: send with the record-only half and defer the (expensive)
    // selection refresh to a node-local event at the same instant — the
    // Hello payload never depends on the refresh, and a same-time local
    // event keyed to u runs before anything that can observe u again, so
    // the outcome is byte-identical to the fused on_hello_send.
    const core::HelloRecord hello =
        sharded_
            ? nodes_[u].on_hello_send_record(now, medium_.position(u, now),
                                             version)
            : nodes_[u].on_hello_send(now, medium_.position(u, now), version);
    if (sharded_ && cfg_.mode != core::ConsistencyMode::kReactive) {
      simulator_.schedule_local(now, key_of(u), [this, u, version, now] {
        nodes_[u].post_send_refresh(now, version);
      });
    }
    if (channel_) {
      channel_->transmit(u, cfg_.normal_range, kHelloBits,
                         [this, hello](NodeId v) {
                           if (drop_by_loss_injection(v)) return;
                           nodes_[v].on_hello_receive(hello,
                                                      simulator_.now());
                         });
      return;
    }
    medium_.receivers(u, cfg_.normal_range, now, receiver_buffer_);
    // Capturing the delivery time at schedule time is bit-identical to
    // reading now() at execution (schedule_in computes the same sum), and
    // lets the handler run off the driving thread.
    const double at = now + kPropagationDelay;
    // Loss injection is applied here, in ascending receiver order; the
    // surviving set then schedules as ONE fan-out event whose pre-assigned
    // sequence span reproduces a per-receiver schedule_local loop's
    // (time, sequence) keys byte-for-byte (tests/sim/fanout_test.cpp).
    fanout_receivers_.clear();
    for (NodeId v : receiver_buffer_) {
      if (drop_by_loss_injection(v)) continue;
      fanout_receivers_.push_back(key_of(v));
    }
    auto deliver = [this, hello, at](std::uint32_t v) {
      nodes_[v].on_hello_receive(hello, at);
    };
    // The hot-path closure: ONE per Hello (not per receiver). It is shared
    // across deliveries — and across shards under the parallel drain — so
    // it must not mutate its captures; on_hello_receive touches only the
    // receiving node's state.
    static_assert(sim::FanoutHandler::fits_inline<decltype(deliver)>);
    simulator_.schedule_fanout(at, fanout_receivers_, std::move(deliver));
  }

  /// Independent per-reception Hello loss (failure injection).
  [[nodiscard]] bool drop_by_loss_injection(NodeId receiver) {
    const bool dropped =
        cfg_.hello_loss > 0.0 && loss_rng_.bernoulli(cfg_.hello_loss);
    if (dropped) {
      probe_.count_node(obs::Counter::kHelloLossDrops, receiver);
    }
    return dropped;
  }

  // --- flooding workload ----------------------------------------------

  struct Flood {
    std::vector<char> received;
    std::size_t count = 0;
    std::uint64_t pinned_version = 0;  // proactive routing timestamp
  };

  void schedule_floods() {
    if (cfg_.flood_rate <= 0.0) return;
    const double last_start = cfg_.duration - cfg_.flood_settle;
    double t = cfg_.warmup;
    std::size_t index = 0;
    while (t <= last_start) {
      simulator_.schedule_at(t, [this, index] { start_flood(index); });
      simulator_.schedule_at(t + cfg_.flood_settle,
                             [this, index] { finish_flood(index); });
      t += 1.0 / cfg_.flood_rate;
      ++index;
    }
    floods_.resize(index);
  }

  void start_flood(std::size_t index) {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kDataFlood);
    Flood& flood = floods_[index];
    // Reuse a retired membership vector (finish_flood's free list) so the
    // overlapping-flood steady state allocates nothing.
    if (!flood_pool_.empty()) {
      flood.received = std::move(flood_pool_.back());
      flood_pool_.pop_back();
    }
    flood.received.assign(nodes_.size(), 0);
    const NodeId source = traffic_rng_.uniform_below(nodes_.size());
    flood.received[source] = 1;
    flood.count = 1;
    probe_.trace(obs::EventKind::kFloodStart, simulator_.now(), source, 0.0,
                 index);
    if (cfg_.mode == core::ConsistencyMode::kProactive) {
      // Packets carry the source's latest decidable timestamp.
      flood.pinned_version =
          last_hello_version_[source] > 0 ? last_hello_version_[source] - 1 : 0;
    }
    forward_flood(index, source);
  }

  /// Marks v as having the packet (deduplicated) and lets it forward.
  void deliver_flood(std::size_t index, NodeId sender, NodeId v) {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kDataFlood);
    Flood& flood = floods_[index];
    // Empty => already scored and released; also dedupe deliveries.
    if (flood.received.empty() || flood.received[v]) return;
    // The sender's logical-neighbor list travels in the packet header; a
    // receiver not in it drops the packet (unless PN-enhanced).
    if (!nodes_[v].config().accept_physical_neighbors &&
        !nodes_[sender].is_logical(v)) {
      return;
    }
    flood.received[v] = 1;
    ++flood.count;
    probe_.count_node(obs::Counter::kFloodDeliveries, v);
    probe_.trace(obs::EventKind::kFloodDelivery, simulator_.now(), v, 0.0,
                 index);
    forward_flood(index, v);
  }

  void forward_flood(std::size_t index, NodeId u) {
    const double now = simulator_.now();
    probe_.count_node(obs::Counter::kBroadcastForwards, u);
    Flood& flood = floods_[index];
    // On-the-fly selection updates at every packet transmission:
    if (cfg_.mode == core::ConsistencyMode::kViewSync) {
      nodes_[u].refresh_selection(now);
    } else if (cfg_.mode == core::ConsistencyMode::kProactive) {
      nodes_[u].refresh_selection_versioned(now, flood.pinned_version);
    }
    if (channel_) {
      channel_->transmit(u, nodes_[u].extended_range(), kDataBits,
                         [this, index, u](NodeId v) {
                           deliver_flood(index, u, v);
                         });
      return;
    }
    medium_.receivers(u, nodes_[u].extended_range(), now, receiver_buffer_);
    forward_targets_.clear();
    for (NodeId v : receiver_buffer_) {
      if (!flood.received[v]) forward_targets_.push_back(v);
    }
    // Flood forwards carry per-receiver randomized backoffs (distinct
    // delivery times), so they cannot share one fan-out event.
    // mstc-lint: allow(per-receiver-schedule)
    for (NodeId v : forward_targets_) {
      const double delay = kPropagationDelay +
                           backoff_rng_.uniform(kMinForwardBackoff,
                                                kMaxForwardBackoff);
      simulator_.schedule_in(
          delay, [this, index, u, v] { deliver_flood(index, u, v); });
    }
  }

  void finish_flood(std::size_t index) {
    if (nodes_.size() < 2) return;
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kDataFlood);
    const double others = static_cast<double>(nodes_.size() - 1);
    const double ratio =
        static_cast<double>(floods_[index].count - 1) / others;
    delivery_.add(ratio);
    probe_.observe(obs::Hist::kFloodDeliveryRatio, ratio);
    probe_.trace(obs::EventKind::kFloodScored, simulator_.now(), 0, ratio,
                 index);
    // Park the membership vector on the free list for the next flood;
    // clear() (not shrink_to_fit) leaves this slot in the empty state
    // deliver_flood reads as "already scored and released".
    flood_pool_.push_back(std::move(floods_[index].received));
    floods_[index].received.clear();
  }

  // --- snapshots -------------------------------------------------------

  void schedule_snapshots() {
    if (cfg_.snapshot_rate <= 0.0) return;
    for (double t = cfg_.warmup; t <= cfg_.duration;
         t += 1.0 / cfg_.snapshot_rate) {
      simulator_.schedule_at(t, [this] { take_snapshot(); });
    }
  }

  void take_snapshot() {
    const obs::ScopedTimer timer(probe_.profiler(), obs::Category::kSnapshot);
    medium_.positions(simulator_.now(), position_buffer_);
    // Grid-backed, scratch-reusing measurement; shares the medium's
    // crossover threshold so medium_grid_min_nodes = 0 forces both grids
    // on (and SIZE_MAX both brute scans) in the differential suites.
    const auto stats = metrics::measure_snapshot(
        nodes_, position_buffer_, snapshot_scratch_,
        {.grid_min_nodes = cfg_.medium_grid_min_nodes}, &probe_);
    strict_.add(stats.strict_connectivity);
    range_.add(stats.mean_range);
    logical_degree_.add(stats.mean_logical_degree);
    physical_degree_.add(stats.mean_physical_degree);
    probe_.count(obs::Counter::kSnapshots);
    probe_.observe(obs::Hist::kSnapshotConnectivity,
                   stats.strict_connectivity);
    probe_.trace(obs::EventKind::kSnapshot, simulator_.now(), 0,
                 stats.strict_connectivity, 0);
  }

  // --- state -----------------------------------------------------------

  ScenarioConfig cfg_;
  obs::RunObservation* observation_ = nullptr;
  obs::Probe probe_;
  // Immutable, possibly shared with concurrent replications (TraceCache);
  // must be declared before medium_, which aliases it.
  std::shared_ptr<const mobility::TraceSet> traces_;
  sim::Medium medium_;
  sim::Simulator simulator_;
  topology::ProtocolSuite suite_;
  std::vector<core::NodeController> nodes_;
  std::unique_ptr<mac::ContentionChannel> channel_;  // null under ideal MAC

  // Sharded-kernel state; empty when the replication resolved to serial.
  std::uint32_t shards_ = 1;
  bool sharded_ = false;
  std::vector<topology::ProtocolSuite> shard_suites_;
  std::vector<obs::RunObservation> shard_obs_;  // merged into probe_'s after
  std::vector<obs::Probe> shard_probes_;

  std::vector<double> async_interval_;
  std::vector<double> proactive_skew_;
  std::vector<std::uint64_t> sync_round_seen_;
  std::vector<std::uint64_t> last_hello_version_;
  std::uint64_t control_transmissions_ = 0;

  util::Xoshiro256 beacon_rng_;
  util::Xoshiro256 traffic_rng_;
  util::Xoshiro256 loss_rng_;
  util::Xoshiro256 backoff_rng_;

  std::vector<Flood> floods_;
  std::vector<std::vector<char>> flood_pool_;  // retired `received` vectors
  std::vector<NodeId> receiver_buffer_;
  std::vector<std::uint32_t> fanout_receivers_;  // narrowed Hello fan-out set
  std::vector<NodeId> forward_targets_;
  std::vector<geom::Vec2> position_buffer_;
  metrics::SnapshotScratch snapshot_scratch_;

  util::Summary delivery_;
  util::Summary strict_;
  util::Summary range_;
  util::Summary logical_degree_;
  util::Summary physical_degree_;
};

}  // namespace

metrics::RunStats run_scenario(const ScenarioConfig& config) {
  return run_scenario(config, nullptr);
}

metrics::RunStats run_scenario(const ScenarioConfig& config,
                               obs::RunObservation* observation) {
  const obs::Probe probe(observation);
  std::optional<Scenario> scenario;
  {
    // Trace generation + controller construction dominate startup cost;
    // attribute them separately from the event loop.
    const obs::ScopedTimer timer(probe.profiler(), obs::Category::kSetup);
    scenario.emplace(config, observation);
  }
  return scenario->run();
}

std::uint32_t resolved_shard_count(const ScenarioConfig& config) {
  return effective_shards(config, nullptr);
}

}  // namespace mstc::runner
