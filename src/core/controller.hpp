// Per-node topology-control state machine.
//
// A NodeController owns one node's LocalViewStore, runs the configured
// protocol over the view assembled by the configured consistency mode, and
// exposes the resulting logical neighbor set and (extended) transmission
// range. It is driven by the simulation runner:
//   on_hello_send    -> record own advertised position, then (for periodic
//                       updating modes) refresh the selection
//   on_hello_receive -> record a neighbor's Hello
//   refresh_selection / refresh_selection_versioned -> recompute logical set
#pragma once

#include <vector>

#include "core/buffer_zone.hpp"
#include "core/consistency.hpp"
#include "obs/probe.hpp"
#include "topology/protocol.hpp"

namespace mstc::core {

struct ControllerConfig {
  double normal_range = 250.0;
  ConsistencyMode mode = ConsistencyMode::kLatest;
  /// Stored Hello records per sender (k of Section 4.2; 1 for baselines,
  /// 2-3 for weak consistency, >= 2 for proactive version pinning).
  std::size_t history_limit = 1;
  /// Neighbor expiry: drop nodes not heard from for this long (seconds).
  double view_expiry = 3.0;
  BufferZoneConfig buffer;
  /// Accept data packets from non-logical physical neighbors (the paper's
  /// "physical neighbor" enhancement). Queried by the runner.
  bool accept_physical_neighbors = false;
  /// Skip the protocol run when the selection's exact inputs (member ids
  /// and position bits, post-expiry) match the previous refresh. Sound
  /// because view assembly reads only those inputs and protocols are pure;
  /// skips are counted as topology_recompute_skips. Disable to measure the
  /// uncached path (ScenarioConfig::recompute_cache = false).
  bool recompute_cache = true;
  /// Cache self-bypass for workloads fingerprinting cannot help (mobile
  /// fleets change some position bits on almost every refresh): once a
  /// node has seen kRecomputeCacheWarmup cache probes, every further probe
  /// re-checks the cumulative skip rate, and the first time it sits below
  /// this threshold the controller stops building and comparing
  /// fingerprints for the rest of the run, saving the key-build cost on
  /// guaranteed misses. The decision is one-shot (a bypassed cache stops
  /// probing, so the rate can never recover) but no longer tied to hitting
  /// the warmup count exactly — short runs whose refresh count lands past
  /// the window still disengage. 0 disables the bypass (the cache always
  /// probes). Never changes selections — only whether the shortcut is
  /// attempted.
  double recompute_cache_min_skip_rate = 0.0;
};

/// Minimum cache probes observed before any recompute-cache bypass
/// decision. Hello-paced workloads probe roughly once per simulated
/// second per node, so bench-scale runs (~18 s) only accumulate ~18
/// probes — the floor must sit well inside that budget for the bypass to
/// cover most of the measured window, while still averaging over enough
/// probes that one early skip cannot flip the decision.
inline constexpr std::uint32_t kRecomputeCacheWarmup = 8;

class NodeController {
 public:
  NodeController(NodeId id, const topology::Protocol& protocol,
                 const topology::CostModel& cost, ControllerConfig config);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }

  /// Attaches an observability probe (hello_tx/rx, view_syncs,
  /// topology_recomputes, link_removals, buffer_zone_expansions). The probe
  /// must outlive the controller; null detaches. Counting never feeds back
  /// into decisions, so attaching a probe cannot change the selection.
  void attach_probe(const obs::Probe* probe) noexcept { probe_ = probe; }

  /// Records the position this node is about to advertise and returns the
  /// Hello to broadcast. Also refreshes the logical selection (the paper:
  /// "each node updates its logical neighbor set whenever it sends a
  /// 'Hello' message"). Equivalent to on_hello_send_record followed by
  /// post_send_refresh.
  HelloRecord on_hello_send(double now, geom::Vec2 true_position,
                            std::uint64_t version);

  /// The record-only half of on_hello_send: stores the advertised
  /// position and returns the Hello, without refreshing the selection.
  /// The returned Hello never depends on the refresh, so the sharded
  /// runner sends with this and defers post_send_refresh to a node-local
  /// event at the same instant — byte-identical outcome, off the serial
  /// path.
  HelloRecord on_hello_send_record(double now, geom::Vec2 true_position,
                                   std::uint64_t version);

  /// The refresh half of on_hello_send (mode-dependent; a no-op for
  /// reactive consistency). Touches only this node's state.
  void post_send_refresh(double now, std::uint64_t version);

  /// Records a received neighbor Hello.
  void on_hello_receive(const HelloRecord& hello, double now);

  /// Swaps in an equivalent protocol/cost pair (same algorithm and
  /// parameters). Sharded runs give each shard its own instances because
  /// Protocol::select uses per-instance mutable scratch; rebinding at
  /// ownership remaps keeps every controller on its shard's instances.
  /// Purely an aliasing change: selections are identical under any
  /// equivalent binding.
  void rebind(const topology::Protocol& protocol,
              const topology::CostModel& cost) noexcept;

  /// Recomputes the logical selection from the current store per the
  /// configured mode (ViewSync calls this on every packet transmission).
  void refresh_selection(double now);

  /// Proactive/Reactive: recompute pinned to a Hello version. No-op when
  /// the owner has no record of that version (keeps the prior selection,
  /// the paper's "wait before migrating to the next local view").
  void refresh_selection_versioned(double now, std::uint64_t version);

  /// Global ids of current logical neighbors, sorted ascending. Sortedness
  /// is a documented contract, not an accident of construction: is_logical()
  /// binary-searches this vector, and callers may merge/intersect
  /// selections from several nodes without re-sorting. Pinned by
  /// ControllerTest.LogicalNeighborsAreSortedAscending.
  [[nodiscard]] const std::vector<NodeId>& logical_neighbors() const noexcept {
    return logical_;
  }
  /// Membership test over logical_neighbors(), O(log degree).
  [[nodiscard]] bool is_logical(NodeId neighbor) const;

  /// Actual range: distance to the farthest logical neighbor as certified
  /// by the view used for the last selection.
  [[nodiscard]] double actual_range() const noexcept { return actual_range_; }

  /// Extended range = actual range + buffer width (0 with no logical
  /// neighbors). Not capped: Theorem 5's guarantee needs the full r + l.
  [[nodiscard]] double extended_range() const noexcept;

  /// Number of Hello versions this node has sent.
  [[nodiscard]] std::uint64_t hello_count() const noexcept {
    return hellos_sent_;
  }

  [[nodiscard]] const LocalViewStore& store() const noexcept { return store_; }

 private:
  void apply_selection(const topology::ViewGraph& view,
                       std::vector<std::size_t>& chosen, double now);

  /// Fingerprints the selection's exact inputs: a tag for the view kind,
  /// the pinned version (versioned views), and per member the id and raw
  /// position bits of every record the assembly would read. Equal keys
  /// imply bit-identical views and therefore identical selections.
  void build_cache_key(std::uint64_t tag, std::uint64_t version,
                       std::vector<std::uint64_t>& key);

  NodeId id_;
  // Pointers (never null) rather than references so rebind() can retarget
  // them at shard-ownership remaps.
  const topology::Protocol* protocol_;
  const topology::CostModel* cost_;
  ControllerConfig config_;
  LocalViewStore store_;
  std::vector<NodeId> logical_;
  double actual_range_ = 0.0;
  std::uint64_t hellos_sent_ = 0;
  const obs::Probe* probe_ = nullptr;
  // Scratch for link-removal diffs; allocated only while a probe counts.
  std::vector<NodeId> previous_logical_;
  // No view state lives here: a view is needed only during one refresh, so
  // every refresh assembles, selects and applies in its thread's workspace
  // (controller.cpp), which stops allocating once that thread has seen its
  // largest neighborhood.
  // Recompute cache: fingerprint of the last applied selection's inputs
  // (see build_cache_key). The scratch key is built first and swapped in
  // only after a recompute actually runs.
  std::vector<std::uint64_t> cache_key_;
  std::vector<std::uint64_t> cache_key_scratch_;
  bool cache_valid_ = false;
  // Bypass bookkeeping (see ControllerConfig::recompute_cache_min_skip_rate):
  // probes/skips observed during warmup, and the one-shot decision.
  std::uint32_t cache_probes_ = 0;
  std::uint32_t cache_skips_ = 0;
  bool cache_bypassed_ = false;

  [[nodiscard]] bool cache_enabled() const noexcept {
    return config_.recompute_cache && !cache_bypassed_;
  }
  void note_cache_probe(bool hit) noexcept;
};

}  // namespace mstc::core
