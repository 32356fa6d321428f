// Ideal wireless medium.
//
// The paper's simulations "use an ideal MAC layer without collision and
// contention": a transmission from u with range r at time t is received by
// exactly the nodes within Euclidean distance r of u's position at t, after
// a fixed propagation delay. Loss injection, when wanted, is applied by the
// caller (it owns the RNG streams); the medium itself is deterministic.
//
// Neighbor queries are served by a lazily maintained spatial index (a
// graph::SpatialGrid over node positions at an epoch time t0). A query at
// time t filters candidates with the conservative radius
// r + 2 * v_max * |t - t0| over the epoch positions and then applies the
// exact distance check at the true query time, so the results are
// bit-identical to the brute-force O(n) scan — same receiver sets, same
// ascending-NodeId order — with ~an order of magnitude fewer distance
// evaluations on dense networks (see docs/PERFORMANCE.md, bench_scale and
// the differential suite in tests/sim/medium_grid_test.cpp).
//
// Threading: a Medium is strictly per-replication. Queries are logically
// const but mutate internal caches (the spatial index, position scratch,
// and the per-node trace-leg cursors), so a Medium — even a const one —
// must never be shared across threads; debug builds assert the invariant
// by pinning the medium to the first querying thread. The *traces* behind
// it, in contrast, are immutable and safely shared: parallel sweeps hand
// one mobility::TraceCache set to many per-replication Mediums, each
// keeping its own cursor array.
#pragma once

#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/spatial_grid.hpp"
#include "mobility/trace.hpp"
#include "obs/probe.hpp"

namespace mstc::sim {

using NodeId = std::size_t;

class Medium {
 public:
  struct Config {
    double propagation_delay = 1e-6;  ///< seconds; >= 0

    /// Fleets smaller than this use the brute scan: below ~150 nodes the
    /// index roughly breaks even (rebuild cost dominates — see
    /// docs/PERFORMANCE.md and the BENCH_medium.json n=100 row), so the
    /// crossover is built in. 0 forces the index for any non-empty fleet
    /// and SIZE_MAX forces the brute scan; the differential tests and
    /// bench_scale compare the two this way. Results are bit-identical on
    /// both sides of the threshold.
    std::size_t grid_min_nodes = 150;

    /// The index is rebuilt when the mobility slack 2 * v_max * |t - t0|
    /// exceeds this fraction of the query radius. Smaller values rebuild
    /// more often but keep the candidate radius tight; 0 disables slack
    /// entirely (every moving-fleet query rebuilds). Must be >= 0.
    double rebuild_slack_fraction = 0.5;
  };

  /// The medium aliases `traces`; the owner must outlive it.
  Medium(std::span<const mobility::Trace> traces, Config config);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return traces_.size();
  }
  [[nodiscard]] double propagation_delay() const noexcept {
    return config_.propagation_delay;
  }
  /// Fleet-wide speed bound (max over traces), fixed at construction; the
  /// conservative candidate radius is derived from it.
  [[nodiscard]] double max_speed() const noexcept { return max_speed_; }

  /// Ground-truth position of a node at time t. Served through this
  /// medium's leg-cursor array (amortized O(1) for the loosely increasing
  /// times the event loop produces) — the cursors are a per-Medium cache,
  /// never part of the shared Trace.
  [[nodiscard]] geom::Vec2 position(NodeId node, double t) const noexcept {
    return traces_[node].position(t, trace_cursors_[node]);
  }

  /// Ground-truth distance between two nodes at time t.
  [[nodiscard]] double distance(NodeId a, NodeId b, double t) const noexcept {
    return geom::distance(position(a, t), position(b, t));
  }

  /// Attaches an observability probe (counts receiver-set deliveries,
  /// index rebuilds and candidate filtering; see docs/OBSERVABILITY.md).
  /// The probe must outlive the medium; null detaches.
  void set_probe(const obs::Probe* probe) noexcept { probe_ = probe; }

  /// Nodes other than `sender` within `range` (inclusive) of the sender's
  /// position at time `t`, written into `out` (cleared first) in ascending
  /// NodeId order.
  void receivers(NodeId sender, double range, double t,
                 std::vector<NodeId>& out) const;

  /// All positions at time t (for snapshot metrics).
  void positions(double t, std::vector<geom::Vec2>& out) const;

  /// Ground-truth graph of links with length <= range at time t: the
  /// paper's "original topology" under the normal transmission range when
  /// range = normal range. Pairs satisfy u < v and are emitted in
  /// lexicographically ascending order; `out` is cleared first.
  void links_within(double range, double t,
                    std::vector<std::pair<NodeId, NodeId>>& out) const;

  /// Convenience overload returning a fresh vector.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> links_within(
      double range, double t) const;

 private:
  /// Rebuilds the spatial index at epoch t when absent, when the mobility
  /// slack outgrew `rebuild_slack_fraction * build_range_`, or when the
  /// requested range exceeds the range the cells were sized for (the
  /// ratchet: a grid built for a small radius must never serve a much
  /// larger one through a storm of tiny cells).
  void ensure_grid(double range, double t) const;
  /// Debug-only: pins the medium to the first thread that queries it
  /// (per-replication invariant; see the class comment).
  void assert_single_thread() const noexcept;

  std::span<const mobility::Trace> traces_;
  Config config_;
  const obs::Probe* probe_ = nullptr;
  double max_speed_ = 0.0;

  // Query-side caches; mutable because queries are logically const. All of
  // this is why a Medium is per-replication (see class comment).
  mutable graph::SpatialGrid grid_;
  mutable std::vector<geom::Vec2> epoch_positions_;  ///< SoA, at epoch_time_
  mutable double epoch_time_ = 0.0;
  mutable double build_range_ = 0.0;  ///< radius the current cells serve
  mutable bool grid_valid_ = false;
  mutable std::vector<std::size_t> candidate_buffer_;
  mutable std::vector<geom::Vec2> scratch_positions_;  ///< links_within scratch
  mutable std::vector<double> filter_xs_;  ///< SoA candidate coordinates
  mutable std::vector<double> filter_ys_;  ///< for the block filter
  mutable std::vector<std::size_t> accepted_buffer_;  ///< links_within accepts
  mutable std::vector<std::size_t> trace_cursors_;     ///< per-node leg hints
  mutable bool query_thread_set_ = false;
  mutable std::thread::id query_thread_;
};

}  // namespace mstc::sim
