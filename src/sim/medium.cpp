#include "sim/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "geom/filter.hpp"

namespace mstc::sim {

Medium::Medium(std::span<const mobility::Trace> traces, Config config)
    : traces_(traces), config_(config) {
  assert(config_.propagation_delay >= 0.0);
  assert(config_.rebuild_slack_fraction >= 0.0);
  for (const mobility::Trace& trace : traces_) {
    max_speed_ = std::max(max_speed_, trace.max_speed());
  }
  trace_cursors_.assign(traces_.size(), 0);
}

void Medium::assert_single_thread() const noexcept {
#ifndef NDEBUG
  if (!query_thread_set_) {
    query_thread_ = std::this_thread::get_id();
    query_thread_set_ = true;
  }
  assert(query_thread_ == std::this_thread::get_id() &&
         "sim::Medium is per-replication: queries mutate internal caches "
         "(spatial index, trace cursors), so each thread needs its own "
         "traces + Medium");
#endif
}

void Medium::ensure_grid(double range, double t) const {
  const double slack = 2.0 * max_speed_ * std::abs(t - epoch_time_);
  if (grid_valid_ && range <= build_range_ &&
      slack <= config_.rebuild_slack_fraction * build_range_) {
    return;
  }
  positions(t, epoch_positions_);
  // Cell size covers the worst conservative radius before the next
  // rebuild, so queries stay within the 3x3 neighborhood. The grid serves
  // any radius <= build_range_; a larger request re-ratchets the cells
  // (callers pass per-node actual/extended ranges, which vary), and each
  // fresh epoch resets the ratchet to the triggering range so cell size
  // decays again when the big spenders shrink.
  build_range_ = range;
  grid_.rebuild(epoch_positions_,
                range * (1.0 + config_.rebuild_slack_fraction));
  epoch_time_ = t;
  grid_valid_ = true;
  if (probe_ != nullptr) probe_->count(obs::Counter::kMediumGridRebuilds);
}

// mstc:hot — runs once per Hello broadcast; fills the caller-owned out buffer
void Medium::receivers(NodeId sender, double range, double t,
                       std::vector<NodeId>& out) const {
  assert_single_thread();
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kMediumQuery);
  out.clear();
  const double range_sq = range * range;
  std::uint64_t checks = 0;
  // range <= 0 (a sender with an empty selection and no buffer) stays on
  // the brute scan: sizing grid cells for a degenerate radius would poison
  // the index for every later full-range query in the epoch.
  if (traces_.empty() || traces_.size() < config_.grid_min_nodes ||
      range <= 0.0) {
    const geom::Vec2 origin = position(sender, t);
    for (NodeId node = 0; node < traces_.size(); ++node) {
      if (node == sender) continue;
      ++checks;
      if (geom::distance_sq(origin, position(node, t)) <= range_sq) {
        out.push_back(node);
      }
    }
  } else {
    ensure_grid(range, t);
    // Conservative filter: every node moved at most v_max * |t - t0| since
    // the epoch, so any node within `range` of the sender at t lies within
    // range + 2 * v_max * |t - t0| of the sender's position in the epoch
    // snapshot. The exact re-check (the block filter below) reproduces the
    // brute-force predicate bit-for-bit; SpatialGrid::query's
    // ascending-index order keeps the output order identical too.
    const bool at_epoch = t == epoch_time_;
    const geom::Vec2 origin =
        at_epoch ? epoch_positions_[sender] : position(sender, t);
    const double slack = 2.0 * max_speed_ * std::abs(t - epoch_time_);
    grid_.query(origin, range + slack, candidate_buffer_);
    const std::size_t m = candidate_buffer_.size();
    filter_xs_.resize(m);
    filter_ys_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      const geom::Vec2 p = at_epoch ? epoch_positions_[candidate_buffer_[i]]
                                    : position(candidate_buffer_[i], t);
      filter_xs_[i] = p.x;
      filter_ys_[i] = p.y;
    }
    // The sender is always its own candidate (distance 0, and the grid
    // path only runs for range > 0), and the counter's contract is "every
    // non-sender candidate examined, accepted or not".
    assert(std::binary_search(candidate_buffer_.begin(),
                              candidate_buffer_.end(),
                              static_cast<std::size_t>(sender)));
    checks = m > 0 ? m - 1 : 0;
    geom::filter_within_range(filter_xs_.data(), filter_ys_.data(),
                              candidate_buffer_.data(), m, origin, range_sq,
                              sender, out);
  }
  if (probe_ != nullptr) {
    probe_->count(obs::Counter::kMediumCandidates, checks);
    probe_->count(obs::Counter::kMediumCandidatesAccepted, out.size());
    probe_->count_node(obs::Counter::kMediumDeliveries, sender, out.size());
  }
}

void Medium::positions(double t, std::vector<geom::Vec2>& out) const {
  out.resize(traces_.size());
  for (NodeId node = 0; node < traces_.size(); ++node) {
    out[node] = position(node, t);
  }
}

// mstc:hot — runs once per measurement snapshot; fills the caller-owned buffer
void Medium::links_within(double range, double t,
                          std::vector<std::pair<NodeId, NodeId>>& out) const {
  assert_single_thread();
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kMediumQuery);
  out.clear();
  const double range_sq = range * range;
  std::uint64_t checks = 0;
  if (traces_.empty() || traces_.size() < config_.grid_min_nodes) {
    positions(t, scratch_positions_);
    // The small-fleet crossover (grid_min_nodes = SIZE_MAX forces it); the
    // differential suites compare the grid against exactly this loop.
    for (NodeId u = 0; u < scratch_positions_.size(); ++u) {
      // mstc-lint: allow(all-pairs-scan)
      for (NodeId v = u + 1; v < scratch_positions_.size(); ++v) {
        ++checks;
        if (geom::distance_sq(scratch_positions_[u], scratch_positions_[v]) <=
            range_sq) {
          out.emplace_back(u, v);
        }
      }
    }
  } else {
    ensure_grid(range, t);
    // Amortize the piecewise-linear trace evaluation: one SoA pass per
    // call (free when t is the epoch itself — snapshot times that trigger
    // a rebuild reuse the epoch buffer) instead of one per candidate pair.
    if (t == epoch_time_) {
      scratch_positions_ = epoch_positions_;
    } else {
      positions(t, scratch_positions_);
    }
    const double slack = 2.0 * max_speed_ * std::abs(t - epoch_time_);
    const double query_radius = range + slack;
    // Single sweep: node u scans its grid neighborhood and emits u < v
    // pairs. Ascending u plus the grid's ascending candidate order yields
    // exactly the brute-force double loop's lexicographic emission order;
    // the block filter preserves input order, so feeding it the v > u
    // suffix of each candidate list keeps the emission order identical.
    for (NodeId u = 0; u < scratch_positions_.size(); ++u) {
      grid_.query(scratch_positions_[u], query_radius, candidate_buffer_);
      const auto begin =
          std::upper_bound(candidate_buffer_.begin(), candidate_buffer_.end(),
                           static_cast<std::size_t>(u));
      const auto offset =
          static_cast<std::size_t>(begin - candidate_buffer_.begin());
      const std::size_t m = candidate_buffer_.size() - offset;
      filter_xs_.resize(m);
      filter_ys_.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        const geom::Vec2 p = scratch_positions_[candidate_buffer_[offset + i]];
        filter_xs_[i] = p.x;
        filter_ys_[i] = p.y;
      }
      checks += m;
      accepted_buffer_.clear();
      geom::filter_within_range(filter_xs_.data(), filter_ys_.data(),
                                candidate_buffer_.data() + offset, m,
                                scratch_positions_[u], range_sq,
                                geom::kFilterNoSkip, accepted_buffer_);
      for (const std::size_t v : accepted_buffer_) out.emplace_back(u, v);
    }
  }
  if (probe_ != nullptr) {
    probe_->count(obs::Counter::kMediumCandidates, checks);
    probe_->count(obs::Counter::kMediumCandidatesAccepted, out.size());
  }
}

std::vector<std::pair<NodeId, NodeId>> Medium::links_within(double range,
                                                            double t) const {
  std::vector<std::pair<NodeId, NodeId>> links;
  links_within(range, t, links);
  return links;
}

}  // namespace mstc::sim
