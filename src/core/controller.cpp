#include "core/controller.hpp"

#include <algorithm>
#include <bit>
#include <span>

namespace mstc::core {

namespace {

// View-kind tags for build_cache_key. Mode is fixed per controller, but
// tagging keeps versioned and unversioned keys from ever colliding.
constexpr std::uint64_t kKeyLatest = 1;
constexpr std::uint64_t kKeyWeak = 2;
constexpr std::uint64_t kKeyVersioned = 3;

void fold_position(const topology::VersionedPosition& record,
                   std::vector<std::uint64_t>& key) {
  key.push_back(std::bit_cast<std::uint64_t>(record.position.x));
  key.push_back(std::bit_cast<std::uint64_t>(record.position.y));
}

// The buffers one refresh assembles, selects and applies in. A view lives
// only for one refresh, so every controller a thread drives shares that
// thread's workspace, kept hot in cache by the previous refresh. Sharing is
// sound because a refresh is not re-entrant, each one rebuilds the whole
// view (ViewGraph::reset clears every link and the assembler rewrites what
// else a protocol reads, whichever owner wrote it), and in both the serial
// and the sharded kernel one thread drives a given controller at a time.
struct ViewWorkspace {
  ViewScratch scratch;
  topology::ViewGraph view;
  std::vector<std::size_t> chosen;
};
thread_local ViewWorkspace t_workspace;

}  // namespace

NodeController::NodeController(NodeId id, const topology::Protocol& protocol,
                               const topology::CostModel& cost,
                               ControllerConfig config)
    : id_(id),
      protocol_(&protocol),
      cost_(&cost),
      config_(config),
      store_(id, config.history_limit, config.view_expiry) {}

void NodeController::rebind(const topology::Protocol& protocol,
                            const topology::CostModel& cost) noexcept {
  protocol_ = &protocol;
  cost_ = &cost;
}

HelloRecord NodeController::on_hello_send(double now, geom::Vec2 true_position,
                                          std::uint64_t version) {
  HelloRecord hello = on_hello_send_record(now, true_position, version);
  post_send_refresh(now, version);
  return hello;
}

HelloRecord NodeController::on_hello_send_record(double now,
                                                 geom::Vec2 true_position,
                                                 std::uint64_t version) {
  const HelloRecord hello{id_, {true_position, version, now}};
  store_.record(hello);
  ++hellos_sent_;
  if (probe_ != nullptr) {
    probe_->count_node(obs::Counter::kHelloTx, id_);
    probe_->trace(obs::EventKind::kHelloTx, now, id_, 0.0, version);
  }
  return hello;
}

void NodeController::post_send_refresh(double now, std::uint64_t version) {
  switch (config_.mode) {
    case ConsistencyMode::kLatest:
    case ConsistencyMode::kViewSync:
    case ConsistencyMode::kWeak:
      refresh_selection(now);
      break;
    case ConsistencyMode::kProactive:
      // Decide one version back: by now every neighbor's previous-version
      // Hello has certainly arrived (Section 4.1, proactive approach).
      if (version > 0) refresh_selection_versioned(now, version - 1);
      break;
    case ConsistencyMode::kReactive:
      // The runner triggers the versioned refresh after the bounded wait
      // that follows the synchronization flood.
      break;
  }
}

// mstc:hot — runs once per delivered Hello (fan-out x fleet size)
void NodeController::on_hello_receive(const HelloRecord& hello, double now) {
  store_.record(hello);
  store_.expire(now);
  if (probe_ != nullptr) {
    probe_->count_node(obs::Counter::kHelloRx, id_);
    probe_->trace(obs::EventKind::kHelloRx, now, id_, 0.0, hello.sender);
  }
}

// mstc:hot — runs once per selection refresh; view state lives in the
// thread's workspace (t_workspace), the cache key in cache_key_scratch_
void NodeController::refresh_selection(double now) {
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kViewAssembly);
  if (probe_ != nullptr) probe_->count_node(obs::Counter::kViewSyncs, id_);
  store_.expire(now);
  if (!store_.latest(id_)) return;  // nothing advertised yet
  const bool weak = config_.mode == ConsistencyMode::kWeak;
  const bool cached = cache_enabled();
  if (cached) {
    build_cache_key(weak ? kKeyWeak : kKeyLatest, 0, cache_key_scratch_);
    if (cache_valid_ && cache_key_scratch_ == cache_key_) {
      if (probe_ != nullptr) {
        probe_->count_node(obs::Counter::kTopologyRecomputeSkips, id_);
      }
      note_cache_probe(true);
      return;  // same inputs => same selection; keep it as-is
    }
    note_cache_probe(false);
  }
  ViewWorkspace& ws = t_workspace;
  if (weak) {
    build_weak_view(store_, config_.normal_range, *cost_, ws.scratch, ws.view);
  } else {
    build_latest_view(store_, config_.normal_range, *cost_, ws.scratch,
                      ws.view);
  }
  apply_selection(ws.view, ws.chosen, now);
  if (cached) {
    cache_key_.swap(cache_key_scratch_);
    cache_valid_ = true;
  }
}

// mstc:hot — the proactive/reactive counterpart of refresh_selection
void NodeController::refresh_selection_versioned(double now,
                                                 std::uint64_t version) {
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kViewAssembly);
  if (probe_ != nullptr) probe_->count_node(obs::Counter::kViewSyncs, id_);
  store_.expire(now);
  // Owner lacking the pinned version keeps the prior selection (the
  // paper's "wait before migrating to the next local view") and must
  // leave the cache untouched: nothing was recomputed.
  if (store_.record_at(id_, version).empty()) return;
  const bool cached = cache_enabled();
  if (cached) {
    build_cache_key(kKeyVersioned, version, cache_key_scratch_);
    if (cache_valid_ && cache_key_scratch_ == cache_key_) {
      if (probe_ != nullptr) {
        probe_->count_node(obs::Counter::kTopologyRecomputeSkips, id_);
      }
      note_cache_probe(true);
      return;
    }
    note_cache_probe(false);
  }
  ViewWorkspace& ws = t_workspace;
  if (!build_versioned_view(store_, version, config_.normal_range, *cost_,
                            ws.scratch, ws.view)) {
    return;  // unreachable: the owner check above already passed
  }
  apply_selection(ws.view, ws.chosen, now);
  if (cached) {
    cache_key_.swap(cache_key_scratch_);
    cache_valid_ = true;
  }
}

void NodeController::note_cache_probe(bool hit) noexcept {
  if (hit) ++cache_skips_;
  if (++cache_probes_ < kRecomputeCacheWarmup) return;
  // Checked at every probe past the warmup floor (not only when the count
  // hits it exactly — short runs would otherwise never decide): a skip
  // rate below the configured floor means fingerprints almost never match
  // (mobile positions fold into the key), so probing is pure overhead.
  // One-shot in effect: bypassing stops the probing that feeds this.
  const double skip_rate = static_cast<double>(cache_skips_) /
                           static_cast<double>(cache_probes_);
  cache_bypassed_ = config_.recompute_cache_min_skip_rate > 0.0 &&
                    skip_rate < config_.recompute_cache_min_skip_rate;
}

void NodeController::build_cache_key(std::uint64_t tag, std::uint64_t version,
                                     std::vector<std::uint64_t>& key) {
  key.clear();
  key.push_back(tag);
  const auto fold_member = [&](NodeId member,
                               std::span<const topology::VersionedPosition>
                                   records) {
    key.push_back(member);
    key.push_back(records.size());
    for (const auto& record : records) fold_position(record, key);
  };
  // One pass over the store: entries() is ascending by sender — the same
  // order the old sorted-neighbors walk produced, so key bytes are
  // unchanged.
  const auto fold_neighbors =
      [&](auto&& project) {
        for (const core::LocalViewStore::Entry& entry : store_.entries()) {
          if (entry.sender == id_ || entry.history.empty()) continue;
          const auto records = project(entry);
          if (!records.empty()) fold_member(entry.sender, records);
        }
      };
  const auto full = [](const core::LocalViewStore::Entry& entry) {
    return std::span<const topology::VersionedPosition>(entry.history.data(),
                                                        entry.history.size());
  };
  switch (tag) {
    case kKeyLatest:
      fold_member(id_, store_.records(id_).first(1));
      fold_neighbors([&](const core::LocalViewStore::Entry& entry) {
        return full(entry).first(1);
      });
      return;
    case kKeyWeak:
      fold_member(id_, store_.records(id_));
      fold_neighbors(full);
      return;
    case kKeyVersioned:
      key.push_back(version);
      fold_member(id_, store_.record_at(id_, version));
      fold_neighbors([&](const core::LocalViewStore::Entry& entry)
                         -> std::span<const topology::VersionedPosition> {
        for (const auto& record : entry.history) {
          if (record.version == version) return {&record, 1};
        }
        return {};
      });
      return;
  }
}

void NodeController::apply_selection(const topology::ViewGraph& view,
                                     std::vector<std::size_t>& chosen,
                                     double now) {
  const bool observing = probe_ != nullptr && probe_->counting();
  double previous_extended = 0.0;
  if (observing) {
    previous_logical_ = logical_;
    previous_extended = extended_range();
  }

  {
    const obs::ScopedTimer timer(
        probe_ != nullptr ? probe_->profiler() : nullptr,
        obs::Category::kProtocolSelect);
    protocol_->select(view, chosen);
  }
  logical_.clear();
  logical_.reserve(chosen.size());
  actual_range_ = 0.0;
  for (std::size_t index : chosen) {
    logical_.push_back(view.id(index));
    // Cover every stored position of the neighbor (conservative under
    // interval views; equals the viewed distance for point views). The
    // relative pad rounds the power *up* so the farthest neighbor is never
    // lost to sqrt round-off when ranges are compared against squared
    // distances.
    actual_range_ = std::max(actual_range_,
                             view.owner_distance_max(index) * (1.0 + 1e-9));
  }
  std::sort(logical_.begin(), logical_.end());

  if (observing) {
    probe_->count_node(obs::Counter::kTopologyRecomputes, id_);
    probe_->trace(obs::EventKind::kTopologyRecompute, now, id_, actual_range_,
                  logical_.size());
    // Logical neighbors present before the recompute but absent after:
    // the link-removal churn weak consistency is designed to suppress.
    for (NodeId neighbor : previous_logical_) {
      if (!std::binary_search(logical_.begin(), logical_.end(), neighbor)) {
        probe_->count_node(obs::Counter::kLinkRemovals, id_);
        probe_->trace(obs::EventKind::kLinkRemoval, now, id_, 0.0, neighbor);
      }
    }
    const double extended = extended_range();
    if (extended > previous_extended) {
      probe_->count_node(obs::Counter::kBufferZoneExpansions, id_);
      probe_->trace(obs::EventKind::kBufferZoneExpansion, now, id_, extended,
                    0);
    }
  }
}

bool NodeController::is_logical(NodeId neighbor) const {
  return std::binary_search(logical_.begin(), logical_.end(), neighbor);
}

double NodeController::extended_range() const noexcept {
  // Theorem 5 requires the full r + l; the buffer may push a node's power
  // past the normal range (the paper does not cap it either).
  if (logical_.empty()) return 0.0;
  return actual_range_ + buffer_width(config_.buffer);
}

}  // namespace mstc::core
