#include "core/consistency.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace mstc::core {

namespace {

/// Starts a point-view build: clears the scratch and records the owner.
void begin_point_view(NodeId owner, geom::Vec2 position,
                      ViewScratch& scratch) {
  scratch.ids.clear();
  scratch.point.xs.clear();
  scratch.point.ys.clear();
  scratch.ids.push_back(owner);
  scratch.point.xs.push_back(position.x);
  scratch.point.ys.push_back(position.y);
}

void add_point_member(NodeId id, geom::Vec2 position, ViewScratch& scratch) {
  scratch.ids.push_back(id);
  scratch.point.xs.push_back(position.x);
  scratch.point.ys.push_back(position.y);
}

/// Assembles an interval ViewGraph from one position list per view member
/// (owner first). Owner-neighbor links always exist (the neighbor was
/// heard); neighbor-neighbor links exist only when their viewed distance
/// can be certified <= normal_range (max over version combinations).
///
/// Reads only the `.position` of each record — together with the member
/// ids this makes the assembled view (and, by protocol purity, the
/// selection) an exact function of (ids, position bits, normal_range,
/// cost), which is what the controller's recompute cache fingerprints.
/// Every id, representative and owner-row link is rewritten, so `out` may
/// hold any earlier view, of this owner or another (ViewGraph::reset).
// mstc:hot — runs once per selection refresh over ~density members
void assemble_interval(
    NodeId owner, std::span<const NodeId> ids,
    std::span<const std::span<const topology::VersionedPosition>> versions,
    double normal_range, const topology::CostModel& cost,
    topology::ViewGraph& out) {
  assert(!ids.empty() && ids[0] == owner);
  out.reset(owner, ids.size() - 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.set_id(i, ids[i]);
    // Representative: the newest stored position (front).
    out.set_representative(i, versions[i].front().position);
  }
  const double reject_sq =
      normal_range * normal_range * topology::kRangeRejectMargin;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      // Pre-filter on the cheap squared distances first; only combinations
      // that might be in range pay for the exact hypot sweep.
      if (i != 0) {
        double max_sq = 0.0;
        for (const auto& a : versions[i]) {
          for (const auto& b : versions[j]) {
            max_sq =
                std::max(max_sq, geom::distance_sq(a.position, b.position));
          }
        }
        if (max_sq > reject_sq) continue;
      }
      double d_min = std::numeric_limits<double>::infinity();
      double d_max = 0.0;
      for (const auto& a : versions[i]) {
        for (const auto& b : versions[j]) {
          const double d = geom::distance(a.position, b.position);
          d_min = std::min(d_min, d);
          d_max = std::max(d_max, d);
        }
      }
      if (i == 0) {
        // Owner-neighbor links exist by virtue of the received Hello.
        out.set_owner_link(j, d_max, cost.cost(d_min), cost.cost(d_max));
      } else if (d_max <= normal_range) {
        // Neighbor-neighbor links must certainly be within range.
        out.set_link(i, j, cost.cost(d_min), cost.cost(d_max));
      }
    }
  }
}

}  // namespace

std::string_view to_string(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kLatest:
      return "latest";
    case ConsistencyMode::kViewSync:
      return "viewsync";
    case ConsistencyMode::kProactive:
      return "proactive";
    case ConsistencyMode::kReactive:
      return "reactive";
    case ConsistencyMode::kWeak:
      return "weak";
  }
  return "unknown";
}

ConsistencyMode consistency_mode_from(std::string_view name) {
  if (name == "latest") return ConsistencyMode::kLatest;
  if (name == "viewsync") return ConsistencyMode::kViewSync;
  if (name == "proactive") return ConsistencyMode::kProactive;
  if (name == "reactive") return ConsistencyMode::kReactive;
  if (name == "weak") return ConsistencyMode::kWeak;
  throw std::invalid_argument("unknown consistency mode: " + std::string(name));
}

// mstc:hot — per-refresh builder; the caller owns scratch and out
void build_latest_view(const LocalViewStore& store, double normal_range,
                       const topology::CostModel& cost, ViewScratch& scratch,
                       topology::ViewGraph& out) {
  const auto own = store.records(store.owner());
  assert(!own.empty() && "owner must have advertised at least once");
  begin_point_view(store.owner(), own.front().position, scratch);  // newest
  // One pass over the store: entries() is already ascending by sender, the
  // canonical neighbor order, so no per-neighbor lookup is needed.
  for (const LocalViewStore::Entry& entry : store.entries()) {
    if (entry.sender == store.owner() || entry.history.empty()) continue;
    add_point_member(entry.sender, entry.history.front().position, scratch);
  }
  topology::assemble_point_view(scratch.ids, normal_range, cost,
                                scratch.point, out);
}

topology::ViewGraph build_latest_view(const LocalViewStore& store,
                                      double normal_range,
                                      const topology::CostModel& cost) {
  ViewScratch scratch;
  topology::ViewGraph view;
  build_latest_view(store, normal_range, cost, scratch, view);
  return view;
}

// mstc:hot — per-refresh builder; the caller owns scratch and out
bool build_versioned_view(const LocalViewStore& store, std::uint64_t version,
                          double normal_range, const topology::CostModel& cost,
                          ViewScratch& scratch, topology::ViewGraph& out) {
  const auto own = store.record_at(store.owner(), version);
  if (own.empty()) return false;
  begin_point_view(store.owner(), own.front().position, scratch);
  // One pass over the store (ascending by sender); members are the entries
  // that pin the requested version.
  for (const LocalViewStore::Entry& entry : store.entries()) {
    if (entry.sender == store.owner()) continue;
    for (const auto& record : entry.history) {
      if (record.version == version) {
        add_point_member(entry.sender, record.position, scratch);
        break;
      }
    }
  }
  topology::assemble_point_view(scratch.ids, normal_range, cost,
                                scratch.point, out);
  return true;
}

std::optional<topology::ViewGraph> build_versioned_view(
    const LocalViewStore& store, std::uint64_t version, double normal_range,
    const topology::CostModel& cost) {
  ViewScratch scratch;
  topology::ViewGraph view;
  if (!build_versioned_view(store, version, normal_range, cost, scratch,
                            view)) {
    return std::nullopt;
  }
  return view;
}

// mstc:hot — per-refresh builder; the caller owns scratch and out
void build_weak_view(const LocalViewStore& store, double normal_range,
                     const topology::CostModel& cost, ViewScratch& scratch,
                     topology::ViewGraph& out) {
  scratch.ids.clear();
  scratch.versions.clear();
  const auto own = store.records(store.owner());
  assert(!own.empty() && "owner must have advertised at least once");
  scratch.ids.push_back(store.owner());
  scratch.versions.push_back(own);  // full history: the interval view
  // One pass over the store (ascending by sender), full histories.
  for (const LocalViewStore::Entry& entry : store.entries()) {
    if (entry.sender == store.owner() || entry.history.empty()) continue;
    scratch.ids.push_back(entry.sender);
    scratch.versions.push_back(std::span<const topology::VersionedPosition>(
        entry.history.data(), entry.history.size()));
  }
  assemble_interval(store.owner(), scratch.ids, scratch.versions,
                    normal_range, cost, out);
}

topology::ViewGraph build_weak_view(const LocalViewStore& store,
                                    double normal_range,
                                    const topology::CostModel& cost) {
  ViewScratch scratch;
  topology::ViewGraph view;
  build_weak_view(store, normal_range, cost, scratch, view);
  return view;
}

double delay_bound(ConsistencyMode mode, double hello_interval,
                   std::size_t history_limit, double flood_delay_bound) {
  switch (mode) {
    case ConsistencyMode::kProactive:
      return 2.0 * hello_interval;
    case ConsistencyMode::kReactive:
      return hello_interval + flood_delay_bound;
    case ConsistencyMode::kWeak:
      return (static_cast<double>(history_limit) + 1.0) * hello_interval;
    case ConsistencyMode::kLatest:
    case ConsistencyMode::kViewSync:
      return 2.0 * hello_interval;
  }
  return 2.0 * hello_interval;
}

}  // namespace mstc::core
