#include "core/consistency.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace mstc::core {

namespace {

/// Conservative squared-distance rejection threshold for the pre-filter
/// below. fl(dx*dx + dy*dy) carries at most ~3 ulp (~7e-16) relative error
/// and std::hypot at most a few ulps, so the 1e-12 relative margin exceeds
/// the combined rounding error by three orders of magnitude: any pair with
/// fl(d^2) > normal_range^2 * (1 + 1e-12) certainly has
/// hypot(dx, dy) > normal_range, i.e. the exact predicate below would have
/// rejected it too (proof sketch in docs/PERFORMANCE.md). Pairs inside the
/// margin fall through to the exact check, so results are byte-identical.
constexpr double kRejectMargin = 1.0 + 1e-12;

/// Assembles a ViewGraph from one chosen position list per view member
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
void assemble(
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
  const double reject_sq = normal_range * normal_range * kRejectMargin;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool single_i = versions[i].size() == 1;
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      if (single_i && versions[j].size() == 1) {
        // Point-view fast path (latest / versioned views): one version per
        // member means d_min == d_max, so the distance and the cost-model
        // call are each computed once — bit-identical to the general
        // loop, which would evaluate them twice on equal inputs.
        const geom::Vec2 a = versions[i].front().position;
        const geom::Vec2 b = versions[j].front().position;
        // Squared-distance pre-filter: skips the libm hypot for the
        // ~40% of neighbor-neighbor pairs that are certainly out of
        // range (see kRejectMargin). Never applied to the owner row —
        // owner-neighbor links exist regardless of distance.
        if (i != 0 && geom::distance_sq(a, b) > reject_sq) continue;
        const double d = geom::distance(a, b);
        if (i != 0 && d > normal_range) continue;
        const double c = cost.cost(d);
        out.set_link(i, j, d, d, c, c);
        continue;
      }
      // Interval views (weak consistency): pre-filter on the cheap
      // squared distances first; only combinations that might be in
      // range pay for the exact hypot sweep.
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
      // Owner-neighbor links exist by virtue of the received Hello;
      // neighbor-neighbor links must certainly be within range.
      if (i != 0 && d_max > normal_range) continue;
      out.set_link(i, j, d_min, d_max, cost.cost(d_min), cost.cost(d_max));
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
  scratch.ids.clear();
  scratch.versions.clear();
  const auto own = store.records(store.owner());
  assert(!own.empty() && "owner must have advertised at least once");
  scratch.ids.push_back(store.owner());
  scratch.versions.push_back(own.first(1));  // newest record only
  // One pass over the store: entries() is already ascending by sender, the
  // canonical neighbor order, so no per-neighbor lookup is needed.
  for (const LocalViewStore::Entry& entry : store.entries()) {
    if (entry.sender == store.owner() || entry.history.empty()) continue;
    scratch.ids.push_back(entry.sender);
    scratch.versions.push_back(
        std::span<const topology::VersionedPosition>(entry.history.data(), 1));
  }
  assemble(store.owner(), scratch.ids, scratch.versions, normal_range, cost,
           out);
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
  scratch.ids.clear();
  scratch.versions.clear();
  scratch.ids.push_back(store.owner());
  scratch.versions.push_back(own);
  // One pass over the store (ascending by sender); members are the entries
  // that pin the requested version.
  for (const LocalViewStore::Entry& entry : store.entries()) {
    if (entry.sender == store.owner()) continue;
    for (const auto& record : entry.history) {
      if (record.version == version) {
        scratch.ids.push_back(entry.sender);
        scratch.versions.push_back(
            std::span<const topology::VersionedPosition>(&record, 1));
        break;
      }
    }
  }
  assemble(store.owner(), scratch.ids, scratch.versions, normal_range, cost,
           out);
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
  assemble(store.owner(), scratch.ids, scratch.versions, normal_range, cost,
           out);
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
