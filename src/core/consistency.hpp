// View-consistency mechanisms (Sections 4.1 and 4.2 of the paper).
//
// A consistency mode determines which stored Hello versions a node's
// decision uses, i.e. how the ViewGraph is assembled from the
// LocalViewStore:
//
//  - Latest    : newest record per neighbor (the mobility-insensitive
//                baseline; views of different nodes can be inconsistent).
//  - ViewSync  : same view assembly as Latest, but the *runner* recomputes
//                the selection on every packet transmission using the
//                node's previously advertised own position (the paper's
//                simplified on-the-fly synchronization of Section 5.1).
//  - Proactive : strong consistency via timestamped Hellos: decisions use
//                exactly the records of a given version; packets pin the
//                version along the route.
//  - Reactive  : strong consistency via flood-synchronized Hello rounds;
//                the view assembly is the same versioned lookup.
//  - Weak      : interval views over the k most recent records per node,
//                feeding the enhanced link-removal conditions.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/view_store.hpp"
#include "topology/cost.hpp"
#include "topology/view_graph.hpp"

namespace mstc::core {

enum class ConsistencyMode { kLatest, kViewSync, kProactive, kReactive, kWeak };

/// Reusable buffers for the out-param view builders below: the member ids
/// (owner first), their positions in SoA form for point views, and, for
/// interval views, spans that borrow the store's internal record vectors —
/// so a ViewScratch is only meaningful during one build. After the warmup
/// neighborhood has been seen, rebuilding a view through the same scratch
/// allocates nothing.
struct ViewScratch {
  std::vector<NodeId> ids;
  topology::PointScratch point;
  std::vector<std::span<const topology::VersionedPosition>> versions;
};

[[nodiscard]] std::string_view to_string(ConsistencyMode mode);
[[nodiscard]] ConsistencyMode consistency_mode_from(std::string_view name);

/// Single-version view from each node's newest record. Neighbors without
/// any record are skipped. Used by Latest and ViewSync.
[[nodiscard]] topology::ViewGraph build_latest_view(
    const LocalViewStore& store, double normal_range,
    const topology::CostModel& cost);

/// Allocation-free overload: assembles into `out` via `scratch`.
void build_latest_view(const LocalViewStore& store, double normal_range,
                       const topology::CostModel& cost, ViewScratch& scratch,
                       topology::ViewGraph& out);

/// Single-version view pinned to `version`: only nodes with a stored
/// record of exactly that version participate (Theorem 2's |M(t, v)| = 1).
/// Returns nullopt when the owner itself has no record of that version.
[[nodiscard]] std::optional<topology::ViewGraph> build_versioned_view(
    const LocalViewStore& store, std::uint64_t version, double normal_range,
    const topology::CostModel& cost);

/// Allocation-free overload: returns false (leaving `out` untouched) when
/// the owner has no record of `version`.
[[nodiscard]] bool build_versioned_view(const LocalViewStore& store,
                                        std::uint64_t version,
                                        double normal_range,
                                        const topology::CostModel& cost,
                                        ViewScratch& scratch,
                                        topology::ViewGraph& out);

/// Interval view over every stored record (weak consistency): per link,
/// the distance/cost interval spans all version combinations of the two
/// endpoints' stored positions. Representative positions are the newest.
/// Neighbor-neighbor links require max distance <= normal_range so that
/// enhanced removals rely only on certainly-existing paths.
[[nodiscard]] topology::ViewGraph build_weak_view(
    const LocalViewStore& store, double normal_range,
    const topology::CostModel& cost);

/// Allocation-free overload: assembles into `out` via `scratch`.
void build_weak_view(const LocalViewStore& store, double normal_range,
                     const topology::CostModel& cost, ViewScratch& scratch,
                     topology::ViewGraph& out);

/// The paper's maximal time delay Delta'' (Section 4.3): the age bound of
/// the oldest Hello a current local view can depend on, per mode.
///  - Proactive: 2 * Delta' (taken ~ hello interval incl. skew)
///  - Reactive : Delta + bounded flood delay
///  - Weak     : (k + 1) * Delta with k stored Hellos
///  - Latest/ViewSync: 2 * Delta (newest record can be ~Delta old and is
///    used for up to another Delta until the next selection update).
[[nodiscard]] double delay_bound(ConsistencyMode mode, double hello_interval,
                                 std::size_t history_limit,
                                 double flood_delay_bound = 0.05);

}  // namespace mstc::core
