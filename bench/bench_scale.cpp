// Medium scaling benchmark: brute-force O(n^2) scans vs. the spatial
// index, at fixed density (the paper's 100 nodes per 900x900 m^2).
//
// Sweeps n in {100, 250, 500, 1000, 2500, 5000} (MSTC_SCALE_NODES
// overrides) over a beacon-round + snapshot workload — one receivers()
// query per node per simulated second plus a links_within() sweep every
// 5 s, the exact shape of the scenario runner's hot path — and reports
// wall-clock per simulated second, queries/sec (via the obs::Profiler),
// and the medium's candidate/rebuild counters for both paths. Writes
// machine-readable BENCH_medium.json (see docs/PERFORMANCE.md) so future
// PRs have a perf trajectory to compare against:
//
//   ./build/bench/bench_scale                 # full sweep -> BENCH_medium.json
//   ./build/bench/bench_scale --out <path>    # alternate output path
//   ./build/bench/bench_scale --smoke         # CI guard: tiny n, asserts
//                                             #   grid <= brute checks,
//                                             #   rebuilds > 0, identical
//                                             #   receiver sets, and that
//                                             #   the default config routes
//                                             #   tiny fleets to brute
//                                             #   (grid_min_nodes); no JSON
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "mobility/models.hpp"
#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "obs/profile.hpp"
#include "sim/medium.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"

namespace {

using mstc::sim::Medium;
using mstc::sim::NodeId;

constexpr double kRange = 250.0;          // the paper's normal range (m)
constexpr double kDensitySide = 900.0;    // 100 nodes per kDensitySide^2
constexpr double kDensityNodes = 100.0;
constexpr double kSpeed = 10.0;           // average waypoint speed (m/s)
constexpr double kDuration = 10.0;        // simulated seconds per mode
constexpr double kSnapshotEvery = 5.0;
constexpr std::uint64_t kSeed = 20040426;

struct ModeResult {
  double wall_seconds = 0.0;
  double wall_per_sim_second = 0.0;
  double queries_per_second = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t distance_checks = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t checksum = 0;  // order-sensitive hash of every result set
};

/// Runs the beacon+snapshot workload through one medium configuration.
ModeResult run_mode(const std::vector<mstc::mobility::Trace>& traces,
                    const Medium::Config& config) {
  ModeResult result;
  mstc::obs::RunObservation observation;
  const mstc::obs::Probe probe(&observation);
  Medium medium(traces, config);
  medium.set_probe(&probe);

  std::uint64_t hash = 1469598103934665603ull;
  const auto fold = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };

  std::vector<NodeId> out;
  std::vector<std::pair<NodeId, NodeId>> links;
  const std::uint64_t wall_start = mstc::obs::wall_now_ns();
  for (double t = 0.0; t <= kDuration; t += 1.0) {
    for (NodeId u = 0; u < medium.node_count(); ++u) {
      medium.receivers(u, kRange, t, out);
      ++result.queries;
      fold(out.size());
      for (const NodeId v : out) fold(v);
    }
  }
  for (double t = 0.0; t <= kDuration; t += kSnapshotEvery) {
    medium.links_within(kRange, t, links);
    ++result.queries;
    fold(links.size());
    for (const auto& [u, v] : links) fold(u * medium.node_count() + v);
  }
  const std::uint64_t wall_ns = mstc::obs::wall_now_ns() - wall_start;

  // PR 2 profiler: one "run" = this mode's sweep; events = queries served.
  mstc::obs::Profiler profiler;
  profiler.add_run(wall_ns, result.queries);
  result.wall_seconds = static_cast<double>(wall_ns) * 1e-9;
  result.wall_per_sim_second = result.wall_seconds / kDuration;
  result.queries_per_second = profiler.events_per_second();
  result.distance_checks =
      observation.counters.total(mstc::obs::Counter::kMediumCandidates);
  result.accepted = observation.counters.total(
      mstc::obs::Counter::kMediumCandidatesAccepted);
  result.rebuilds =
      observation.counters.total(mstc::obs::Counter::kMediumGridRebuilds);
  result.checksum = hash;
  return result;
}

struct ScalePoint {
  std::size_t nodes = 0;
  double side = 0.0;
  ModeResult brute;
  ModeResult grid;
  // Default config: Medium picks brute vs. grid via grid_min_nodes. The
  // crossover guard checks this auto choice tracks the faster path.
  ModeResult auto_mode;

  [[nodiscard]] bool identical() const {
    return brute.checksum == grid.checksum &&
           brute.checksum == auto_mode.checksum;
  }
};

ScalePoint run_point(std::size_t nodes) {
  ScalePoint point;
  point.nodes = nodes;
  // Fixed density: area grows with n so the neighborhood size stays the
  // paper's (~ pi * 250^2 * 100 / 900^2 ~ 24 neighbors).
  point.side =
      kDensitySide * std::sqrt(static_cast<double>(nodes) / kDensityNodes);
  const auto model = mstc::mobility::make_paper_waypoint(
      {point.side, point.side}, kSpeed);
  const auto traces = mstc::mobility::generate_traces(
      *model, nodes, kDuration, mstc::util::derive_seed(kSeed, nodes));
  point.brute = run_mode(
      traces, {.grid_min_nodes = std::numeric_limits<std::size_t>::max()});
  point.grid = run_mode(traces, {.grid_min_nodes = 0});  // index forced on
  point.auto_mode = run_mode(traces, {});
  return point;
}

void print_point(const ScalePoint& p) {
  const double speedup = p.grid.wall_seconds > 0.0
                             ? p.brute.wall_seconds / p.grid.wall_seconds
                             : 0.0;
  const double check_ratio =
      p.grid.distance_checks > 0
          ? static_cast<double>(p.brute.distance_checks) /
                static_cast<double>(p.grid.distance_checks)
          : 0.0;
  std::printf(
      "n=%5zu  brute %8.1f ms (%12" PRIu64
      " checks)  grid %8.1f ms (%10" PRIu64 " checks, %3" PRIu64
      " rebuilds)  speedup %5.1fx  checks/ %5.1fx  auto=%s  %s\n",
      p.nodes, p.brute.wall_seconds * 1e3, p.brute.distance_checks,
      p.grid.wall_seconds * 1e3, p.grid.distance_checks, p.grid.rebuilds,
      speedup, check_ratio, p.auto_mode.rebuilds > 0 ? "grid" : "brute",
      p.identical() ? "identical" : "DIVERGED");
}

void append_mode_json(std::string& json, const char* name,
                      const ModeResult& mode) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "      \"%s\": {\"wall_s\": %.6f, \"wall_per_sim_s\": %.6f, "
                "\"queries\": %" PRIu64 ", \"queries_per_s\": %.1f, "
                "\"distance_checks\": %" PRIu64 ", \"accepted\": %" PRIu64
                ", \"grid_rebuilds\": %" PRIu64 "}",
                name, mode.wall_seconds, mode.wall_per_sim_second,
                mode.queries, mode.queries_per_second, mode.distance_checks,
                mode.accepted, mode.rebuilds);
  json += buffer;
}

bool write_json(const std::string& path,
                const std::vector<ScalePoint>& points) {
  std::string json = "{\n";
  json += "  \"bench\": \"bench_scale\",\n";
  json += "  \"version\": \"" +
          mstc::obs::json_escape(mstc::obs::build_version()) + "\",\n";
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "  \"config\": {\"range_m\": %.1f, \"density\": \"%.0f nodes "
                "per %.0fx%.0f m^2\", \"speed_mps\": %.1f, \"duration_s\": "
                "%.1f, \"hello_interval_s\": 1.0, \"snapshot_interval_s\": "
                "%.1f, \"seed\": %" PRIu64 "},\n",
                kRange, kDensityNodes, kDensitySide, kDensitySide, kSpeed,
                kDuration, kSnapshotEvery, kSeed);
  json += buffer;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    const double speedup = p.grid.wall_seconds > 0.0
                               ? p.brute.wall_seconds / p.grid.wall_seconds
                               : 0.0;
    const double check_ratio =
        p.grid.distance_checks > 0
            ? static_cast<double>(p.brute.distance_checks) /
                  static_cast<double>(p.grid.distance_checks)
            : 0.0;
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"nodes\": %zu, \"area_side_m\": %.1f,\n", p.nodes,
                  p.side);
    json += buffer;
    append_mode_json(json, "brute", p.brute);
    json += ",\n";
    append_mode_json(json, "grid", p.grid);
    json += ",\n";
    append_mode_json(json, "auto", p.auto_mode);
    json += ",\n";
    std::snprintf(buffer, sizeof(buffer),
                  "      \"wall_speedup\": %.2f, "
                  "\"distance_check_reduction\": %.2f, "
                  "\"auto_picked\": \"%s\", "
                  "\"results_identical\": %s}",
                  speedup, check_ratio,
                  p.auto_mode.rebuilds > 0 ? "grid" : "brute",
                  p.identical() ? "true" : "false");
    json += buffer;
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::ofstream file(path);
  if (!file) return false;
  file << json;
  return static_cast<bool>(file);
}

int run_smoke() {
  std::printf("bench_scale --smoke: grid-vs-brute guard at tiny n\n");
  int failures = 0;
  for (const std::size_t nodes : {64ul, 128ul}) {
    const ScalePoint p = run_point(nodes);
    print_point(p);
    if (!p.identical()) {
      std::fprintf(stderr, "FAIL n=%zu: result sets diverged across paths\n",
                   p.nodes);
      ++failures;
    }
    // Crossover guard: tiny fleets sit below grid_min_nodes, so the
    // default config must route them to the brute path.
    if (p.auto_mode.rebuilds != 0) {
      std::fprintf(stderr,
                   "FAIL n=%zu: default config built the grid below the "
                   "grid_min_nodes crossover\n",
                   p.nodes);
      ++failures;
    }
    if (p.grid.distance_checks > p.brute.distance_checks) {
      std::fprintf(stderr,
                   "FAIL n=%zu: grid examined more candidates than brute "
                   "force (%" PRIu64 " > %" PRIu64 ")\n",
                   p.nodes, p.grid.distance_checks, p.brute.distance_checks);
      ++failures;
    }
    if (p.grid.rebuilds == 0) {
      std::fprintf(stderr,
                   "FAIL n=%zu: rebuild counter is zero — the index "
                   "silently regressed to brute force\n",
                   p.nodes);
      ++failures;
    }
  }
  std::printf(failures == 0 ? "smoke OK\n" : "smoke FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_medium.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_scale [--smoke] [--out <path>]\n");
      return 2;
    }
  }
  if (smoke) return run_smoke();

  const std::vector<double> axis = mstc::util::env_list(
      "MSTC_SCALE_NODES", {100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0});
  std::printf("=== medium scaling: brute-force vs. spatial index ===\n");
  std::printf("fixed density, %.0f m range, %.0f s simulated per mode\n\n",
              kRange, kDuration);
  std::vector<ScalePoint> points;
  points.reserve(axis.size());
  for (const double n : axis) {
    points.push_back(run_point(static_cast<std::size_t>(n)));
    print_point(points.back());
  }
  if (!write_json(out_path, points)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
