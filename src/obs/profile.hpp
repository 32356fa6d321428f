// Wall-clock profiling: per-handler-category timing and run throughput.
//
// This header (with profile.cpp) is the ONLY place in the library tree that
// may read a wall clock — tools/mstc_lint.py's `wall-clock` rule enforces
// it mechanically. Wall time is reported next to results, never fed into
// them: simulation state depends exclusively on sim-time, so profiling a
// run cannot change its outputs.
//
// Usage: a ScopedTimer at the top of an event handler attributes that
// handler's wall time to a category; a null profiler makes the scope a
// no-op without reading the clock (zero overhead when off).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mstc::obs {

/// Handler categories timed by the simulation runner. The last four split
/// the event loop's per-event cost for the Amdahl accounting in
/// docs/PERFORMANCE.md: kMediumQuery nests inside the phase that issued
/// the query (like kTraceGen inside kSetup), kProtocolSelect nests inside
/// the refresh that kViewAssembly times, and kDelivery is attributed by
/// the serial kernel's batched fan-out dispatch (one timed scope per
/// broadcast; deferred sharded drains stay unattributed, like every
/// deferred handler).
enum class Category : std::size_t {
  kSetup,      ///< scenario construction (traces, controllers, wiring)
  kTraceGen,   ///< mobility trace acquisition (subset of kSetup's span)
  kBeaconing,  ///< Hello send handlers (async / proactive rounds)
  kSyncFlood,  ///< reactive synchronization-flood handlers
  kDataFlood,  ///< data-flood start/forward/deliver/score handlers
  kSnapshot,   ///< strict-connectivity snapshot handlers
  kContact,    ///< DTN contact/beacon handlers (epidemic routing)
  kMediumQuery,     ///< medium receiver/link queries (nested subset)
  kViewAssembly,    ///< selection refresh: expire + view build + select
  kProtocolSelect,  ///< Protocol::select proper (subset of kViewAssembly)
  kDelivery,        ///< Hello delivery fan-out (serial batched dispatch)
  kCount       // sentinel
};

inline constexpr std::size_t kCategoryCount =
    static_cast<std::size_t>(Category::kCount);

[[nodiscard]] const char* category_name(Category category) noexcept;

/// Monotonic wall clock in nanoseconds — the repo's single clock read.
[[nodiscard]] std::uint64_t wall_now_ns() noexcept;

/// Per-category accumulated wall time plus whole-run totals (event count
/// and event-loop wall time, for events/sec).
class Profiler {
 public:
  void add(Category category, std::uint64_t nanos) noexcept {
    auto& slot = slots_[static_cast<std::size_t>(category)];
    slot.nanos += nanos;
    ++slot.calls;
  }

  /// Records the event-loop wall time and the number of simulator events
  /// it processed (accumulates across runs when merged).
  void add_run(std::uint64_t wall_nanos, std::uint64_t events) noexcept {
    run_wall_ns_ += wall_nanos;
    events_ += events;
    ++runs_;
  }

  [[nodiscard]] std::uint64_t nanos(Category category) const noexcept {
    return slots_[static_cast<std::size_t>(category)].nanos;
  }
  [[nodiscard]] std::uint64_t calls(Category category) const noexcept {
    return slots_[static_cast<std::size_t>(category)].calls;
  }
  [[nodiscard]] std::uint64_t run_wall_ns() const noexcept {
    return run_wall_ns_;
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }

  /// Simulator events processed per wall second (0 when nothing timed).
  [[nodiscard]] double events_per_second() const noexcept {
    if (run_wall_ns_ == 0) return 0.0;
    return static_cast<double>(events_) * 1e9 /
           static_cast<double>(run_wall_ns_);
  }

  void merge(const Profiler& other) noexcept {
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
      slots_[c].nanos += other.slots_[c].nanos;
      slots_[c].calls += other.slots_[c].calls;
    }
    run_wall_ns_ += other.run_wall_ns_;
    events_ += other.events_;
    runs_ += other.runs_;
  }

 private:
  struct Slot {
    std::uint64_t nanos = 0;
    std::uint64_t calls = 0;
  };
  std::array<Slot, kCategoryCount> slots_{};
  std::uint64_t run_wall_ns_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t runs_ = 0;
};

/// RAII handler-category scope. A null profiler skips the clock entirely,
/// so the disabled path is a single branch.
class ScopedTimer {
 public:
  ScopedTimer(Profiler* profiler, Category category) noexcept
      : profiler_(profiler), category_(category) {
    if (profiler_ != nullptr) start_ = wall_now_ns();
  }
  ~ScopedTimer() {
    if (profiler_ != nullptr) {
      profiler_->add(category_, wall_now_ns() - start_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler* profiler_;
  Category category_;
  std::uint64_t start_ = 0;
};

}  // namespace mstc::obs
