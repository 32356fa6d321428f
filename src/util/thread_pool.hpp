// Fixed-size thread pool and deterministic parallel_for.
//
// Parameter sweeps run many independent (config, seed) simulations; the pool
// spreads them over hardware threads. Work is partitioned statically by
// index so results land in pre-sized slots — parallel execution is therefore
// bit-identical to serial execution, which the reproducibility tests assert.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace mstc::util {

/// Locking model (machine-checked on Clang — see docs/STATIC_ANALYSIS.md):
/// one mutex guards the queue and the shutdown/complete-count state; both
/// condition variables are signalled only by threads that just held it.
/// Public entry points take the lock themselves, so they carry
/// MSTC_EXCLUDES(mutex_) — calling them from code that already holds the
/// pool's lock would self-deadlock, and the analysis rejects it.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool() MSTC_EXCLUDES(mutex_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueues a task. Tasks must not throw; exceptions escaping a task
  /// terminate the program (simulation code reports errors via results).
  /// Calling submit() after the destructor has begun is a programming error:
  /// it asserts in debug builds and drops the task in release builds.
  void submit(std::function<void()> task) MSTC_EXCLUDES(mutex_);

  /// Blocks until every task submitted so far has finished. Safe to call
  /// concurrently from several threads; tasks submitted concurrently with
  /// the call may or may not be waited for.
  ///
  /// Deadlock hazard: a pool *worker* must never call wait_idle() — its own
  /// task is counted in the in-flight total, so the wait can never be
  /// satisfied. Code that needs to wait for sub-tasks from inside a worker
  /// should use per-call completion state plus try_run_one() (the pattern
  /// parallel_for_chunked implements) instead.
  void wait_idle() MSTC_EXCLUDES(mutex_);

  /// Pops one queued task, if any, and runs it on the calling thread.
  /// Returns false without blocking when the queue is empty. This is the
  /// cooperative-scheduling primitive for nested submission: a thread that
  /// must wait for pool work can drain the queue itself instead of parking
  /// a thread the queued work may need to make progress.
  bool try_run_one() MSTC_EXCLUDES(mutex_);

 private:
  void worker_loop() MSTC_EXCLUDES(mutex_);

  std::vector<std::thread> workers_ MSTC_UNGUARDED(
      "filled in the constructor before any worker can observe the pool, "
      "then immutable until the destructor joins; thread_count() reads it "
      "lock-free on that basis");
  std::queue<std::function<void()>> tasks_ MSTC_GUARDED_BY(mutex_);
  Mutex mutex_;
  std::condition_variable task_available_ MSTC_UNGUARDED(
      "std::condition_variable is internally synchronized; every notify "
      "follows a critical section on mutex_");
  std::condition_variable all_done_ MSTC_UNGUARDED(
      "std::condition_variable is internally synchronized; every notify "
      "follows a critical section on mutex_");
  std::size_t in_flight_ MSTC_GUARDED_BY(mutex_) = 0;
  bool stopping_ MSTC_GUARDED_BY(mutex_) = false;
};

/// Runs body(i) for i in [0, n) across the pool and waits for completion.
/// body must be safe to invoke concurrently for distinct indices.
///
/// Work is handed out as contiguous index chunks through a shared atomic
/// chunk counter, with one submitted pool task per participating worker —
/// scheduling never allocates per index. Which worker runs which chunk is
/// nondeterministic, but every index runs exactly once and results land in
/// caller-owned pre-sized slots, so outputs are bit-identical to a serial
/// loop for any chunk size (the determinism suite asserts it).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// parallel_for with an explicit chunk size (indices per counter grab).
/// chunk == 0 picks the default heuristic; chunk == 1 is maximally
/// balanced (one index per grab, the pre-chunking behavior).
/// Larger chunks amortize counter traffic for cheap bodies at the price of
/// coarser load balancing.
///
/// Nested-submission safe: the caller participates in its own chunk loop
/// and waits on per-call completion state rather than wait_idle(), so a
/// pool worker may issue a parallel_for over the same pool (replication
/// task fanning out shard tasks). Even with every other worker busy the
/// calling thread runs all chunks itself — helping run the call's queued
/// work instead of deadlocking on its own in-flight task.
void parallel_for_chunked(ThreadPool& pool, std::size_t n, std::size_t chunk,
                          const std::function<void(std::size_t)>& body);

/// Chunk size parallel_for uses for `n` indices on `workers` threads when
/// none is given: keeps ~8 grabs per worker for load balancing while
/// bounding counter traffic, so small sweeps (n <= 8 * workers) stay at
/// chunk 1 and huge index spaces scale.
[[nodiscard]] std::size_t default_parallel_chunk(std::size_t n,
                                                 std::size_t workers);

/// Process-wide pool sized from MSTC_THREADS (default: hardware threads).
[[nodiscard]] ThreadPool& global_pool();

}  // namespace mstc::util
