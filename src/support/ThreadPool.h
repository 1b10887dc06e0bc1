//===- support/ThreadPool.h - Fixed worker pool -----------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool for the machine-search hot paths. Tasks are
/// plain std::function thunks; submit() hands back a future per task and
/// tasks start in submission order, so callers that write results into
/// pre-sized slots indexed by submission position get deterministic output
/// regardless of which worker finishes first.
///
/// parallelFor() is the primary entry point: it dispatches loop indices
/// 0..N-1 over the workers and the calling thread through a shared atomic
/// cursor. Every index runs exactly once; exceptions are captured and the
/// first one (by index order) is rethrown on the calling thread after all
/// work drains.
///
/// The pool deliberately has no work stealing, priorities, or dynamic
/// sizing: per-branch machine searches are coarse, independent tasks and a
/// queue plus condition variable saturates every core. Callers that want
/// today's serial behaviour simply do not construct a pool (the convention
/// used by the `Jobs` knobs: a resolved job count of 1 never touches this
/// class).
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_SUPPORT_THREADPOOL_H
#define BPCR_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bpcr {

/// A quiesced snapshot of a pool's utilization telemetry. Valid once every
/// submitted future has been waited on (or after the pool is destroyed —
/// callers keeping a copy): per-worker slots are written lock-free by their
/// owning worker, so sampling mid-task reads whatever has been flushed.
struct PoolStats {
  uint64_t TasksSubmitted = 0;
  /// Deepest the queue ever got (measured at each enqueue).
  uint64_t QueueDepthHwm = 0;
  /// Per-worker nanoseconds spent running tasks / waiting for work.
  std::vector<uint64_t> WorkerBusyNs;
  std::vector<uint64_t> WorkerIdleNs;
  /// Submission-to-start latency: time tasks sat in the queue.
  uint64_t SubmitLatencyCount = 0;
  uint64_t SubmitLatencyTotalNs = 0;
  uint64_t SubmitLatencyMaxNs = 0;
};

class ThreadPool {
public:
  /// Spawns \p Threads workers; 0 means one per hardware core.
  explicit ThreadPool(unsigned Threads = 0);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Drains the queue and joins every worker.
  ~ThreadPool();

  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues one task. Tasks are started in submission order.
  std::future<void> submit(std::function<void()> Task);

  /// Runs Body(0..N-1), each index exactly once, across the workers and
  /// the calling thread, which returns once every index completed. The
  /// first exception (lowest index) is rethrown here.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// Utilization telemetry so far; see PoolStats for when it is exact.
  PoolStats stats() const;

  /// std::thread::hardware_concurrency() clamped to at least 1.
  static unsigned hardwareThreads();

  /// Resolves a user-facing jobs knob: 0 (auto) becomes the hardware
  /// thread count, anything else passes through.
  static unsigned resolveJobs(unsigned Jobs) {
    return Jobs == 0 ? hardwareThreads() : Jobs;
  }

  /// Threads a parallel pass on \p Jobs may run, the calling thread
  /// included: the resolved knob, capped at the hardware thread count (a
  /// larger `--jobs` would only oversubscribe the cores).
  static unsigned threadsFor(unsigned Jobs) {
    return std::min(resolveJobs(Jobs), hardwareThreads());
  }

private:
  /// Queued task plus its enqueue timestamp, for submit-to-start latency.
  struct QueueItem {
    std::packaged_task<void()> Task;
    std::chrono::steady_clock::time_point EnqueuedAt;
  };

  /// One worker's telemetry slot. The owning worker writes with relaxed
  /// atomics (tearing-free for concurrent stats() readers); LatencySamples
  /// is owner-written and only read after join, in the destructor's
  /// metrics flush.
  struct WorkerTelemetry {
    std::atomic<uint64_t> BusyNs{0};
    std::atomic<uint64_t> IdleNs{0};
    std::atomic<uint64_t> LatCount{0};
    std::atomic<uint64_t> LatTotalNs{0};
    std::atomic<uint64_t> LatMaxNs{0};
    std::vector<uint64_t> LatencySamples;
  };

  void workerLoop(unsigned WorkerIndex);
  void flushMetrics();

  std::vector<std::thread> Workers;
  std::deque<QueueItem> Queue;
  mutable std::mutex Mu;
  std::condition_variable CV;
  bool Stopping = false;
  uint64_t QueueDepthHwm = 0; // guarded by Mu
  std::atomic<uint64_t> TasksSubmitted{0};
  std::unique_ptr<WorkerTelemetry[]> WorkerTel;
};

/// Runs Body(0..N-1) on ThreadPool::threadsFor(Jobs) threads: the calling
/// thread and a pool of the others (fewer when N is smaller). One thread
/// (or N <= 1) runs inline on the calling thread — the serial path,
/// bit-for-bit what a plain loop does — so `--jobs 1` never constructs a
/// pool.
void parallelForJobs(unsigned Jobs, size_t N,
                     const std::function<void(size_t)> &Body);

} // namespace bpcr

#endif // BPCR_SUPPORT_THREADPOOL_H
