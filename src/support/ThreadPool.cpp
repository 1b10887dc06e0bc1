//===- support/ThreadPool.cpp ---------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "obs/Metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#include <unistd.h>
#endif

using namespace bpcr;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t elapsedNs(Clock::time_point From, Clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
          .count());
}

/// What one worker of a round leaves behind.
struct WorkerResult {
  uint64_t BusyNs = 0;
  std::exception_ptr Err;
};

/// The `pool.*` metrics of one round: its threads, the threads it spawned,
/// and each worker's busy time and the rest of the round as idle time.
void recordRound(Registry &Obs, const std::vector<WorkerResult> &Workers,
                 uint64_t RoundNs) {
  Obs.gauge("pool.threads").set(static_cast<double>(Workers.size()));
  Obs.counter("pool.tasks").add(Workers.size() - 1);
  Histogram &Busy = Obs.histogram("pool.worker.busy_ns");
  Histogram &Idle = Obs.histogram("pool.worker.idle_ns");
  uint64_t TotalBusy = 0;
  for (const WorkerResult &W : Workers) {
    const uint64_t B = std::min(W.BusyNs, RoundNs);
    TotalBusy += B;
    Busy.record(static_cast<double>(B));
    Idle.record(static_cast<double>(RoundNs - B));
  }
  const uint64_t Total = RoundNs * Workers.size();
  if (Total > 0)
    Obs.gauge("pool.utilization_percent")
        .set(100.0 * static_cast<double>(TotalBusy) /
             static_cast<double>(Total));
}

#ifdef __linux__
/// The CPUs the process may run on: the main thread's affinity mask (not
/// the calling thread's, which is one CPU on a pinned helper).
bool processCpus(cpu_set_t &Allowed) {
  CPU_ZERO(&Allowed);
  return sched_getaffinity(getpid(), sizeof(Allowed), &Allowed) == 0;
}
#endif

/// Where a round's helpers run: helper W on the (W-1)-th of the process's
/// CPUs other than the one the caller runs on as the round starts. A
/// helper that wakes on the caller's CPU would queue the caller behind it
/// (the scheduler prefers the waker's CPU for a woken thread), so each
/// helper gets a CPU of its own. When either is unknown, or off Linux,
/// the helpers run wherever the scheduler puts them.
class HelperCpus {
public:
  HelperCpus() {
#ifdef __linux__
    const int Caller = sched_getcpu();
    Known = Caller >= 0 && processCpus(Others);
    if (Known)
      CPU_CLR(Caller, &Others);
#endif
  }

  /// Pins the calling thread, helper \p W, to its CPU; a failed call, or
  /// a helper past the CPUs there are, leaves it as it was.
  void pin([[maybe_unused]] unsigned W) const {
#ifdef __linux__
    if (!Known)
      return;
    unsigned Seen = 0;
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Others) && ++Seen == W) {
        cpu_set_t One;
        CPU_ZERO(&One);
        CPU_SET(Cpu, &One);
        (void)sched_setaffinity(0, sizeof(One), &One);
        return;
      }
#endif
  }

private:
#ifdef __linux__
  cpu_set_t Others{};
  bool Known = false;
#endif
};

} // namespace

unsigned bpcr::hardwareThreads() {
#ifdef __linux__
  cpu_set_t Allowed;
  if (processCpus(Allowed))
    if (const int N = CPU_COUNT(&Allowed); N > 0)
      return static_cast<unsigned>(N);
#endif
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void bpcr::runOnThreads(unsigned Threads,
                        const std::function<void(unsigned)> &Body) {
  if (Threads <= 1) {
    Body(0);
    return;
  }
  const Clock::time_point Start = Clock::now();
  std::vector<WorkerResult> Results(Threads);
  auto Worker = [&](unsigned W) {
    const Clock::time_point From = Clock::now();
    try {
      Body(W);
    } catch (...) {
      Results[W].Err = std::current_exception();
    }
    Results[W].BusyNs = elapsedNs(From, Clock::now());
  };
  // Each helper ends at the join, so no pin outlives its round.
  const HelperCpus Cpus;
  std::vector<std::thread> Helpers;
  for (unsigned W = 1; W < Threads; ++W)
    Helpers.emplace_back([&, W] {
      Cpus.pin(W);
      Worker(W);
    });
  Worker(0);
  for (std::thread &T : Helpers)
    T.join();

  Registry &Obs = Registry::global();
  if (Obs.enabled())
    recordRound(Obs, Results, elapsedNs(Start, Clock::now()));
  for (const WorkerResult &R : Results)
    if (R.Err)
      std::rethrow_exception(R.Err);
}

void bpcr::parallelForJobs(unsigned Jobs, size_t N,
                           const std::function<void(size_t)> &Body) {
  const unsigned Threads = threadsFor(Jobs);
  if (Threads <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  // Exceptions are kept per index so the rethrow is deterministic: the
  // lowest failing index wins no matter which thread hit it.
  std::atomic<size_t> Next{0};
  std::mutex ErrMu;
  size_t ErrIndex = SIZE_MAX;
  std::exception_ptr Err;
  auto Worker = [&](unsigned) {
    for (;;) {
      const size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      try {
        Body(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrMu);
        if (I < ErrIndex) {
          ErrIndex = I;
          Err = std::current_exception();
        }
      }
    }
  };
  runOnThreads(static_cast<unsigned>(std::min<size_t>(Threads, N)), Worker);
  if (Err)
    std::rethrow_exception(Err);
}
