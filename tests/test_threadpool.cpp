//===- tests/test_threadpool.cpp ------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The fork-join round underpins every `--jobs` knob, so these tests pin
// down the contracts the parallel callers rely on: each worker and each
// index runs exactly once, results written into pre-sized slots are
// schedule-independent, exceptions surface deterministically (lowest
// worker or index wins, after every thread has joined), and the
// observability layer stays exact under contention.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/TraceSpans.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

using namespace bpcr;

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ThreadPool, ResolveJobsMapsZeroToHardware) {
  EXPECT_EQ(resolveJobs(0), hardwareThreads());
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ThreadPool, RunOnThreadsRunsEveryWorkerOnceWithWorkerZeroInline) {
  const std::thread::id Main = std::this_thread::get_id();
  std::vector<std::atomic<int>> Hits(4);
  std::vector<std::thread::id> Ids(4);
  runOnThreads(4, [&](unsigned W) {
    ++Hits[W];
    Ids[W] = std::this_thread::get_id();
  });
  for (unsigned W = 0; W < 4; ++W)
    EXPECT_EQ(Hits[W].load(), 1) << "worker " << W;
  EXPECT_EQ(Ids[0], Main);
  for (unsigned W = 1; W < 4; ++W)
    EXPECT_NE(Ids[W], Main) << "worker " << W;
}

TEST(ThreadPool, RunOnThreadsOneThreadRunsInline) {
  const std::thread::id Main = std::this_thread::get_id();
  unsigned Calls = 0;
  runOnThreads(1, [&](unsigned W) {
    EXPECT_EQ(W, 0u);
    EXPECT_EQ(std::this_thread::get_id(), Main);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1u);
}

TEST(ThreadPool, RunOnThreadsRethrowsLowestThrowingWorkerAfterJoin) {
  // Workers 1..3 throw, the last one only after a pause; the caller must
  // see worker 1's exception, and only once every worker has returned.
  std::atomic<int> Returned{0};
  std::string Caught;
  try {
    runOnThreads(4, [&](unsigned W) {
      if (W == 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++Returned;
      if (W > 0)
        throw std::runtime_error(std::to_string(W));
    });
  } catch (const std::runtime_error &E) {
    Caught = E.what();
  }
  EXPECT_EQ(Caught, "1");
  EXPECT_EQ(Returned.load(), 4);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  parallelForJobs(4, N, [&Hits](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelForIndexedSlotsAreScheduleIndependent) {
  // The determinism convention of every parallel caller: write results
  // into a slot indexed by the loop index, never append.
  constexpr size_t N = 256;
  std::vector<uint64_t> Slots(N, 0);
  parallelForJobs(4, N, [&Slots](size_t I) { Slots[I] = I * I + 1; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Slots[I], I * I + 1);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  // Every index past 4 fails; whatever the schedule, index 5's exception
  // must be the one the caller sees.
  std::string Caught;
  try {
    parallelForJobs(4, 64, [](size_t I) {
      if (I > 4)
        throw std::runtime_error(std::to_string(I));
    });
  } catch (const std::runtime_error &E) {
    Caught = E.what();
  }
  EXPECT_EQ(Caught, "5");
}

TEST(ThreadPool, ParallelForJobsOneRunsInline) {
  std::thread::id Main = std::this_thread::get_id();
  std::vector<std::thread::id> Seen(8);
  parallelForJobs(1, Seen.size(),
                  [&Seen](size_t I) { Seen[I] = std::this_thread::get_id(); });
  for (const std::thread::id &Id : Seen)
    EXPECT_EQ(Id, Main);
}

TEST(ThreadPool, ParallelForJobsZeroItemsIsANoOp) {
  parallelForJobs(4, 0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, ParallelForJobsCoversAllIndices) {
  std::vector<std::atomic<int>> Hits(128);
  parallelForJobs(4, Hits.size(), [&Hits](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1);
}

//===----------------------------------------------------------------------===//
// Observability under concurrency
//===----------------------------------------------------------------------===//

TEST(ThreadPool, CountersAreExactUnderContention) {
  // A private registry per test keeps cases independent of the global one.
  Registry R;
  R.setEnabled(true);
  Counter &C = R.counter("contended");
  constexpr int PerTask = 10'000;
  runOnThreads(8, [&C](unsigned) {
    for (int I = 0; I < PerTask; ++I)
      C.inc();
  });
  EXPECT_EQ(C.value(), 8u * PerTask);
}

TEST(ThreadPool, GaugeAndHistogramSurviveConcurrentUpdates) {
  Registry R;
  R.setEnabled(true);
  runOnThreads(8, [&R](unsigned W) {
    R.gauge("g").set(static_cast<double>(W));
    for (int K = 0; K < 1000; ++K)
      R.histogram("h").record(static_cast<double>(K));
  });
  EXPECT_EQ(R.histogram("h").count(), 8u * 1000u);
}

TEST(ThreadPool, SpansUsePerThreadBuffersUnderConcurrency) {
  // Every worker opens and closes spans concurrently; the tracer's
  // per-thread buffers mean no span is lost or torn (the sampling cap is
  // per category, so stay under it).
  SpanTracer &T = SpanTracer::global();
  T.clear();
  T.setEnabled(true);
  parallelForJobs(4, 16, [](size_t I) {
    Span S("pool.test.outer", "test");
    S.arg("index", static_cast<uint64_t>(I));
    { Span Inner("pool.test.inner", "test"); }
  });
  size_t Outer = 0, Inner = 0;
  for (const SpanEvent &E : T.snapshot()) {
    if (std::string_view(E.Name) == "pool.test.outer")
      ++Outer;
    else if (std::string_view(E.Name) == "pool.test.inner")
      ++Inner;
  }
  EXPECT_EQ(Outer, 16u);
  EXPECT_EQ(Inner, 16u);
  T.setEnabled(false);
  T.clear();
}

#ifdef __linux__
//===----------------------------------------------------------------------===//
// CPU placement
//===----------------------------------------------------------------------===//

namespace {

cpu_set_t threadMask() {
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof(Mask), &Mask), 0);
  return Mask;
}

/// Restricts the calling thread to the CPU it runs on, and restores its
/// mask at the end of the scope.
class OneCpuScope {
public:
  OneCpuScope() : Saved(threadMask()) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(sched_getcpu(), &One);
    Ok = sched_setaffinity(0, sizeof(One), &One) == 0;
  }
  OneCpuScope(const OneCpuScope &) = delete;
  OneCpuScope &operator=(const OneCpuScope &) = delete;
  ~OneCpuScope() { sched_setaffinity(0, sizeof(Saved), &Saved); }

  bool ok() const { return Ok; }

private:
  cpu_set_t Saved;
  bool Ok = false;
};

} // namespace

TEST(ThreadPool, HelpersRunOffTheCallersCpu) {
  const cpu_set_t Allowed = threadMask();
  const int NumAllowed = CPU_COUNT(&Allowed);
  if (NumAllowed < 2)
    GTEST_SKIP() << "needs two allowed CPUs";
  const unsigned Threads = static_cast<unsigned>(std::min(NumAllowed, 4));
  // The round reads the caller's CPU as it starts. A round during which
  // the test thread was seen on another CPU says nothing, so it is run
  // again.
  for (int Attempt = 0; Attempt < 50; ++Attempt) {
    const int Before = sched_getcpu();
    std::vector<cpu_set_t> Masks(Threads);
    int During = -1;
    runOnThreads(Threads, [&](unsigned W) {
      if (W == 0)
        During = sched_getcpu();
      else
        sched_getaffinity(0, sizeof(Masks[W]), &Masks[W]);
    });
    if (During != Before || sched_getcpu() != Before)
      continue;
    std::set<int> Seen;
    for (unsigned W = 1; W < Threads; ++W) {
      ASSERT_EQ(CPU_COUNT(&Masks[W]), 1) << "helper " << W;
      int Cpu = 0;
      while (!CPU_ISSET(Cpu, &Masks[W]))
        ++Cpu;
      EXPECT_TRUE(CPU_ISSET(Cpu, &Allowed)) << "helper " << W;
      EXPECT_NE(Cpu, Before) << "helper " << W << " on the caller's CPU";
      EXPECT_TRUE(Seen.insert(Cpu).second) << "helper " << W << " shares "
                                           << Cpu;
    }
    return;
  }
  GTEST_SKIP() << "the test thread migrated during every round";
}

TEST(ThreadPool, OneCpuMaskRunsInline) {
  OneCpuScope One;
  ASSERT_TRUE(One.ok());
  EXPECT_EQ(hardwareThreads(), 1u);
  EXPECT_EQ(threadsFor(4), 1u);

  Registry &Obs = Registry::global();
  const bool Was = Obs.enabled();
  Obs.clear();
  Obs.setEnabled(true);
  const std::thread::id Main = std::this_thread::get_id();
  std::vector<std::thread::id> Seen(16);
  parallelForJobs(4, Seen.size(),
                  [&Seen](size_t I) { Seen[I] = std::this_thread::get_id(); });
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I], Main) << "index " << I;
  auto NoPool = [](const auto &Metrics) {
    for (const auto &Entry : Metrics)
      EXPECT_NE(Entry.first.rfind("pool.", 0), 0u) << Entry.first;
  };
  NoPool(Obs.counters());
  NoPool(Obs.gauges());
  NoPool(Obs.histograms());
  Obs.clear();
  Obs.setEnabled(Was);
}
#endif // __linux__
