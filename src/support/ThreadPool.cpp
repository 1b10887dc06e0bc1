//===- support/ThreadPool.cpp ---------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <atomic>

using namespace bpcr;

unsigned ThreadPool::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

ThreadPool::ThreadPool(unsigned Threads) {
  unsigned N = resolveJobs(Threads);
  WorkerTel = std::make_unique<WorkerTelemetry[]>(N);
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  CV.notify_all();
  for (std::thread &W : Workers)
    W.join();
  flushMetrics();
}

void ThreadPool::workerLoop(unsigned WorkerIndex) {
  using Clock = std::chrono::steady_clock;
  WorkerTelemetry &Tel = WorkerTel[WorkerIndex];
  auto ElapsedNs = [](Clock::time_point From, Clock::time_point To) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
            .count());
  };
  for (;;) {
    QueueItem Item;
    Clock::time_point DequeuedAt;
    {
      Clock::time_point WaitStart = Clock::now();
      std::unique_lock<std::mutex> Lock(Mu);
      CV.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      DequeuedAt = Clock::now();
      Tel.IdleNs.fetch_add(ElapsedNs(WaitStart, DequeuedAt),
                           std::memory_order_relaxed);
      if (Queue.empty())
        return; // Stopping and drained.
      Item = std::move(Queue.front());
      Queue.pop_front();
    }
    uint64_t LatNs = ElapsedNs(Item.EnqueuedAt, DequeuedAt);
    Tel.LatCount.fetch_add(1, std::memory_order_relaxed);
    Tel.LatTotalNs.fetch_add(LatNs, std::memory_order_relaxed);
    uint64_t Max = Tel.LatMaxNs.load(std::memory_order_relaxed);
    while (LatNs > Max && !Tel.LatMaxNs.compare_exchange_weak(
                              Max, LatNs, std::memory_order_relaxed))
      ;
    Tel.LatencySamples.push_back(LatNs);
    Item.Task();
    Tel.BusyNs.fetch_add(ElapsedNs(DequeuedAt, Clock::now()),
                         std::memory_order_relaxed);
  }
}

std::future<void> ThreadPool::submit(std::function<void()> Task) {
  QueueItem Item;
  Item.Task = std::packaged_task<void()>(std::move(Task));
  Item.EnqueuedAt = std::chrono::steady_clock::now();
  std::future<void> F = Item.Task.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back(std::move(Item));
    if (Queue.size() > QueueDepthHwm)
      QueueDepthHwm = Queue.size();
  }
  CV.notify_one();
  TasksSubmitted.fetch_add(1, std::memory_order_relaxed);
  Registry &Obs = Registry::global();
  if (Obs.enabled())
    Obs.counter("pool.tasks").inc();
  return F;
}

PoolStats ThreadPool::stats() const {
  PoolStats Out;
  Out.TasksSubmitted = TasksSubmitted.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Out.QueueDepthHwm = QueueDepthHwm;
  }
  for (unsigned I = 0; I < size(); ++I) {
    const WorkerTelemetry &Tel = WorkerTel[I];
    Out.WorkerBusyNs.push_back(Tel.BusyNs.load(std::memory_order_relaxed));
    Out.WorkerIdleNs.push_back(Tel.IdleNs.load(std::memory_order_relaxed));
    Out.SubmitLatencyCount += Tel.LatCount.load(std::memory_order_relaxed);
    Out.SubmitLatencyTotalNs +=
        Tel.LatTotalNs.load(std::memory_order_relaxed);
    Out.SubmitLatencyMaxNs =
        std::max(Out.SubmitLatencyMaxNs,
                 Tel.LatMaxNs.load(std::memory_order_relaxed));
  }
  return Out;
}

void ThreadPool::flushMetrics() {
  Registry &Obs = Registry::global();
  if (!Obs.enabled())
    return;
  Gauge &Hwm = Obs.gauge("pool.queue_depth_hwm");
  Hwm.set(std::max(Hwm.value(), static_cast<double>(QueueDepthHwm)));
  Histogram &Busy = Obs.histogram("pool.worker.busy_ns");
  Histogram &Idle = Obs.histogram("pool.worker.idle_ns");
  Histogram &Lat = Obs.histogram("pool.submit_latency_ns");
  uint64_t TotalBusy = 0, TotalIdle = 0;
  for (unsigned I = 0; I < size(); ++I) {
    WorkerTelemetry &Tel = WorkerTel[I];
    uint64_t B = Tel.BusyNs.load(std::memory_order_relaxed);
    uint64_t Id = Tel.IdleNs.load(std::memory_order_relaxed);
    TotalBusy += B;
    TotalIdle += Id;
    Busy.record(static_cast<double>(B));
    Idle.record(static_cast<double>(Id));
    for (uint64_t Sample : Tel.LatencySamples)
      Lat.record(static_cast<double>(Sample));
  }
  if (TotalBusy + TotalIdle > 0)
    Obs.gauge("pool.utilization_percent")
        .set(100.0 * static_cast<double>(TotalBusy) /
             static_cast<double>(TotalBusy + TotalIdle));
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;

  // One shared cursor, one runner per worker (capped by N) plus the
  // calling thread, which runs indices too instead of sleeping until the
  // workers finish. Exceptions are kept per index so the rethrow is
  // deterministic: the lowest failing index wins no matter which thread
  // hit it.
  std::atomic<size_t> Next{0};
  std::mutex ErrMu;
  size_t ErrIndex = SIZE_MAX;
  std::exception_ptr Err;

  auto Runner = [&] {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
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

  size_t Runners = std::min<size_t>(size(), N - 1);
  std::vector<std::future<void>> Futures;
  Futures.reserve(Runners);
  for (size_t R = 0; R < Runners; ++R)
    Futures.push_back(submit(Runner));
  Runner();
  for (std::future<void> &F : Futures)
    F.get();
  if (Err)
    std::rethrow_exception(Err);
}

void bpcr::parallelForJobs(unsigned Jobs, size_t N,
                           const std::function<void(size_t)> &Body) {
  const unsigned Threads = ThreadPool::threadsFor(Jobs);
  if (Threads <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  // The calling thread is one of the threads.
  ThreadPool Pool(static_cast<unsigned>(std::min<size_t>(Threads, N)) - 1);
  Registry &Obs = Registry::global();
  if (Obs.enabled())
    Obs.gauge("pool.threads").set(static_cast<double>(Pool.size() + 1));
  Pool.parallelFor(N, Body);
}
