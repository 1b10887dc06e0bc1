//===- trace/TraceStream.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceStream.h"

#include "obs/Metrics.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <exception>
#include <future>
#include <vector>

using namespace bpcr;

namespace {

/// A worker body that walks Chunks[Next...] until none is left; every
/// worker of one walk shares \p Next.
std::function<void(size_t)> chunkWorker(const std::vector<EventRange> &Chunks,
                                        std::atomic<size_t> &Next,
                                        TraceColumns Cols,
                                        const ChunkWalk &Walk) {
  return [&Chunks, &Next, Cols, &Walk](size_t Worker) {
    for (;;) {
      const size_t K = Next.fetch_add(1, std::memory_order_relaxed);
      if (K >= Chunks.size())
        return;
      Walk(K, Chunks[K], Cols, static_cast<unsigned>(Worker));
    }
  };
}

} // namespace

void bpcr::walkChunks(TraceColumns Cols, size_t NumEvents, size_t ChunkEvents,
                      unsigned Jobs, const ChunkWalk &Walk) {
  const std::vector<EventRange> Chunks = traceChunks(NumEvents, ChunkEvents);
  const size_t Threads = std::min<size_t>(ThreadPool::threadsFor(Jobs),
                                          std::max<size_t>(Chunks.size(), 1));
  std::atomic<size_t> Next{0};
  parallelForJobs(static_cast<unsigned>(Threads), Threads,
                  chunkWorker(Chunks, Next, Cols, Walk));
}

ChunkStream::ChunkStream(TraceColumns Cols, size_t ChunkEvents)
    : Cols(Cols), ChunkEvents(ChunkEvents) {
  assert(ChunkEvents % 64 == 0 &&
         "a streamed chunk ends on a direction word");
}

void ChunkStream::publish(size_t Events) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(Events % ChunkEvents == 0 && Events >= Published);
    Published = Events;
  }
  Ready.notify_one();
}

void ChunkStream::close() {
  std::unique_lock<std::mutex> Lock(Mu);
  Closed = true;
  Ready.notify_all();
  Idle.wait(Lock, [this] { return InFlight == 0; });
}

size_t ChunkStream::claimed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Claimed;
}

void ChunkStream::consume(unsigned Worker, const ChunkWalk &Walk) {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    Ready.wait(Lock, [this] {
      return Closed || (Claimed + 1) * ChunkEvents <= Published;
    });
    if (Closed)
      return;
    const size_t K = Claimed++;
    ++InFlight;
    Lock.unlock();
    std::exception_ptr Err;
    try {
      Walk(K, {K * ChunkEvents, (K + 1) * ChunkEvents}, Cols, Worker);
      Walked.fetch_add(ChunkEvents, std::memory_order_relaxed);
    } catch (...) {
      Err = std::current_exception();
    }
    Lock.lock();
    if (--InFlight == 0)
      Idle.notify_all();
    if (Err) {
      // The chunk stays unwalked; the caller rethrows after the run.
      Closed = true;
      Ready.notify_all();
      std::rethrow_exception(Err);
    }
  }
}

uint64_t bpcr::streamChunks(const ColumnarTrace &Trace, unsigned Jobs,
                            size_t ChunkEvents,
                            const std::function<void()> &Prepare,
                            const std::function<void(ChunkStream *)> &Produce,
                            const ChunkWalk &Walk) {
  assert(Trace.empty() && "a stream starts from an empty trace");
  const unsigned Threads = ThreadPool::threadsFor(Jobs);
  if (Threads <= 1) {
    Produce(nullptr);
    Prepare();
    walkChunks(Trace.columns(), Trace.size(), ChunkEvents, 1, Walk);
    return 0;
  }

  ChunkStream Stream(Trace.columns(), ChunkEvents);
  ThreadPool Pool(Threads - 1);
  Registry &Obs = Registry::global();
  if (Obs.enabled())
    Obs.gauge("pool.threads").set(static_cast<double>(Threads));
  // The first helper prepares; every helper waits for it before walking.
  // Whatever happens, the stream is closed and the helpers are joined
  // before anything they read goes away.
  std::promise<void> Prepared;
  std::shared_future<void> Ready = Prepared.get_future().share();
  std::vector<std::future<void>> Helpers;
  uint64_t Overlap = 0;
  std::exception_ptr Err;
  try {
    Helpers.push_back(Pool.submit([&] {
      try {
        Prepare();
      } catch (...) {
        Prepared.set_exception(std::current_exception());
        throw;
      }
      Prepared.set_value();
      Stream.consume(1, Walk);
    }));
    for (unsigned W = 2; W < Threads; ++W)
      Helpers.push_back(Pool.submit([&Stream, &Walk, Ready, W] {
        Ready.get();
        Stream.consume(W, Walk);
      }));
    Produce(&Stream);
    Overlap = Stream.eventsWalked();
  } catch (...) {
    Err = std::current_exception();
  }
  Stream.close();
  for (std::future<void> &F : Helpers) {
    try {
      F.get();
    } catch (...) {
      if (!Err)
        Err = std::current_exception();
    }
  }
  if (Err)
    std::rethrow_exception(Err);

  // The tail: the last partial chunk and every chunk no helper claimed,
  // on every thread however many are left, so the pool's task count does
  // not depend on the schedule.
  const std::vector<EventRange> Chunks =
      traceChunks(Trace.size(), ChunkEvents);
  std::atomic<size_t> Next{Stream.claimed()};
  Pool.parallelFor(Threads, chunkWorker(Chunks, Next, Trace.columns(), Walk));
  return Overlap;
}
