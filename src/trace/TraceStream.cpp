//===- trace/TraceStream.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceStream.h"

#include "support/ThreadPool.h"

#include <cassert>

using namespace bpcr;

void bpcr::walkChunks(TraceColumns Cols, size_t NumEvents, size_t ChunkEvents,
                      unsigned Jobs, const ChunkWalk &Walk) {
  ChunkStream Stream(Cols, ChunkEvents);
  Stream.finish(Cols, NumEvents);
  const size_t Chunks = (NumEvents + ChunkEvents - 1) / ChunkEvents;
  const size_t Threads =
      std::min<size_t>(threadsFor(Jobs), std::max<size_t>(Chunks, 1));
  runOnThreads(static_cast<unsigned>(Threads),
               [&](unsigned W) { Stream.consume(W, Walk); });
}

ChunkStream::ChunkStream(TraceColumns Cols, size_t ChunkEvents, bool Prepared)
    : Cols(Cols), ChunkEvents(ChunkEvents), IsPrepared(Prepared) {
  assert(ChunkEvents > 0 && "a chunk holds at least one event");
}

void ChunkStream::publish(size_t Events) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(ChunkEvents % 64 == 0 &&
           "a published chunk ends on a direction word");
    assert(Events % ChunkEvents == 0 && Events >= Published && !Finished);
    Published = Events;
  }
  Ready.notify_one();
}

void ChunkStream::close() {
  std::unique_lock<std::mutex> Lock(Mu);
  Paused = true;
  Idle.wait(Lock, [this] { return InFlight == 0; });
}

void ChunkStream::finish(TraceColumns Final, size_t Events) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(Events >= Published && "a finished trace keeps its events");
    Cols = Final;
    Published = Events;
    Paused = false;
    Finished = true;
  }
  Ready.notify_all();
}

void ChunkStream::prepared() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    IsPrepared = true;
  }
  Ready.notify_all();
}

void ChunkStream::fail() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Failed = true;
  }
  Ready.notify_all();
}

bool ChunkStream::claimable() const {
  const size_t Begin = Claimed * ChunkEvents;
  return IsPrepared && !Paused &&
         (Finished ? Begin < Published : Begin + ChunkEvents <= Published);
}

bool ChunkStream::drained() const {
  return Failed || (Finished && Claimed * ChunkEvents >= Published);
}

void ChunkStream::consume(unsigned Worker, const ChunkWalk &Walk) {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    Ready.wait(Lock, [this] { return drained() || claimable(); });
    if (drained())
      return;
    const size_t K = Claimed++;
    const EventRange R{K * ChunkEvents,
                       std::min((K + 1) * ChunkEvents, Published)};
    const TraceColumns C = Cols;
    ++InFlight;
    Lock.unlock();
    try {
      Walk(K, R, C, Worker);
    } catch (...) {
      Lock.lock();
      if (--InFlight == 0)
        Idle.notify_all();
      Failed = true;
      Ready.notify_all();
      throw;
    }
    Walked.fetch_add(R.End - R.Begin, std::memory_order_relaxed);
    Lock.lock();
    if (--InFlight == 0)
      Idle.notify_all();
  }
}

uint64_t bpcr::streamChunks(const ColumnarTrace &Trace, unsigned Jobs,
                            size_t ChunkEvents,
                            const std::function<void()> &Prepare,
                            const std::function<void(ChunkStream *)> &Produce,
                            const ChunkWalk &Walk) {
  assert(Trace.empty() && "a stream starts from an empty trace");
  const unsigned Threads = threadsFor(Jobs);
  if (Threads <= 1) {
    Produce(nullptr);
    Prepare();
    walkChunks(Trace.columns(), Trace.size(), ChunkEvents, 1, Walk);
    return 0;
  }

  // One round: worker 0 produces and then walks what is left with the
  // others, worker 1 prepares before it walks, and no chunk is claimed
  // before it has. A failure anywhere fails the stream, so every worker
  // returns and the round rethrows it.
  ChunkStream Stream(Trace.columns(), ChunkEvents, /*Prepared=*/false);
  uint64_t Overlap = 0;
  runOnThreads(Threads, [&](unsigned W) {
    try {
      if (W == 0) {
        Produce(&Stream);
        Overlap = Stream.eventsWalked();
        Stream.finish(Trace.columns(), Trace.size());
      } else if (W == 1) {
        Prepare();
        Stream.prepared();
      }
      Stream.consume(W, Walk);
    } catch (...) {
      Stream.fail();
      throw;
    }
  });
  return Overlap;
}
