//===- trace/TraceStream.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceStream.h"

#include "support/ThreadPool.h"

#include <cassert>
#include <cstdint>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

using namespace bpcr;

namespace {

/// Chunks past the published events whose pages are faulted in: the one
/// the producer writes and the next.
constexpr size_t FaultAheadChunks = 2;

/// Faults in the pages of [Begin, End), writable, leaving their contents
/// alone. Before Linux 5.14 the call fails with EINVAL and the producer's
/// writes fault the pages in as before.
void populateWritable([[maybe_unused]] const void *Begin,
                      [[maybe_unused]] const void *End) {
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  const uintptr_t Page = static_cast<uintptr_t>(getpagesize());
  const uintptr_t From = reinterpret_cast<uintptr_t>(Begin) & ~(Page - 1);
  const uintptr_t To = reinterpret_cast<uintptr_t>(End);
  if (To > From)
    (void)madvise(reinterpret_cast<void *>(From), To - From,
                  MADV_POPULATE_WRITE);
#endif
}

} // namespace

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

ChunkStream::ChunkStream(TraceColumns Cols, size_t ChunkEvents, bool Prepared,
                         size_t ReservedEvents)
    : Cols(Cols), ChunkEvents(ChunkEvents), Reserved(ReservedEvents),
      IsPrepared(Prepared) {
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

void ChunkStream::faultAhead() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (faultNext(Lock)) {
  }
}

bool ChunkStream::faultable() const {
  return Reserved > 0 && !Paused && !Finished && !Failed &&
         Faulted < Published / ChunkEvents + FaultAheadChunks &&
         Faulted * ChunkEvents < Reserved;
}

bool ChunkStream::faultNext(std::unique_lock<std::mutex> &Lock) {
  if (!faultable())
    return false;
  const size_t K = Faulted++;
  const TraceColumns C = Cols;
  ++InFlight;
  Lock.unlock();
  const size_t Begin = K * ChunkEvents;
  const size_t End = std::min(Begin + ChunkEvents, Reserved);
  populateWritable(C.Ids + Begin, C.Ids + End);
  populateWritable(C.Dirs + Begin / 64, C.Dirs + (End + 63) / 64);
  Lock.lock();
  endInFlight();
  return true;
}

void ChunkStream::endInFlight() {
  if (--InFlight == 0)
    Idle.notify_all();
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
    Ready.wait(Lock,
               [this] { return drained() || faultable() || claimable(); });
    if (drained())
      return;
    if (faultNext(Lock))
      continue;
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
      endInFlight();
      Failed = true;
      Ready.notify_all();
      throw;
    }
    Walked.fetch_add(R.End - R.Begin, std::memory_order_relaxed);
    Lock.lock();
    endInFlight();
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
  // others, worker 1 faults in the first chunks and prepares before it
  // walks, and no chunk is claimed before it has. A failure anywhere fails
  // the stream, so every worker returns and the round rethrows it.
  ChunkStream Stream(Trace.columns(), ChunkEvents, /*Prepared=*/false,
                     Trace.reservedEvents());
  uint64_t Overlap = 0;
  runOnThreads(Threads, [&](unsigned W) {
    try {
      if (W == 0) {
        Produce(&Stream);
        Overlap = Stream.eventsWalked();
        Stream.finish(Trace.columns(), Trace.size());
      } else if (W == 1) {
        Stream.faultAhead();
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
