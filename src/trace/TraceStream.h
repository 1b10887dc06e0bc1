//===- trace/TraceStream.h - Chunk walks over a growing trace ---*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walks a columnar trace chunk by chunk (traceChunks), either after the
/// fact (walkChunks) or while the interpreter still writes it
/// (streamChunks). Both hand the same chunks to the same per-chunk walk,
/// so a pass has one implementation, and its per-chunk results stitch the
/// same way whichever thread walked a chunk and when.
///
/// The publish protocol: the producer (the interpreter's columnar
/// emitter) appends events into a trace reserved up front, and each time
/// it completes a chunk it publishes the event count under the stream's
/// lock. Helpers claim published chunks in order and read them through
/// raw column pointers (TraceColumns): a published chunk ends on a word
/// of the direction column, so the producer never writes a word a helper
/// reads, and the columns do not move while they stay within their
/// reservation. A producer about to outgrow the reservation closes the
/// stream first; close() returns once no helper reads the columns, and
/// the chunks left unclaimed are walked after the run, through the same
/// claim loop (ChunkStream::finish).
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TRACE_TRACESTREAM_H
#define BPCR_TRACE_TRACESTREAM_H

#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace bpcr {

/// The per-chunk work of a walk: chunk \p Chunk, events \p R of \p Cols, on
/// worker \p Worker. Calls for different chunks may run concurrently, but
/// never two with the same worker index, so a walk keeps scratch state per
/// worker.
using ChunkWalk = std::function<void(size_t Chunk, EventRange R,
                                     TraceColumns Cols, unsigned Worker)>;

/// Results a walk keeps per chunk: collected per worker without a lock
/// while the chunks are walked, handed back in chunk order afterwards.
template <class T> class ChunkResults {
public:
  explicit ChunkResults(unsigned Workers)
      : PerWorker(std::max(Workers, 1u)) {}

  /// A fresh result for chunk \p Chunk; only worker \p Worker touches it.
  T &add(size_t Chunk, unsigned Worker) {
    return PerWorker[Worker].emplace_back(Chunk, T()).second;
  }

  /// Every chunk's result in chunk order, once each chunk 0..N-1 has
  /// exactly one.
  std::vector<T> take() {
    std::vector<std::pair<size_t, T>> All;
    for (std::vector<std::pair<size_t, T>> &L : PerWorker)
      for (std::pair<size_t, T> &R : L)
        All.push_back(std::move(R));
    PerWorker.assign(PerWorker.size(), {});
    std::sort(All.begin(), All.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    std::vector<T> Out;
    Out.reserve(All.size());
    for (size_t K = 0; K < All.size(); ++K) {
      assert(All[K].first == K && "every chunk walked exactly once");
      Out.push_back(std::move(All[K].second));
    }
    return Out;
  }

private:
  std::vector<std::vector<std::pair<size_t, T>>> PerWorker;
};

/// Walks every chunk of the first \p NumEvents events of \p Cols, in any
/// order, on threadsFor(Jobs) workers (the calling thread is worker 0):
/// a finished stream that every worker consumes.
void walkChunks(TraceColumns Cols, size_t NumEvents, size_t ChunkEvents,
                unsigned Jobs, const ChunkWalk &Walk);

/// The one chunk-claim loop of every walk. Workers claim chunks in order
/// and walk them. A producer still writing the trace publishes each chunk
/// it completes, pauses claiming (close) before the columns may move, and
/// once the trace is final hands every chunk left, the partial last one
/// included, to the same workers (finish).
class ChunkStream {
public:
  /// A stream over the chunks of \p Cols. Unless \p Prepared, no chunk
  /// is claimed before prepared().
  ChunkStream(TraceColumns Cols, size_t ChunkEvents, bool Prepared = true);

  size_t chunkEvents() const { return ChunkEvents; }

  /// Producer: the first \p Events events (a multiple of chunkEvents())
  /// are final.
  void publish(size_t Events);
  /// Producer: claiming pauses until finish(). Returns once no chunk is
  /// being walked. Idempotent.
  void close();
  /// The trace is final: its first \p Events events, read through \p Cols
  /// (the columns may have moved since the stream began). Every chunk not
  /// claimed yet can be claimed, and consume() returns once none is left.
  void finish(TraceColumns Cols, size_t Events);
  /// The walk's set-up is done: chunks may be claimed.
  void prepared();
  /// Something failed: no chunk is claimed any more. Idempotent.
  void fail();

  /// Claims and walks chunks, as worker \p Worker, until the stream is
  /// finished and none is left, or it failed. A walk that throws fails the
  /// stream and the exception propagates.
  void consume(unsigned Worker, const ChunkWalk &Walk);

  /// Events of the chunks whose walk has finished.
  uint64_t eventsWalked() const {
    return Walked.load(std::memory_order_relaxed);
  }

private:
  bool claimable() const;
  bool drained() const;

  TraceColumns Cols; // guarded by Mu
  const size_t ChunkEvents;
  std::mutex Mu;
  std::condition_variable Ready; // a chunk can be claimed, or none will be
  std::condition_variable Idle;  // the last walk in flight finished
  size_t Published = 0;          // events; guarded by Mu
  size_t Claimed = 0;            // chunks; guarded by Mu
  unsigned InFlight = 0;         // guarded by Mu
  bool IsPrepared;               // guarded by Mu
  bool Paused = false;           // guarded by Mu
  bool Finished = false;         // guarded by Mu
  bool Failed = false;           // guarded by Mu
  std::atomic<uint64_t> Walked{0};
};

/// Runs \p Produce on the calling thread while threadsFor(Jobs) - 1
/// helpers walk the chunks of \p Trace it publishes through the stream it
/// is given (null when there are no helpers, then nothing is walked during
/// the run). \p Prepare runs before the first walk, on a helper while
/// Produce starts (after Produce without helpers): the set-up a walk needs
/// and the run does not. Once Produce returns, every chunk of the finished
/// trace that no helper claimed is walked on all threads. One fork-join
/// round: an exception from any of the three is rethrown once every
/// thread has joined. \p Trace must be empty and reserved before the call.
/// \returns the events whose walk finished before Produce returned.
uint64_t streamChunks(const ColumnarTrace &Trace, unsigned Jobs,
                      size_t ChunkEvents, const std::function<void()> &Prepare,
                      const std::function<void(ChunkStream *)> &Produce,
                      const ChunkWalk &Walk);

} // namespace bpcr

#endif // BPCR_TRACE_TRACESTREAM_H
