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
/// the chunks left unclaimed are walked after the run.
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
/// order, on ThreadPool::threadsFor(Jobs) workers (the calling thread is
/// worker 0).
void walkChunks(TraceColumns Cols, size_t NumEvents, size_t ChunkEvents,
                unsigned Jobs, const ChunkWalk &Walk);

/// The hand-off between the producer of a trace and the helpers walking
/// its finished chunks.
class ChunkStream {
public:
  ChunkStream(TraceColumns Cols, size_t ChunkEvents);

  size_t chunkEvents() const { return ChunkEvents; }

  /// Producer: the first \p Events events (a multiple of chunkEvents())
  /// are final.
  void publish(size_t Events);
  /// Producer: nothing more will be published. Returns once no helper
  /// walks a chunk; helpers claim no chunk afterwards. Idempotent.
  void close();

  /// Helper: walks published chunks in order, as worker \p Worker, until
  /// the stream closes.
  void consume(unsigned Worker, const ChunkWalk &Walk);

  /// Chunks 0..claimed()-1 have been handed to helpers; once close() has
  /// returned, each of them has been walked.
  size_t claimed() const;
  /// Events of the chunks whose walk has finished.
  uint64_t eventsWalked() const {
    return Walked.load(std::memory_order_relaxed);
  }

private:
  const TraceColumns Cols;
  const size_t ChunkEvents;
  mutable std::mutex Mu;
  std::condition_variable Ready; // a chunk was published, or closed
  std::condition_variable Idle;  // the last walk in flight finished
  size_t Published = 0;          // events; guarded by Mu
  size_t Claimed = 0;            // chunks; guarded by Mu
  unsigned InFlight = 0;         // guarded by Mu
  bool Closed = false;           // guarded by Mu
  std::atomic<uint64_t> Walked{0};
};

/// Runs \p Produce on the calling thread while ThreadPool::threadsFor(Jobs)
/// - 1 helpers walk the chunks of \p Trace it publishes through the
/// stream it is given (null when there are no helpers, then nothing is
/// walked during the run). \p Prepare runs before the first walk, on a
/// helper while Produce starts (after Produce without helpers): the
/// set-up a walk needs and the run does not. Once Produce returns, every
/// chunk of the finished trace that no helper walked is walked on all
/// threads. \p Trace must be empty and reserved before the call.
/// \returns the events whose walk finished before Produce returned.
uint64_t streamChunks(const ColumnarTrace &Trace, unsigned Jobs,
                      size_t ChunkEvents, const std::function<void()> &Prepare,
                      const std::function<void(ChunkStream *)> &Produce,
                      const ChunkWalk &Walk);

} // namespace bpcr

#endif // BPCR_TRACE_TRACESTREAM_H
