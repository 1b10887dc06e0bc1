//===- trace/ColumnarTrace.h - Structure-of-arrays trace --------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The branch trace: the sequence of (branch id, direction) events a program
/// run produces, in execution order. This is the paper's central data
/// structure — every prediction strategy and every state machine is trained
/// on and evaluated against such traces.
///
/// Storage is columnar (structure-of-arrays): two parallel columns — a flat
/// int32 branch-id array and a bit-packed direction stream
/// (trace/Bitstream.h), about 4.1 bytes per event — plus an optional
/// per-branch index: execution count, taken count, and a word-aligned
/// per-branch direction bitstream for every static branch. The whole event
/// path (profile fill, machine scoring, predictor evaluation) walks these
/// flat buffers; see docs/PERFORMANCE.md.
///
/// The passes that read the whole trace (the index below, the loop-aware
/// profiles, the path profiles) walk it in fixed-size chunks
/// (traceChunks) and stitch the per-chunk results back in trace order; the
/// result is the same for every chunk size and job count. A trace being
/// written by the interpreter can be walked chunk by chunk while it grows
/// (trace/TraceStream.h).
///
/// The per-branch bitstream of branch b is the subsequence of direction
/// bits at positions where Ids[i] == b, in global order — the same stream a
/// BranchProfile's DirBits holds.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TRACE_COLUMNARTRACE_H
#define BPCR_TRACE_COLUMNARTRACE_H

#include "support/CountingAlloc.h"
#include "trace/Bitstream.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace bpcr {

/// Event positions [Begin, End) of one chunk of a trace pass.
struct EventRange {
  size_t Begin = 0;
  size_t End = 0;
};

/// Events per chunk of the trace-side passes. A multiple of 64, so a
/// finished chunk ends on a word of the direction column and a streamed
/// walk never reads a word the interpreter still writes; chosen by
/// measurement (docs/PERFORMANCE.md, "Streaming the trace-side walks").
/// The passes take a different value only from tests.
inline constexpr size_t TraceChunkEvents = size_t{1} << 14;

/// Splits [0, \p NumEvents) into consecutive chunks of \p ChunkEvents
/// events, in trace order; the last one holds the remainder. No chunk is
/// empty, so an empty trace has none.
std::vector<EventRange> traceChunks(size_t NumEvents,
                                    size_t ChunkEvents = TraceChunkEvents);

/// Raw pointers to the two event columns. A chunk walk reads the trace
/// through them, so it can run while the interpreter appends beyond the
/// chunk (the columns do not move while they stay within their
/// reservation).
struct TraceColumns {
  const int32_t *Ids = nullptr;
  const uint64_t *Dirs = nullptr;

  bool taken(size_t I) const { return (Dirs[I >> 6] >> (I & 63)) & 1; }
};

/// Per-branch slice of the columnar index.
struct BranchColumn {
  uint64_t Executions = 0;
  uint64_t TakenCount = 0;
  /// Direction bits of this branch's events in execution order,
  /// word-aligned so kernels can walk it without bit-offset fixups.
  BitstreamView Bits;
};

class ColumnarTrace {
public:
  /// The id column is one of the process's largest allocations, so it
  /// reports into the opt-in allocation tracker (support/CountingAlloc.h)
  /// for `bpcr profile`.
  using IdVector =
      std::vector<int32_t, CountingAllocator<int32_t, AllocTag::TraceBuffer>>;

  ColumnarTrace() = default;

  void reserve(size_t N) {
    Ids.reserve(N);
    Dirs.reserveBits(N);
  }

  /// Events the columns hold without moving.
  size_t reservedEvents() const {
    return std::min(Ids.capacity(), Dirs.capacityBits());
  }

  TraceColumns columns() const { return {Ids.data(), Dirs.view().data()}; }

  /// One past the last id: the end the interpreter's emitter checks for a
  /// chunk boundary.
  const int32_t *idsEnd() const { return Ids.data() + Ids.size(); }

  /// Appends one event. Invalidates the index.
  void append(int32_t BranchId, bool Taken) {
    Ids.push_back(BranchId);
    Dirs.push(Taken);
    Indexed = false;
  }

  /// Drops all events and the index.
  void clear() {
    Ids.clear();
    Dirs.clear();
    Indexed = false;
    Counts.clear();
    TakenCounts.clear();
    WordOffsets.clear();
    BranchWords.clear();
    OutOfRangeEvents = 0;
  }

  /// Appends \p Run identical events (run-length decode fast path).
  void appendRun(int32_t BranchId, bool Taken, uint64_t Run) {
    Ids.insert(Ids.end(), static_cast<size_t>(Run), BranchId);
    Dirs.appendRun(Taken, Run);
    Indexed = false;
  }

  size_t size() const { return Ids.size(); }
  bool empty() const { return Ids.empty(); }

  int32_t branchId(size_t I) const { return Ids[I]; }
  bool taken(size_t I) const { return Dirs.bit(I); }

  const IdVector &ids() const { return Ids; }
  /// Global direction stream, one bit per event in trace order.
  BitstreamView directions() const { return Dirs.view(); }

  /// Builds the per-branch index for ids in [0, NumBranches): execution
  /// and taken counts plus the word-aligned per-branch bitstreams. Events
  /// with out-of-range ids are counted in outOfRange() and left out of the
  /// index (mirrors sa::BranchProfileCounts::fromColumnar). The chunks
  /// (traceChunks) are indexed on \p Jobs threads and then joined; the
  /// index is the same for every value. Records `trace.columnar.*`
  /// metrics when the observability registry is on.
  void finalize(uint32_t NumBranches, unsigned Jobs = 1,
                size_t ChunkEvents = TraceChunkEvents);

  /// One chunk's slice of the index: for each branch id in [0,
  /// NumBranches), its events in the chunk and their direction bits,
  /// packed from the word FirstWord[b] of Words.
  struct ChunkIndex {
    std::vector<uint64_t> Counts;
    std::vector<size_t> FirstWord;
    std::vector<uint64_t> Words;
    /// Events whose id is outside [0, NumBranches).
    uint64_t OutOfRange = 0;
  };

  /// Indexes the events \p Chunk of \p Cols into \p Out.
  static void indexChunk(TraceColumns Cols, EventRange Chunk,
                         uint32_t NumBranches, ChunkIndex &Out);

  /// finalize() from the slices of every chunk of the trace, in trace
  /// order: each branch's bitstream is its slices laid end to end.
  void finalizeChunks(uint32_t NumBranches,
                      const std::vector<ChunkIndex> &Chunks);

  bool indexed() const { return Indexed; }
  uint32_t numBranches() const {
    return static_cast<uint32_t>(Counts.size());
  }
  uint64_t outOfRange() const { return OutOfRangeEvents; }

  /// Index lookups; finalize() must have run.
  BranchColumn branch(uint32_t Id) const {
    BranchColumn C;
    C.Executions = Counts[Id];
    C.TakenCount = TakenCounts[Id];
    C.Bits = BitstreamView(BranchWords.data() + WordOffsets[Id], Counts[Id]);
    return C;
  }

  /// Bytes held by the id column, direction column and index — the
  /// numerator of the bytes/event figure in `micro_throughput`.
  size_t bytesUsed() const;

private:
  IdVector Ids;
  BitstreamBuilder Dirs;

  // Index (valid while Indexed).
  bool Indexed = false;
  std::vector<uint64_t> Counts;
  std::vector<uint64_t> TakenCounts;
  std::vector<size_t> WordOffsets;
  BitstreamBuilder::WordVector BranchWords;
  uint64_t OutOfRangeEvents = 0;
};

} // namespace bpcr

#endif // BPCR_TRACE_COLUMNARTRACE_H
