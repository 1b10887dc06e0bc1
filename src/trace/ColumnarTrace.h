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
/// profiles, the path profiles) split it into contiguous event ranges, one
/// per job, and stitch the per-range results back in trace order; the
/// result is the same for every job count.
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

#include <cstdint>
#include <vector>

namespace bpcr {

/// Event positions [Begin, End) of one shard of a trace pass.
struct EventRange {
  size_t Begin = 0;
  size_t End = 0;
};

/// Splits [0, \p NumEvents) into contiguous ranges of near-equal length, in
/// trace order: one per job, with \p Jobs resolved like every `--jobs`
/// knob (0 = one per hardware core). Ranges are empty when there are more
/// jobs than events.
std::vector<EventRange> eventRanges(size_t NumEvents, unsigned Jobs);

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
  /// index (mirrors sa::BranchProfileCounts::fromColumnar). The two
  /// passes over the columns run over \p Jobs event ranges (see
  /// eventRanges); the index is the same for every value. Records
  /// `trace.columnar.*` metrics when the observability registry is on.
  void finalize(uint32_t NumBranches, unsigned Jobs = 1);

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
