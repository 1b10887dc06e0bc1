//===- core/LoopAwareProfiles.h - Invocation-aware profiling ----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profiling that mirrors what loop replication can actually realize: a
/// replicated loop re-enters through its initial-state copy, so the machine
/// state of every loop branch resets whenever control leaves the loop.
/// These profiles reset each loop branch's local history accordingly, which
/// keeps the construction-time assignment scores honest about the accuracy
/// the replicated program will achieve. Plain whole-trace profiles (the
/// semi-static predictor tables of Table 1) deliberately do NOT reset —
/// they model unbounded software history registers.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_LOOPAWAREPROFILES_H
#define BPCR_CORE_LOOPAWAREPROFILES_H

#include "core/BranchProfiles.h"
#include "core/ProgramAnalysis.h"
#include "trace/ColumnarTrace.h"

#include <memory>

namespace bpcr {

namespace sa {
struct BranchProofs;
} // namespace sa

/// Builds per-branch profiles where a loop branch's history resets whenever
/// an event outside its innermost loop occurred since its last execution.
/// Events from other functions count as outside (a fresh call re-enters the
/// loop through its header).
///
/// The reset scan costs O(loop-nesting depth) per event: each tracked loop
/// carries an inside-event counter, and a branch re-entered its loop iff
/// the events since its last execution were not all inside. The pattern
/// tables come from the flat-count fill kernel over the per-branch
/// bitstreams, one segment per reset. \p CT must be finalized for
/// PA.numBranches(). Events whose id is outside [0, PA.numBranches()) lie
/// outside every loop.
///
/// The scan and most of the fill walk the trace chunk by chunk
/// (LoopResetScan) on \p Jobs threads, one fillPatternCounts call per
/// reset segment; the profiles are the same for every job count and
/// chunk size (\p ChunkEvents is for tests).
///
/// When \p Proofs is non-null, branches proven unidirectional record their
/// outcome stream but skip the pattern-table fill — the machine search is
/// pruned for them, so nothing ever reads their table.
ProfileSet buildLoopAwareProfiles(const ProgramAnalysis &PA,
                                  const ColumnarTrace &CT,
                                  unsigned MaxBits = 9,
                                  const sa::BranchProofs *Proofs = nullptr,
                                  unsigned Jobs = 1,
                                  size_t ChunkEvents = TraceChunkEvents);

/// The loop-aware reset scan of buildLoopAwareProfiles, one trace chunk at
/// a time, and the pattern-table fill. Each chunk is scanned as if it were
/// a whole trace; the stitch decides, in chunk order, what a chunk cannot
/// see: whether a branch's first execution in it resets. It runs as the
/// chunks complete, on whichever thread completes the next one in order.
/// A reset segment that begins and ends inside one chunk starts from a
/// zero history, so it is filled with its chunk; the others (a segment
/// that crosses a chunk boundary, and each branch's first and last) are
/// filled from the finished index.
class LoopResetScan {
public:
  /// Scans run on worker indices [0, \p Workers). The tables have \p
  /// MaxBits of history; branches proven in \p Proofs (may be null) get
  /// none.
  LoopResetScan(const ProgramAnalysis &PA, unsigned Workers,
                unsigned MaxBits = 9,
                const sa::BranchProofs *Proofs = nullptr);
  ~LoopResetScan();
  LoopResetScan(const LoopResetScan &) = delete;
  LoopResetScan &operator=(const LoopResetScan &) = delete;

  /// Scans one chunk (a ChunkWalk, trace/TraceStream.h), given its slice
  /// of the index (ColumnarTrace::indexChunk).
  void scanChunk(size_t Chunk, EventRange R, TraceColumns Cols,
                 const ColumnarTrace::ChunkIndex &Slice, unsigned Worker);

  /// Once every chunk of \p CT is scanned and \p CT is finalized: the
  /// rest of the fill on \p Jobs threads. Call once.
  ProfileSet profiles(const ColumnarTrace &CT, unsigned Jobs);

private:
  struct State;
  std::unique_ptr<State> S;
};

} // namespace bpcr

#endif // BPCR_CORE_LOOPAWAREPROFILES_H
