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

namespace bpcr {

class ColumnarTrace;

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
/// The scan runs over \p Jobs event ranges (see eventRanges in
/// trace/ColumnarTrace.h) and the fill over tasks of whole reset
/// segments; the profiles are the same for every value.
///
/// When \p Proofs is non-null, branches proven unidirectional record their
/// outcome stream but skip the pattern-table fill — the machine search is
/// pruned for them, so nothing ever reads their table.
ProfileSet buildLoopAwareProfiles(const ProgramAnalysis &PA,
                                  const ColumnarTrace &CT,
                                  unsigned MaxBits = 9,
                                  const sa::BranchProofs *Proofs = nullptr,
                                  unsigned Jobs = 1);

} // namespace bpcr

#endif // BPCR_CORE_LOOPAWAREPROFILES_H
