//===- interp/TraceSink.h - Branch event consumer ---------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hook through which the interpreter reports every executed conditional
/// branch, mirroring the paper's inserted trace code that "writes trace
/// information to a file ... the branch number and the branch direction".
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_INTERP_TRACESINK_H
#define BPCR_INTERP_TRACESINK_H

#include "ir/Instruction.h"

#include <cstddef>

namespace bpcr {

/// One buffered branch event: the interpreter batches these and flushes a
/// block at a time instead of paying a virtual call per event.
struct BranchBatchEvent {
  const Instruction *Br;
  bool Taken;
};

/// Receives executed conditional branches, either one at a time or in
/// batches. This is the interpreter's generic consumer interface (the
/// timeline recorder, tests' reference collectors); the columnar trace and
/// prediction scoring are compiled into the interpreter instead
/// (executeColumnar and executeScored in interp/Interpreter.h).
class TraceSink {
public:
  virtual ~TraceSink();

  /// Called after the branch condition of \p Br was evaluated to \p Taken.
  /// The instruction carries BranchId, OrigBranchId and any static
  /// prediction annotation.
  virtual void onBranch(const Instruction &Br, bool Taken) = 0;

  /// Batched delivery: \p N events in execution order. The interpreter
  /// calls only this (one virtual call per buffer flush); the default
  /// forwards event-at-a-time so per-event sinks observe the exact
  /// stream. Columnar/bulk sinks override it to append whole batches.
  virtual void onBatch(const BranchBatchEvent *Events, size_t N) {
    for (size_t I = 0; I < N; ++I)
      onBranch(*Events[I].Br, Events[I].Taken);
  }
};

} // namespace bpcr

#endif // BPCR_INTERP_TRACESINK_H
