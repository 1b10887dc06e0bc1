//===- interp/Interpreter.h - IR execution engine ---------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a module and streams its branch events to a consumer. This
/// replaces the paper's assembly-level instrumentation of native binaries:
/// the evaluation consumes only the branch event stream, which the
/// interpreter produces exactly.
///
/// The two consumers on the pipeline's hot path, the columnar trace and
/// prediction scoring, are compiled into the interpreter loop
/// (executeColumnar, executeScored): each event is one append or one
/// counter bump, with no staging copy and no virtual call. Any other
/// consumer implements TraceSink and receives events in batches.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_INTERP_INTERPRETER_H
#define BPCR_INTERP_INTERPRETER_H

#include "interp/InstrListener.h"
#include "interp/TraceSink.h"
#include "ir/Module.h"
#include "trace/ColumnarTrace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bpcr {

class ChunkStream;

/// Execution limits. The branch-event cap mirrors the paper: "We traced the
/// whole program up to a maximum of [1] million branch instructions."
struct ExecOptions {
  uint64_t MaxInstructions = 500'000'000;
  uint64_t MaxBranchEvents = UINT64_MAX;
  uint32_t MaxCallDepth = 4096;
  /// Arguments passed to the entry function.
  std::vector<int64_t> EntryArgs;
  /// Optional per-instruction hook (instruction-cache simulation); slows
  /// execution down noticeably when set.
  InstrListener *Listener = nullptr;
};

/// Outcome of one execution.
struct ExecResult {
  /// False on a runtime error (bad memory access, fuel exhaustion, ...).
  bool Ok = false;
  std::string Error;
  /// Entry function return value (meaningful when Ok).
  int64_t ReturnValue = 0;
  uint64_t InstructionsExecuted = 0;
  uint64_t BranchEvents = 0;
  /// True when execution stopped early because MaxBranchEvents was reached;
  /// the run still counts as Ok (the paper truncates traces the same way).
  bool HitBranchLimit = false;
  /// Final data memory image (for output comparison in tests).
  std::vector<int64_t> Memory;
};

/// Runs \p M from its entry function.
///
/// \param Sink receives every conditional branch outcome; may be null.
/// \returns the execution outcome; on error, Error describes the failure and
///          the partially executed state is still reported.
ExecResult execute(const Module &M, TraceSink *Sink = nullptr,
                   const ExecOptions &Opts = ExecOptions());

/// Runs \p M and appends every conditional branch event to \p Out: the
/// branch's BranchId (its OrigBranchId with \p UseOrigIds, so a replicated
/// program's trace compares with its source program's) and its direction.
/// \p Out is not finalized.
///
/// With a \p Stream (trace/TraceStream.h), \p Out must start empty; each
/// completed chunk of events is published to it while it fits in \p Out's
/// reservation. A chunk that would not fit closes the stream before its
/// first event is appended, and the stream is closed when the run stops,
/// however it stops.
ExecResult executeColumnar(const Module &M, ColumnarTrace &Out,
                           bool UseOrigIds = false,
                           const ExecOptions &Opts = ExecOptions(),
                           ChunkStream *Stream = nullptr);

/// Outcome counts of one conditional branch instruction in a scoring run.
struct BranchScore {
  const Instruction *Br = nullptr;
  uint64_t Executions = 0;
  /// Outcomes that disagree with Br's Predicted annotation; anything but
  /// an explicit NotTaken predicts taken.
  uint64_t Mispredictions = 0;
};

/// Runs \p M and scores every conditional branch's static prediction
/// against its outcomes. \p Scores receives one entry per conditional
/// branch instruction, in function, block and instruction order. \p Extra,
/// when non-null, additionally receives every event through the batched
/// TraceSink path.
ExecResult executeScored(const Module &M, std::vector<BranchScore> &Scores,
                         const ExecOptions &Opts = ExecOptions(),
                         TraceSink *Extra = nullptr);

} // namespace bpcr

#endif // BPCR_INTERP_INTERPRETER_H
