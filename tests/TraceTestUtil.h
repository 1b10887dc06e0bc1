//===- tests/TraceTestUtil.h - Trace builders for the tests -----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers that let tests spell a trace as a list of (branch id,
/// direction) events, read one back the same way, trace a module, collect
/// a run's events one virtual call at a time (the reference the
/// interpreter's compiled-in consumers are checked against), and fit one
/// branch's correlated machine to a trace.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TESTS_TRACETESTUTIL_H
#define BPCR_TESTS_TRACETESTUTIL_H

#include "core/CorrelatedMachine.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "support/Rng.h"
#include "trace/ColumnarTrace.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace bpcr::test {

/// One trace event: (branch id, taken).
using Event = std::pair<int32_t, bool>;

/// Builds an unfinalized trace holding \p Events in order.
inline ColumnarTrace makeTrace(const std::vector<Event> &Events) {
  ColumnarTrace CT;
  CT.reserve(Events.size());
  for (const auto &[Id, Taken] : Events)
    CT.append(Id, Taken);
  return CT;
}

/// Builds a trace and finalizes its index for \p NumBranches ids.
inline ColumnarTrace makeTrace(const std::vector<Event> &Events,
                               uint32_t NumBranches) {
  ColumnarTrace CT = makeTrace(Events);
  CT.finalize(NumBranches);
  return CT;
}

/// The events of \p CT in order.
inline std::vector<Event> eventsOf(const ColumnarTrace &CT) {
  std::vector<Event> Out;
  Out.reserve(CT.size());
  for (size_t I = 0; I < CT.size(); ++I)
    Out.emplace_back(CT.branchId(I), CT.taken(I));
  return Out;
}

/// \p N events with ids below \p MaxId, taken one time in three.
inline ColumnarTrace randomTrace(uint64_t Seed, size_t N, int32_t MaxId) {
  Rng G(Seed);
  ColumnarTrace CT;
  CT.reserve(N);
  for (size_t I = 0; I < N; ++I)
    CT.append(static_cast<int32_t>(G.below(static_cast<uint64_t>(MaxId))),
              G.chance(1, 3));
  return CT;
}

/// Records every event it receives through the per-event onBranch path:
/// the branch's BranchId (OrigBranchId with \p UseOrigIds) and direction.
class PerEventSink : public TraceSink {
public:
  explicit PerEventSink(bool UseOrigIds = false) : UseOrigIds(UseOrigIds) {}
  void onBranch(const Instruction &Br, bool Taken) override {
    Events.emplace_back(UseOrigIds ? Br.OrigBranchId : Br.BranchId, Taken);
  }
  std::vector<Event> Events;

private:
  bool UseOrigIds;
};

/// One execution of a module together with the trace it produced.
struct TracedRun {
  ExecResult Result;
  /// Finalized for the module's conditional-branch count.
  ColumnarTrace Trace;
};

/// Executes \p M (branch ids assigned) and collects its trace. With
/// \p UseOrigIds the trace records original branch ids, so a replicated
/// module's trace compares with its source module's.
inline TracedRun traceModule(const Module &M,
                             const ExecOptions &Opts = ExecOptions(),
                             bool UseOrigIds = false) {
  TracedRun Run;
  Run.Result = executeColumnar(M, Run.Trace, UseOrigIds, Opts);
  Run.Trace.finalize(static_cast<uint32_t>(M.conditionalBranchCount()));
  return Run;
}

/// Profiles \p CT over \p CandidatePaths for one branch and fits its
/// correlated machine.
inline CorrelatedMachine
fitCorrelatedMachine(int32_t BranchId,
                     const std::vector<BranchPath> &CandidatePaths,
                     const ColumnarTrace &CT, const CorrelatedOptions &Opts) {
  std::vector<std::vector<BranchPath>> ByBranch(
      static_cast<size_t>(BranchId) + 1);
  ByBranch[static_cast<size_t>(BranchId)] = CandidatePaths;
  std::vector<PathProfile> Profiles =
      profilePaths(ByBranch, CT, Opts.MaxPathLen);
  return buildCorrelatedMachineFromProfile(
      BranchId, Profiles[static_cast<size_t>(BranchId)], Opts);
}

} // namespace bpcr::test

#endif // BPCR_TESTS_TRACETESTUTIL_H
