//===- core/LoopAwareProfiles.cpp -----------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LoopAwareProfiles.h"

#include "core/ScoreKernels.h"
#include "obs/TraceSpans.h"
#include "sa/Dataflow.h"
#include "trace/ColumnarTrace.h"

#include <cassert>
#include <map>

using namespace bpcr;

namespace {

/// Tracked loops: innermost loops of loop branches, keyed (func, loop).
struct TrackedLoopSet {
  struct TrackedLoop {
    uint32_t FuncIdx;
    const Loop *L;
  };
  std::vector<TrackedLoop> Loops;
  std::vector<int32_t> LoopOfBranch;

  explicit TrackedLoopSet(const ProgramAnalysis &PA)
      : LoopOfBranch(PA.numBranches(), -1) {
    using LoopKey = std::pair<uint32_t, int32_t>;
    std::map<LoopKey, size_t> LoopIndex;
    for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
      const BranchClass &C = PA.classOf(static_cast<int32_t>(Id));
      if (C.Kind == BranchKind::NonLoop)
        continue;
      LoopKey Key{PA.ref(static_cast<int32_t>(Id)).FuncIdx, C.LoopIdx};
      auto [It, Inserted] = LoopIndex.emplace(Key, Loops.size());
      if (Inserted)
        Loops.push_back(
            {Key.first,
             &PA.loopInfoFor(static_cast<int32_t>(Id))
                  .loops()[static_cast<size_t>(C.LoopIdx)]});
      LoopOfBranch[Id] = static_cast<int32_t>(It->second);
    }
  }
};

} // namespace

ProfileSet bpcr::buildLoopAwareProfiles(const ProgramAnalysis &PA,
                                        const ColumnarTrace &CT,
                                        unsigned MaxBits,
                                        const sa::BranchProofs *Proofs) {
  assert(CT.indexed() && CT.numBranches() == PA.numBranches() &&
         "finalize() the columnar trace for this module first");
  Span FillSpan("profiles.columnar_fill", "kernel");
  uint32_t NumBranches = PA.numBranches();
  ProfileSet P(NumBranches, MaxBits);

  TrackedLoopSet TLS(PA);
  const size_t NumLoops = TLS.Loops.size();

  // Per branch id: which tracked loops contain its block. Loop nesting
  // bounds the list length, so the hot pass below is O(depth) per event.
  std::vector<size_t> ContainOffsets(NumBranches + 1, 0);
  std::vector<uint32_t> ContainLists;
  for (uint32_t Id = 0; Id < NumBranches; ++Id) {
    ContainOffsets[Id] = ContainLists.size();
    const BranchRef &R = PA.ref(static_cast<int32_t>(Id));
    for (size_t LI = 0; LI < NumLoops; ++LI) {
      const TrackedLoopSet::TrackedLoop &TL = TLS.Loops[LI];
      if (TL.FuncIdx == R.FuncIdx && TL.L->contains(R.BlockIdx))
        ContainLists.push_back(static_cast<uint32_t>(LI));
    }
  }
  ContainOffsets[NumBranches] = ContainLists.size();

  // Reset scan. A loop branch b resets before event t iff some event
  // strictly between b's previous execution and t lay outside b's loop.
  // Invariant per tracked loop L: InsideCount[L] = events so far inside L.
  // Per branch b with loop L(b): SnapInside[b] is InsideCount[L(b)] right
  // after b's last execution, so b re-entered its loop iff the events since
  // then were not all inside, i.e.
  //   InsideCount[L] - SnapInside[b] != (t-1) - LastExec[b].
  // (A branch's first execution resets too, unless every earlier event of
  // the trace was inside its loop.)
  std::vector<uint64_t> InsideCount(NumLoops, 0);
  std::vector<uint64_t> SnapInside(NumBranches, 0);
  std::vector<uint64_t> LastExec(NumBranches, 0);
  std::vector<uint64_t> SeenCount(NumBranches, 0);
  std::vector<std::vector<uint64_t>> Resets(NumBranches);

  const auto &Ids = CT.ids();
  for (size_t I = 0, N = Ids.size(); I != N; ++I) {
    const uint64_t Time = static_cast<uint64_t>(I) + 1;
    const uint32_t Id = static_cast<uint32_t>(Ids[I]);
    const int32_t LI = TLS.LoopOfBranch[Id];
    if (LI >= 0) {
      const size_t L = static_cast<size_t>(LI);
      if (InsideCount[L] - SnapInside[Id] != (Time - 1) - LastExec[Id])
        Resets[Id].push_back(SeenCount[Id]);
    }
    for (size_t C = ContainOffsets[Id], E = ContainOffsets[Id + 1]; C != E;
         ++C)
      ++InsideCount[ContainLists[C]];
    if (LI >= 0)
      SnapInside[Id] = InsideCount[static_cast<size_t>(LI)];
    LastExec[Id] = Time;
    ++SeenCount[Id];
  }

  // Per-branch fill from the index: outcome streams are bulk-expanded and
  // the pattern tables come from the flat-count kernel, one segment per
  // reset (each segment starts from a zero history, like resetHistory).
  std::vector<uint64_t> Counts;
  uint64_t KernelEvents = 0;
  KernelCallTally Tally;
  for (uint32_t Id = 0; Id < NumBranches; ++Id) {
    BranchColumn Col = CT.branch(Id);
    if (!Col.Executions)
      continue;
    BranchProfile &BP = P.branchMutable(static_cast<int32_t>(Id));
    BP.DirBits.appendBits(Col.Bits);
    BP.ResetPositions = std::move(Resets[Id]);
    KernelEvents += Col.Executions;

    if (Proofs && Proofs->proven(static_cast<int32_t>(Id)))
      continue; // outcome stream only, table stays empty
    Counts.assign(size_t(2) << MaxBits, 0);
    uint32_t Hist = 0;
    uint64_t Start = 0;
    for (size_t S = 0; S <= BP.ResetPositions.size(); ++S) {
      uint64_t End = S < BP.ResetPositions.size() ? BP.ResetPositions[S]
                                                  : Col.Executions;
      Hist = fillPatternCounts(Col.Bits.data(), Start, End - Start, MaxBits,
                               /*StartHist=*/0, Counts.data());
      Start = End;
    }
    P.assignTable(static_cast<int32_t>(Id), Counts.data(), Hist,
                  Col.Executions);
  }
  FillSpan.arg("events", KernelEvents);
  return P;
}
