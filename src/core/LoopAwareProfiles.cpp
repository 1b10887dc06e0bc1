//===- core/LoopAwareProfiles.cpp -----------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LoopAwareProfiles.h"

#include "core/ScoreKernels.h"
#include "obs/TraceSpans.h"
#include "sa/Dataflow.h"
#include "support/ThreadPool.h"
#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>
#include <utility>

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

/// One event range's reset scan, run as if the range were a whole trace.
/// The stitch then decides what a range cannot see: whether a branch's
/// first execution in the range resets, which depends on the events since
/// its last execution in earlier ranges.
struct RangeScan {
  /// A reset at the branch's local execution index.
  struct LocalReset {
    uint32_t Id;
    uint32_t Pos;
  };
  /// Per branch: executions in the range; after the stitch, executions in
  /// earlier ranges (the offset of the range's local indices).
  std::vector<uint64_t> Seen;
  /// Per branch: entries in Resets; after the stitch, the ResetPositions
  /// slot the range's first reset of the branch fills.
  std::vector<uint64_t> ResetCount;
  /// Per branch: not every event of the range before its first execution
  /// was inside its loop (the entry at local index 0 of Resets); after the
  /// stitch, its first execution resets.
  std::vector<uint8_t> LeadReset;
  /// Per loop branch: every event of the range after its last execution
  /// (all of them, if it did not execute) was inside its loop.
  std::vector<uint8_t> CleanAfter;
  /// Every reset the range saw, in event order.
  std::vector<LocalReset> Resets;
};

/// Pattern-table fill work: reset segments [FirstSeg, EndSeg) of one
/// branch. A branch with a single task is filled, expanded and assigned by
/// it; a longer branch is split at segment boundaries into parts whose
/// counts are summed afterwards (each segment starts from a zero history,
/// so the parts are independent).
struct FillTask {
  uint32_t Id;
  uint64_t FirstSeg;
  uint64_t EndSeg;
  uint64_t Events;
  /// The split branch the part belongs to.
  uint32_t Split;
  /// Index into the part buffers, or -1 for a whole-branch task.
  int64_t Part;
};

} // namespace

ProfileSet bpcr::buildLoopAwareProfiles(const ProgramAnalysis &PA,
                                        const ColumnarTrace &CT,
                                        unsigned MaxBits,
                                        const sa::BranchProofs *Proofs,
                                        unsigned Jobs) {
  assert(CT.indexed() && CT.numBranches() == PA.numBranches() &&
         "finalize() the columnar trace for this module first");
  Span FillSpan("profiles.columnar_fill", "kernel");
  uint32_t NumBranches = PA.numBranches();
  ProfileSet P(NumBranches, MaxBits);

  TrackedLoopSet TLS(PA);
  const size_t NumLoops = TLS.Loops.size();

  // Per branch id: its context, the sorted list of tracked loops that
  // contain its block (branches in one loop nest share it), and the slot
  // of its own loop. Slot NumLoops belongs to no context, so it never
  // counts a leave: a non-loop branch never resets.
  const uint32_t NoLoop = static_cast<uint32_t>(NumLoops);
  std::vector<uint32_t> LoopSlot(NumBranches, NoLoop);
  std::vector<uint32_t> CtxOf(NumBranches);
  std::vector<std::vector<uint32_t>> Contexts;
  {
    std::map<std::vector<uint32_t>, uint32_t> CtxIndex;
    for (uint32_t Id = 0; Id < NumBranches; ++Id) {
      const BranchRef &R = PA.ref(static_cast<int32_t>(Id));
      std::vector<uint32_t> Containing;
      for (size_t LI = 0; LI < NumLoops; ++LI) {
        const TrackedLoopSet::TrackedLoop &TL = TLS.Loops[LI];
        if (TL.FuncIdx == R.FuncIdx && TL.L->contains(R.BlockIdx))
          Containing.push_back(static_cast<uint32_t>(LI));
      }
      auto [It, Inserted] = CtxIndex.emplace(
          std::move(Containing), static_cast<uint32_t>(Contexts.size()));
      if (Inserted)
        Contexts.push_back(It->first);
      CtxOf[Id] = It->second;
      if (TLS.LoopOfBranch[Id] >= 0)
        LoopSlot[Id] = static_cast<uint32_t>(TLS.LoopOfBranch[Id]);
    }
  }
  // Two more contexts: events whose id has no branch are outside every
  // loop, and each range starts as if the event before it were inside
  // every loop.
  const uint32_t OutsideCtx = static_cast<uint32_t>(Contexts.size());
  Contexts.emplace_back();
  const uint32_t StartCtx = static_cast<uint32_t>(Contexts.size());
  Contexts.emplace_back(NumLoops);
  for (uint32_t L = 0; L < NumLoops; ++L)
    Contexts.back()[L] = L;

  // Reset scan, one range per job. A loop branch b resets before event t
  // iff some event strictly between b's previous execution and t lay
  // outside b's loop. Per tracked loop L, Leaves[L] counts the events
  // outside L whose predecessor was inside it; b executes inside L(b), so
  // an outside event follows b's last execution iff Leaves[L(b)] has grown
  // since (LeaveSnap[b]). Leaves change only where consecutive events
  // have different contexts. (A branch's first execution resets too,
  // unless every earlier event of the trace was inside its loop.)
  const std::vector<EventRange> Ranges = eventRanges(CT.size(), Jobs);
  std::vector<RangeScan> Scans(Ranges.size());
  const auto &Ids = CT.ids();
  parallelForJobs(Jobs, Ranges.size(), [&](size_t R) {
    RangeScan &S = Scans[R];
    S.Seen.assign(NumBranches, 0);
    S.ResetCount.assign(NumBranches, 0);
    S.LeadReset.assign(NumBranches, 0);
    S.CleanAfter.assign(NumBranches, 0);
    std::vector<uint64_t> Leaves(NumLoops + 1, 0);
    std::vector<uint64_t> LeaveSnap(NumBranches, 0);
    const size_t Begin = Ranges[R].Begin, End = Ranges[R].End;
    assert(End - Begin <= UINT32_MAX && "local reset positions are 32-bit");
    // Every event writes a reset entry and keeps it only if it reset, so
    // the loop has no data-dependent branch beyond the context check; the
    // buffer keeps a spare slot.
    std::vector<RangeScan::LocalReset> &Resets = S.Resets;
    Resets.resize(1024);
    RangeScan::LocalReset *Out = Resets.data();
    size_t NumResets = 0, Capacity = Resets.size();
    const int32_t *IdCol = Ids.data();
    const uint32_t *Slot = LoopSlot.data(), *Ctx = CtxOf.data();
    uint64_t *Leave = Leaves.data(), *Snap = LeaveSnap.data();
    uint64_t *Seen = S.Seen.data();
    uint32_t Cur = StartCtx;
    for (size_t I = Begin; I != End; ++I) {
      const uint32_t Id = static_cast<uint32_t>(IdCol[I]);
      const bool Known = Id < NumBranches;
      const uint32_t Next = Known ? Ctx[Id] : OutsideCtx;
      if (Next != Cur) {
        // Loops of Cur that Next is not inside (both lists sorted).
        const std::vector<uint32_t> &From = Contexts[Cur];
        const std::vector<uint32_t> &To = Contexts[Next];
        for (size_t F = 0, T = 0; F < From.size(); ++F) {
          while (T < To.size() && To[T] < From[F])
            ++T;
          if (T == To.size() || To[T] != From[F])
            ++Leave[From[F]];
        }
        Cur = Next;
      }
      if (!Known)
        continue;
      const uint64_t Now = Leave[Slot[Id]];
      const uint64_t Execs = Seen[Id];
      Out[NumResets] = {Id, static_cast<uint32_t>(Execs)};
      NumResets += Now != Snap[Id];
      if (NumResets == Capacity) {
        Resets.resize(2 * Capacity);
        Out = Resets.data();
        Capacity = Resets.size();
      }
      Snap[Id] = Now;
      Seen[Id] = Execs + 1;
    }
    Resets.resize(NumResets);
    for (const RangeScan::LocalReset &L : Resets) {
      ++S.ResetCount[L.Id];
      S.LeadReset[L.Id] |= L.Pos == 0;
    }
    for (uint32_t Id = 0; Id < NumBranches; ++Id)
      S.CleanAfter[Id] = Leaves[LoopSlot[Id]] == LeaveSnap[Id];
  });

  // Stitch, in range order. Clean[b]: every event since b's last
  // execution in the ranges so far was inside its loop (true before its
  // first execution while every event was inside). A range's first
  // execution of b resets iff the range says so or the carry is not clean.
  std::vector<uint8_t> Clean(NumBranches, 1);
  std::vector<uint64_t> Execs(NumBranches, 0), Filled(NumBranches, 0);
  for (RangeScan &S : Scans) {
    for (uint32_t Id = 0; Id < NumBranches; ++Id) {
      if (LoopSlot[Id] == NoLoop)
        continue; // never resets
      if (!S.Seen[Id]) {
        Clean[Id] &= S.CleanAfter[Id];
        continue;
      }
      const uint64_t Later = S.ResetCount[Id] - S.LeadReset[Id];
      S.LeadReset[Id] |= !Clean[Id];
      Clean[Id] = S.CleanAfter[Id];
      Execs[Id] += std::exchange(S.Seen[Id], Execs[Id]);
      S.ResetCount[Id] = Filled[Id];
      Filled[Id] += S.LeadReset[Id] + Later;
    }
  }
  std::vector<uint64_t *> ResetOut(NumBranches);
  for (uint32_t Id = 0; Id < NumBranches; ++Id) {
    std::vector<uint64_t> &RP =
        P.branchMutable(static_cast<int32_t>(Id)).ResetPositions;
    RP.resize(Filled[Id]);
    ResetOut[Id] = RP.data();
  }
  // The range's lead resets first, then the rest in order (a local lead
  // reset is the entry at position 0).
  parallelForJobs(Jobs, Scans.size(), [&](size_t R) {
    RangeScan &S = Scans[R];
    for (uint32_t Id = 0; Id < NumBranches; ++Id)
      if (S.LeadReset[Id])
        ResetOut[Id][S.ResetCount[Id]++] = S.Seen[Id];
    for (const RangeScan::LocalReset &L : S.Resets)
      if (L.Pos)
        ResetOut[L.Id][S.ResetCount[L.Id]++] = S.Seen[L.Id] + L.Pos;
  });
  Scans.clear();

  // Per-branch fill from the index: outcome streams are bulk-expanded and
  // the pattern tables come from the flat-count kernel, one call per reset
  // segment (each segment starts from a zero history, like resetHistory).
  // Branches longer than a task's share are split at segment boundaries.
  uint64_t KernelEvents = 0;
  for (uint32_t Id = 0; Id < NumBranches; ++Id)
    KernelEvents += CT.branch(Id).Executions;
  const uint64_t TaskEvents =
      std::max<uint64_t>(KernelEvents / (4 * Ranges.size()), 1);
  std::vector<FillTask> Tasks;
  std::vector<uint32_t> SplitBranches;
  std::vector<size_t> FirstPart{0};
  for (uint32_t Id = 0; Id < NumBranches; ++Id) {
    const uint64_t NumExecs = CT.branch(Id).Executions;
    if (!NumExecs)
      continue;
    const std::vector<uint64_t> &RP = P.branch(static_cast<int32_t>(Id))
                                          .ResetPositions;
    const bool Proven = Proofs && Proofs->proven(static_cast<int32_t>(Id));
    const uint64_t NumSegs = RP.size() + 1;
    if (Proven || NumExecs <= TaskEvents || NumSegs == 1) {
      Tasks.push_back({Id, 0, NumSegs, NumExecs, 0, -1});
      continue;
    }
    // Each part ends with the first segment that takes it to TaskEvents
    // events (or with the branch).
    const uint32_t Split = static_cast<uint32_t>(SplitBranches.size());
    SplitBranches.push_back(Id);
    size_t Part = FirstPart.back();
    for (uint64_t First = 0, Start = 0; First < NumSegs; ++Part) {
      const uint64_t Last = static_cast<uint64_t>(
          std::lower_bound(RP.begin() + static_cast<long>(First), RP.end(),
                           Start + TaskEvents) -
          RP.begin());
      const uint64_t End = Last < RP.size() ? RP[Last] : NumExecs;
      Tasks.push_back({Id, First, Last + 1, End - Start, Split,
                       static_cast<int64_t>(Part)});
      First = Last + 1;
      Start = End;
    }
    FirstPart.push_back(Part);
  }
  // Longest first, so the last task to start is a short one.
  std::stable_sort(Tasks.begin(), Tasks.end(),
                   [](const FillTask &A, const FillTask &B) {
                     return A.Events > B.Events;
                   });

  const size_t CountWords = size_t(2) << MaxBits;
  const size_t NumParts = FirstPart.back();
  std::vector<uint64_t> PartCounts(NumParts * CountWords, 0);
  std::vector<uint32_t> PartHist(NumParts, 0);
  std::vector<std::atomic<size_t>> PartsLeft(SplitBranches.size());
  for (size_t SB = 0; SB < SplitBranches.size(); ++SB)
    PartsLeft[SB].store(FirstPart[SB + 1] - FirstPart[SB],
                        std::memory_order_relaxed);
  // Fills segments [FirstSeg, EndSeg) of branch Id into Counts; returns the
  // history after the last one.
  auto FillSegments = [&](uint32_t Id, uint64_t FirstSeg, uint64_t EndSeg,
                          uint64_t *Counts) {
    const BranchColumn Col = CT.branch(Id);
    const std::vector<uint64_t> &RP =
        P.branch(static_cast<int32_t>(Id)).ResetPositions;
    uint32_t Hist = 0;
    for (uint64_t Seg = FirstSeg; Seg < EndSeg; ++Seg) {
      const uint64_t Start = Seg ? RP[Seg - 1] : 0;
      const uint64_t End = Seg < RP.size() ? RP[Seg] : Col.Executions;
      Hist = fillPatternCounts(Col.Bits.data(), Start, End - Start, MaxBits,
                               /*StartHist=*/0, Counts);
    }
    return Hist;
  };
  // Expands branch Id's outcome stream and assigns its table from Counts.
  auto Finish = [&](uint32_t Id, const uint64_t *Counts, uint32_t Hist) {
    const BranchColumn Col = CT.branch(Id);
    P.branchMutable(static_cast<int32_t>(Id)).DirBits.appendBits(Col.Bits);
    if (Counts)
      P.assignTable(static_cast<int32_t>(Id), Counts, Hist, Col.Executions);
  };
  parallelForJobs(Jobs, Tasks.size(), [&](size_t T) {
    const FillTask &Task = Tasks[T];
    KernelCallTally Tally;
    if (Task.Part < 0) {
      if (Proofs && Proofs->proven(static_cast<int32_t>(Task.Id)))
        return Finish(Task.Id, nullptr, 0); // outcome stream only
      std::vector<uint64_t> Counts(CountWords, 0);
      uint32_t Hist =
          FillSegments(Task.Id, Task.FirstSeg, Task.EndSeg, Counts.data());
      return Finish(Task.Id, Counts.data(), Hist);
    }
    const size_t Part = static_cast<size_t>(Task.Part);
    PartHist[Part] = FillSegments(Task.Id, Task.FirstSeg, Task.EndSeg,
                                  PartCounts.data() + Part * CountWords);
    // The task that fills a split branch's last outstanding part sums the
    // parts (numbered consecutively, in segment order) and takes the last
    // one's final history.
    if (PartsLeft[Task.Split].fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    const size_t First = FirstPart[Task.Split];
    const size_t End = FirstPart[Task.Split + 1];
    uint64_t *Sum = PartCounts.data() + First * CountWords;
    for (size_t Other = First + 1; Other < End; ++Other)
      for (size_t W = 0; W < CountWords; ++W)
        Sum[W] += PartCounts[Other * CountWords + W];
    Finish(Task.Id, Sum, PartHist[End - 1]);
  });
  FillSpan.arg("events", KernelEvents);
  return P;
}
