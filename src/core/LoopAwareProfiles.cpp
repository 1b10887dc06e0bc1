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
#include "trace/TraceStream.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <mutex>
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

/// One chunk's reset scan, run as if the chunk were a whole trace, kept
/// until the stitch has passed it.
struct ChunkScan {
  /// Per branch id: executions in the chunk.
  std::vector<uint64_t> Seen;
  /// Per loop branch: every event of the chunk after its last execution
  /// (all of them, if it did not execute) was inside its loop.
  std::vector<uint8_t> CleanAfter;
  /// The local reset positions (execution indices within the chunk) of
  /// branch b, ascending: Pos[First[b]] .. Pos[First[b + 1] - 1].
  std::vector<uint32_t> First;
  std::vector<uint32_t> Pos;
};

} // namespace

/// The loop tables every chunk scan reads, per worker the scratch it
/// reuses across chunks and the pattern counts it filled, and the stitch
/// that runs in chunk order as the chunks complete.
struct LoopResetScan::State {
  uint32_t NumBranches = 0;
  size_t NumLoops = 0;
  unsigned MaxBits = 9;
  size_t CountWords = 0;
  const sa::BranchProofs *Proofs = nullptr;
  /// Per branch id: its context, the sorted list of tracked loops that
  /// contain its block (branches in one loop nest share it), and the slot
  /// of its own loop. Slot NumLoops belongs to no context, so it never
  /// counts a leave: a non-loop branch never resets.
  uint32_t NoLoop = 0;
  std::vector<uint32_t> LoopSlot;
  std::vector<uint32_t> CtxOf;
  std::vector<std::vector<uint32_t>> Contexts;
  /// Events whose id has no branch are outside every loop, and each chunk
  /// starts as if the event before it were inside every loop.
  uint32_t OutsideCtx = 0;
  uint32_t StartCtx = 0;

  /// A worker's scratch, reused across the chunks it scans, and the
  /// pattern counts of the segments it filled, per branch (allocated on
  /// first use).
  struct Worker {
    std::vector<uint64_t> Leaves;
    std::vector<uint64_t> LeaveSnap;
    /// Room for one reset per event of a chunk, so the scan never grows
    /// it.
    std::vector<uint32_t> ResetIds;
    std::vector<uint32_t> ResetPos;
    std::vector<std::vector<uint64_t>> Counts;
  };
  std::vector<Worker> Workers;

  /// The stitch, guarded by Mu: chunks wait in Pending until every
  /// earlier chunk is stitched. Clean[b]: every event since b's last
  /// execution in the stitched chunks was inside its loop (true before
  /// its first execution while every event was inside). Execs[b]: b's
  /// executions in the stitched chunks. The profiles collect each
  /// branch's reset positions, and InChunk[b][j] says whether the segment
  /// starting at reset j was filled with its chunk.
  std::mutex Mu;
  size_t Frontier = 0;
  std::map<size_t, ChunkScan> Pending;
  std::vector<uint8_t> Clean;
  std::vector<uint64_t> Execs;
  std::vector<std::vector<uint8_t>> InChunk;
  ProfileSet Profiles{0};

  State(unsigned NumWorkers, uint32_t NumBranches, unsigned MaxBits,
        const sa::BranchProofs *Proofs)
      : NumBranches(NumBranches), MaxBits(MaxBits),
        CountWords(size_t(2) << MaxBits), Proofs(Proofs),
        Workers(std::max(NumWorkers, 1u)), Clean(NumBranches, 1),
        Execs(NumBranches, 0), InChunk(NumBranches),
        Profiles(NumBranches, MaxBits) {}

  bool proven(uint32_t Id) const {
    return Proofs && Proofs->proven(static_cast<int32_t>(Id));
  }

  /// Stitches chunk Frontier. A chunk's first execution of b resets iff
  /// the chunk says so or the carry is not clean.
  void stitch(const ChunkScan &C) {
    for (uint32_t Id = 0; Id < NumBranches; ++Id) {
      if (LoopSlot[Id] == NoLoop)
        continue; // never resets
      if (!C.Seen[Id]) {
        Clean[Id] &= C.CleanAfter[Id];
        continue;
      }
      std::vector<uint64_t> &RP =
          Profiles.branchMutable(static_cast<int32_t>(Id)).ResetPositions;
      std::vector<uint8_t> &Filled = InChunk[Id];
      const uint32_t Begin = C.First[Id], End = C.First[Id + 1];
      if (!Clean[Id] && (Begin == End || C.Pos[Begin] != 0)) {
        RP.push_back(Execs[Id]);
        Filled.push_back(0);
      }
      for (uint32_t R = Begin; R < End; ++R) {
        RP.push_back(Execs[Id] + C.Pos[R]);
        Filled.push_back(R + 1 < End);
      }
      Clean[Id] = C.CleanAfter[Id];
      Execs[Id] += C.Seen[Id];
    }
    ++Frontier;
  }
};

LoopResetScan::LoopResetScan(const ProgramAnalysis &PA, unsigned Workers,
                             unsigned MaxBits,
                             const sa::BranchProofs *Proofs)
    : S(std::make_unique<State>(Workers, PA.numBranches(), MaxBits,
                                Proofs)) {
  const uint32_t NumBranches = PA.numBranches();
  TrackedLoopSet TLS(PA);
  const size_t NumLoops = TLS.Loops.size();
  S->NumLoops = NumLoops;
  S->NoLoop = static_cast<uint32_t>(NumLoops);
  S->LoopSlot.assign(NumBranches, S->NoLoop);
  S->CtxOf.resize(NumBranches);
  std::vector<std::vector<uint32_t>> &Contexts = S->Contexts;
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
    S->CtxOf[Id] = It->second;
    if (TLS.LoopOfBranch[Id] >= 0)
      S->LoopSlot[Id] = static_cast<uint32_t>(TLS.LoopOfBranch[Id]);
  }
  S->OutsideCtx = static_cast<uint32_t>(Contexts.size());
  Contexts.emplace_back();
  S->StartCtx = static_cast<uint32_t>(Contexts.size());
  Contexts.emplace_back(NumLoops);
  for (uint32_t L = 0; L < NumLoops; ++L)
    Contexts.back()[L] = L;
}

LoopResetScan::~LoopResetScan() = default;

void LoopResetScan::scanChunk(size_t Chunk, EventRange R, TraceColumns Cols,
                              const ColumnarTrace::ChunkIndex &Slice,
                              unsigned WorkerIdx) {
  // A loop branch b resets before event t iff some event strictly between
  // b's previous execution and t lay outside b's loop. Per tracked loop
  // L, Leaves[L] counts the events outside L whose predecessor was inside
  // it; b executes inside L(b), so an outside event follows b's last
  // execution iff Leaves[L(b)] has grown since (LeaveSnap[b]). Leaves
  // change only where consecutive events have different contexts. (A
  // branch's first execution resets too, unless every earlier event of
  // the trace was inside its loop.)
  const uint32_t NumBranches = S->NumBranches;
  State::Worker &W = S->Workers[WorkerIdx];
  ChunkScan C;
  C.Seen.assign(NumBranches, 0);
  C.CleanAfter.assign(NumBranches, 0);
  W.Leaves.assign(S->NumLoops + 1, 0);
  W.LeaveSnap.assign(NumBranches, 0);
  assert(R.End - R.Begin <= UINT32_MAX && "local reset positions are 32-bit");
  if (W.ResetIds.size() < R.End - R.Begin) {
    W.ResetIds.resize(R.End - R.Begin);
    W.ResetPos.resize(R.End - R.Begin);
  }
  // Every event writes a reset entry and keeps it only if it reset, so
  // the loop has no data-dependent branch beyond the context check.
  uint32_t *OutId = W.ResetIds.data(), *OutPos = W.ResetPos.data();
  size_t NumResets = 0;
  const int32_t *IdCol = Cols.Ids;
  const uint32_t *Slot = S->LoopSlot.data(), *Ctx = S->CtxOf.data();
  const std::vector<std::vector<uint32_t>> &Contexts = S->Contexts;
  const uint32_t OutsideCtx = S->OutsideCtx;
  uint64_t *Leave = W.Leaves.data(), *Snap = W.LeaveSnap.data();
  uint64_t *Seen = C.Seen.data();
  uint32_t Cur = S->StartCtx;
  for (size_t I = R.Begin; I != R.End; ++I) {
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
    OutId[NumResets] = Id;
    OutPos[NumResets] = static_cast<uint32_t>(Execs);
    NumResets += Now != Snap[Id];
    Snap[Id] = Now;
    Seen[Id] = Execs + 1;
  }
  for (uint32_t Id = 0; Id < NumBranches; ++Id)
    C.CleanAfter[Id] = Leave[Slot[Id]] == Snap[Id];

  // Group the resets by branch, in order (a counting sort).
  C.First.assign(NumBranches + 1, 0);
  for (size_t K = 0; K < NumResets; ++K)
    ++C.First[OutId[K] + 1];
  for (uint32_t Id = 0; Id < NumBranches; ++Id)
    C.First[Id + 1] += C.First[Id];
  C.Pos.resize(NumResets);
  {
    std::vector<uint32_t> Next(C.First.begin(), C.First.end() - 1);
    for (size_t K = 0; K < NumResets; ++K)
      C.Pos[Next[OutId[K]]++] = OutPos[K];
  }

  // Fill every reset segment that begins and ends in this chunk: it
  // starts from a zero history, so its counts do not depend on anything
  // before the chunk. The stitch marks them; the rest wait for the index.
  KernelCallTally Tally;
  if (W.Counts.size() < NumBranches)
    W.Counts.resize(NumBranches);
  for (uint32_t Id = 0; Id < NumBranches; ++Id) {
    const uint32_t Begin = C.First[Id], End = C.First[Id + 1];
    if (End - Begin < 2 || S->proven(Id))
      continue;
    std::vector<uint64_t> &Counts = W.Counts[Id];
    if (Counts.empty())
      Counts.assign(S->CountWords, 0);
    const uint64_t *Bits = Slice.Words.data() + Slice.FirstWord[Id];
    for (uint32_t K = Begin; K + 1 < End; ++K)
      fillPatternCounts(Bits, C.Pos[K], C.Pos[K + 1] - C.Pos[K], S->MaxBits,
                        /*StartHist=*/0, Counts.data());
  }

  // Hand the chunk to the stitch, which runs every chunk it can reach in
  // order.
  std::lock_guard<std::mutex> Lock(S->Mu);
  if (Chunk != S->Frontier) {
    S->Pending.emplace(Chunk, std::move(C));
    return;
  }
  S->stitch(C);
  for (auto It = S->Pending.begin();
       It != S->Pending.end() && It->first == S->Frontier;
       It = S->Pending.erase(It))
    S->stitch(It->second);
}

ProfileSet LoopResetScan::profiles(const ColumnarTrace &CT, unsigned Jobs) {
  const uint32_t NumBranches = S->NumBranches;
  assert(CT.indexed() && CT.numBranches() == NumBranches &&
         "finalize() the columnar trace for this module first");
  assert(S->Pending.empty() && "every chunk is stitched");
  ProfileSet &P = S->Profiles;

  // Per branch: the reset segments no chunk filled (those that cross a
  // chunk boundary, a branch's first and its last), one fillPatternCounts
  // call each over the index, plus the workers' counts of the rest. The
  // final history is the last segment's. Branches with the most events
  // left go first.
  std::vector<uint32_t> Order;
  std::vector<uint64_t> Left(NumBranches, 0);
  for (uint32_t Id = 0; Id < NumBranches; ++Id) {
    const uint64_t NumExecs = CT.branch(Id).Executions;
    if (!NumExecs)
      continue;
    Order.push_back(Id);
    const std::vector<uint64_t> &RP =
        P.branch(static_cast<int32_t>(Id)).ResetPositions;
    const std::vector<uint8_t> &Filled = S->InChunk[Id];
    for (size_t Seg = 0; Seg <= RP.size(); ++Seg)
      if (Seg == 0 || !Filled[Seg - 1])
        Left[Id] += (Seg < RP.size() ? RP[Seg] : NumExecs) -
                    (Seg ? RP[Seg - 1] : 0);
  }
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Left[A] > Left[B];
  });
  parallelForJobs(Jobs, Order.size(), [&](size_t T) {
    const uint32_t Id = Order[T];
    const BranchColumn Col = CT.branch(Id);
    BranchProfile &BP = P.branchMutable(static_cast<int32_t>(Id));
    BP.DirBits.appendBits(Col.Bits);
    if (S->proven(Id))
      return; // outcome stream only
    std::vector<uint64_t> Counts(S->CountWords, 0);
    for (State::Worker &W : S->Workers)
      if (Id < W.Counts.size() && !W.Counts[Id].empty())
        for (size_t K = 0; K < S->CountWords; ++K)
          Counts[K] += W.Counts[Id][K];
    KernelCallTally Tally;
    const std::vector<uint64_t> &RP = BP.ResetPositions;
    const std::vector<uint8_t> &Filled = S->InChunk[Id];
    uint32_t Hist = 0;
    for (size_t Seg = 0; Seg <= RP.size(); ++Seg) {
      if (Seg && Filled[Seg - 1])
        continue;
      const uint64_t Start = Seg ? RP[Seg - 1] : 0;
      const uint64_t End = Seg < RP.size() ? RP[Seg] : Col.Executions;
      Hist = fillPatternCounts(Col.Bits.data(), Start, End - Start,
                               S->MaxBits, /*StartHist=*/0, Counts.data());
    }
    P.assignTable(static_cast<int32_t>(Id), Counts.data(), Hist,
                  Col.Executions);
  });
  S->Workers.clear();
  return std::move(P);
}

ProfileSet bpcr::buildLoopAwareProfiles(const ProgramAnalysis &PA,
                                        const ColumnarTrace &CT,
                                        unsigned MaxBits,
                                        const sa::BranchProofs *Proofs,
                                        unsigned Jobs, size_t ChunkEvents) {
  Span FillSpan("profiles.columnar_fill", "kernel");
  const unsigned Workers = threadsFor(Jobs);
  LoopResetScan Scan(PA, Workers, MaxBits, Proofs);
  std::vector<ColumnarTrace::ChunkIndex> Slices(Workers);
  walkChunks(CT.columns(), CT.size(), ChunkEvents, Workers,
             [&](size_t Chunk, EventRange R, TraceColumns Cols,
                 unsigned Worker) {
               ColumnarTrace::indexChunk(Cols, R, PA.numBranches(),
                                         Slices[Worker]);
               Scan.scanChunk(Chunk, R, Cols, Slices[Worker], Worker);
             });
  ProfileSet P = Scan.profiles(CT, Jobs);
  FillSpan.arg("events", static_cast<uint64_t>(CT.size() - CT.outOfRange()));
  return P;
}
