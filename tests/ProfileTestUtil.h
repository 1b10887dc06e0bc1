//===- tests/ProfileTestUtil.h - Profile oracles for the tests --*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile and index comparisons, a per-event reference of
/// buildLoopAwareProfiles and a small nested-loop module, shared by the
/// tests that hold the profile builders (offline, chunked and streamed)
/// against references.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TESTS_PROFILETESTUTIL_H
#define BPCR_TESTS_PROFILETESTUTIL_H

#include "core/BranchProfiles.h"
#include "core/CorrelatedMachine.h"
#include "core/ProgramAnalysis.h"
#include "ir/IRBuilder.h"
#include "sa/Dataflow.h"
#include "trace/ColumnarTrace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bpcr::test {

inline bool sameBits(BitstreamView A, BitstreamView B) {
  if (A.size() != B.size())
    return false;
  for (uint64_t I = 0; I < A.size(); ++I)
    if (A.bit(I) != B.bit(I))
      return false;
  return true;
}

/// Outcome streams, reset positions, pattern tables and each table's
/// rolling history all equal.
inline bool sameProfiles(const ProfileSet &A, const ProfileSet &B) {
  if (A.numBranches() != B.numBranches())
    return false;
  for (uint32_t Id = 0; Id < A.numBranches(); ++Id) {
    const BranchProfile &PA = A.branch(static_cast<int32_t>(Id));
    const BranchProfile &PB = B.branch(static_cast<int32_t>(Id));
    if (!sameBits(PA.DirBits.view(), PB.DirBits.view()) ||
        PA.ResetPositions != PB.ResetPositions ||
        PA.Table.executions() != PB.Table.executions() ||
        PA.Table.history() != PB.Table.history())
      return false;
    const auto &FA = PA.Table.full();
    const auto &FB = PB.Table.full();
    if (FA.size() != FB.size())
      return false;
    for (const auto &[Pattern, Counts] : FA) {
      auto It = FB.find(Pattern);
      if (It == FB.end() || It->second.Taken != Counts.Taken ||
          It->second.NotTaken != Counts.NotTaken)
        return false;
    }
  }
  return true;
}

/// Path profiles: PerPath keys in order, their counts, and the unmatched
/// counts.
inline void expectSamePathProfiles(const std::vector<PathProfile> &Got,
                                   const std::vector<PathProfile> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t B = 0; B < Want.size(); ++B) {
    SCOPED_TRACE("branch " + std::to_string(B));
    ASSERT_EQ(Got[B].PerPath.size(), Want[B].PerPath.size());
    for (size_t K = 0; K < Want[B].PerPath.size(); ++K) {
      EXPECT_EQ(Got[B].PerPath[K].first, Want[B].PerPath[K].first);
      EXPECT_EQ(Got[B].PerPath[K].second.Taken,
                Want[B].PerPath[K].second.Taken);
      EXPECT_EQ(Got[B].PerPath[K].second.NotTaken,
                Want[B].PerPath[K].second.NotTaken);
    }
    EXPECT_EQ(Got[B].Unmatched.Taken, Want[B].Unmatched.Taken);
    EXPECT_EQ(Got[B].Unmatched.NotTaken, Want[B].Unmatched.NotTaken);
  }
}

/// Every branch's backward paths up to \p MaxPathLen: the candidates a
/// path-profile test profiles.
inline std::vector<std::vector<BranchPath>>
pathCandidates(const ProgramAnalysis &PA, unsigned MaxPathLen) {
  std::vector<std::vector<BranchPath>> Cands(PA.numBranches());
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id)
    Cands[Id] = PA.backwardPaths(static_cast<int32_t>(Id), MaxPathLen);
  return Cands;
}

/// Per-event reference of buildLoopAwareProfiles: before each event of a
/// loop branch b, b's history resets iff some event since b's previous
/// execution (or since the trace start) lay outside b's innermost loop.
/// Each tracked loop keeps the time of the last event outside it, and the
/// scan touches every tracked loop on every event. An event whose id has
/// no branch is outside every loop.
inline ProfileSet referenceLoopAwareProfiles(const ProgramAnalysis &PA,
                                             const ColumnarTrace &CT,
                                             const sa::BranchProofs *Proofs) {
  struct TrackedLoop {
    uint32_t FuncIdx;
    const Loop *L;
    uint64_t LastOutside = 0;
  };
  std::vector<TrackedLoop> Loops;
  std::vector<int32_t> LoopOfBranch(PA.numBranches(), -1);
  std::map<std::pair<uint32_t, int32_t>, size_t> LoopIndex;
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const BranchClass &C = PA.classOf(static_cast<int32_t>(Id));
    if (C.Kind == BranchKind::NonLoop)
      continue;
    std::pair<uint32_t, int32_t> Key{PA.ref(static_cast<int32_t>(Id)).FuncIdx,
                                     C.LoopIdx};
    auto [It, Inserted] = LoopIndex.emplace(Key, Loops.size());
    if (Inserted)
      Loops.push_back({Key.first,
                       &PA.loopInfoFor(static_cast<int32_t>(Id))
                            .loops()[static_cast<size_t>(C.LoopIdx)]});
    LoopOfBranch[Id] = static_cast<int32_t>(It->second);
  }

  ProfileSet P(PA.numBranches());
  std::vector<uint64_t> LastExec(PA.numBranches(), 0);
  for (size_t I = 0; I < CT.size(); ++I) {
    const uint64_t Time = I + 1;
    const int32_t Id = CT.branchId(I);
    const bool Taken = CT.taken(I);
    if (Id < 0 || static_cast<uint32_t>(Id) >= PA.numBranches()) {
      for (TrackedLoop &TL : Loops)
        TL.LastOutside = Time;
      continue;
    }
    const BranchRef &R = PA.ref(Id);
    for (TrackedLoop &TL : Loops)
      if (TL.FuncIdx != R.FuncIdx || !TL.L->contains(R.BlockIdx))
        TL.LastOutside = Time;
    BranchProfile &BP = P.branchMutable(Id);
    const int32_t LI = LoopOfBranch[static_cast<uint32_t>(Id)];
    if (LI >= 0 && Loops[static_cast<size_t>(LI)].LastOutside >
                       LastExec[static_cast<uint32_t>(Id)]) {
      BP.ResetPositions.push_back(BP.DirBits.size());
      BP.Table.resetHistory();
    }
    BP.DirBits.push(Taken);
    // Proven branches keep their outcome stream but no pattern table.
    if (!Proofs || !Proofs->proven(Id))
      BP.Table.record(Taken);
    LastExec[static_cast<uint32_t>(Id)] = Time;
  }
  return P;
}

/// A non-loop branch, then an outer loop around an inner one. Branch 0 is
/// the preamble (outside every loop), 1 the inner header (inside both
/// loops), 2 the outer latch (inside the outer loop only).
inline Module preambleAndNestedLoops() {
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), J = B.newReg(), C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Skip = B.newBlock("skip");
  uint32_t Outer = B.newBlock("outer");
  uint32_t InnerH = B.newBlock("inner");
  uint32_t InnerBody = B.newBlock("inner_body");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.cmpLt(C, Operand::reg(I), Operand::imm(1));
  B.br(Operand::reg(C), Skip, Outer);
  B.setInsertPoint(Skip);
  B.jmp(Outer);
  B.setInsertPoint(Outer);
  B.movImm(J, 0);
  B.jmp(InnerH);
  B.setInsertPoint(InnerH);
  B.cmpLt(C, Operand::reg(J), Operand::imm(3));
  B.br(Operand::reg(C), InnerBody, Latch);
  B.setInsertPoint(InnerBody);
  B.add(J, Operand::reg(J), Operand::imm(1));
  B.jmp(InnerH);
  B.setInsertPoint(Latch);
  B.add(I, Operand::reg(I), Operand::imm(1));
  B.cmpLt(C, Operand::reg(I), Operand::imm(4));
  B.br(Operand::reg(C), Outer, Exit);
  B.setInsertPoint(Exit);
  B.ret(Operand::reg(I));
  M.assignBranchIds();
  return M;
}

/// The branches of preambleAndNestedLoops.
inline constexpr int32_t Pre = 0, Inner = 1, Latch = 2;

/// Two indexes agree: counts, taken counts and per-branch bits.
inline void expectSameIndex(const ColumnarTrace &Got,
                            const ColumnarTrace &Want) {
  ASSERT_EQ(Got.numBranches(), Want.numBranches());
  EXPECT_EQ(Got.outOfRange(), Want.outOfRange());
  for (uint32_t B = 0; B < Want.numBranches(); ++B) {
    const BranchColumn G = Got.branch(B), W = Want.branch(B);
    ASSERT_EQ(G.Executions, W.Executions) << "branch " << B;
    EXPECT_EQ(G.TakenCount, W.TakenCount) << "branch " << B;
    EXPECT_TRUE(sameBits(G.Bits, W.Bits)) << "branch " << B;
  }
}

/// The index built event by event: each branch's count, taken count and
/// direction subsequence.
inline void expectIndexOfEvents(const ColumnarTrace &CT) {
  std::vector<std::vector<bool>> Bits(CT.numBranches());
  uint64_t OutOfRange = 0;
  for (size_t I = 0; I < CT.size(); ++I) {
    const int32_t Id = CT.branchId(I);
    if (Id < 0 || static_cast<uint32_t>(Id) >= CT.numBranches())
      ++OutOfRange;
    else
      Bits[static_cast<uint32_t>(Id)].push_back(CT.taken(I));
  }
  EXPECT_EQ(CT.outOfRange(), OutOfRange);
  for (uint32_t B = 0; B < CT.numBranches(); ++B) {
    const BranchColumn C = CT.branch(B);
    ASSERT_EQ(C.Executions, Bits[B].size()) << "branch " << B;
    uint64_t Taken = 0;
    for (uint64_t I = 0; I < C.Executions; ++I) {
      ASSERT_EQ(C.Bits.bit(I), Bits[B][I]) << "branch " << B << " bit " << I;
      Taken += Bits[B][I];
    }
    EXPECT_EQ(C.TakenCount, Taken) << "branch " << B;
  }
}

} // namespace bpcr::test

#endif // BPCR_TESTS_PROFILETESTUTIL_H
