//===- tests/test_sharded.cpp - Event-range sharding of trace passes ------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// The passes that read the whole trace — the per-branch index, the
// loop-aware reset scan and pattern-table fill, and the path profiles —
// split it into one contiguous event range per job and stitch the
// per-range results back in trace order. Every job count must give the
// one-job result exactly: on every workload, and on generated traces
// whose shard boundaries fall where the stitch has to carry state across
// (a branch's only execution opening a range, a loop left for a whole
// range, a reset right at a boundary, ranges shorter than a path window,
// more jobs than events).
//
//===----------------------------------------------------------------------===//

#include "ProfileTestUtil.h"
#include "TraceTestUtil.h"

#include "core/CorrelatedMachine.h"
#include "core/LoopAwareProfiles.h"
#include "core/ProgramAnalysis.h"
#include "ir/IRBuilder.h"
#include "sa/Dataflow.h"
#include "support/Rng.h"
#include "trace/ColumnarTrace.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace bpcr;
using bpcr::test::Event;
using bpcr::test::makeTrace;
using bpcr::test::referenceLoopAwareProfiles;
using bpcr::test::sameProfiles;

namespace {

const unsigned JobCounts[] = {1, 2, 3, 4, 7};

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

/// A non-loop branch, then an outer loop around an inner one. Branch 0 is
/// the preamble (outside every loop), 1 the inner header (inside both
/// loops), 2 the outer latch (inside the outer loop only).
Module preambleAndNestedLoops() {
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
  B.cmpLt(C, R(I), K(1));
  B.br(R(C), Skip, Outer);
  B.setInsertPoint(Skip);
  B.jmp(Outer);
  B.setInsertPoint(Outer);
  B.movImm(J, 0);
  B.jmp(InnerH);
  B.setInsertPoint(InnerH);
  B.cmpLt(C, R(J), K(3));
  B.br(R(C), InnerBody, Latch);
  B.setInsertPoint(InnerBody);
  B.add(J, R(J), K(1));
  B.jmp(InnerH);
  B.setInsertPoint(Latch);
  B.add(I, R(I), K(1));
  B.cmpLt(C, R(I), K(4));
  B.br(R(C), Outer, Exit);
  B.setInsertPoint(Exit);
  B.ret(R(I));
  M.assignBranchIds();
  return M;
}

constexpr int32_t Pre = 0, Inner = 1, Latch = 2;

/// Events with the given ids, alternating in direction.
ColumnarTrace traceOf(const std::vector<int32_t> &Ids, uint32_t NumBranches) {
  std::vector<Event> Events;
  for (size_t I = 0; I < Ids.size(); ++I)
    Events.emplace_back(Ids[I], I % 3 != 1);
  return makeTrace(Events, NumBranches);
}

void expectSameIndex(const ColumnarTrace &Got, const ColumnarTrace &Want) {
  ASSERT_EQ(Got.numBranches(), Want.numBranches());
  EXPECT_EQ(Got.outOfRange(), Want.outOfRange());
  for (uint32_t B = 0; B < Want.numBranches(); ++B) {
    const BranchColumn G = Got.branch(B), W = Want.branch(B);
    ASSERT_EQ(G.Executions, W.Executions) << "branch " << B;
    EXPECT_EQ(G.TakenCount, W.TakenCount) << "branch " << B;
    EXPECT_TRUE(test::sameBits(G.Bits, W.Bits)) << "branch " << B;
  }
}

/// The index built event by event: each branch's count, taken count and
/// direction subsequence.
void expectIndexOfEvents(const ColumnarTrace &CT) {
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

std::vector<std::vector<BranchPath>> pathCandidates(const ProgramAnalysis &PA,
                                                    unsigned MaxPathLen) {
  std::vector<std::vector<BranchPath>> Cands(PA.numBranches());
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id)
    Cands[Id] = PA.backwardPaths(static_cast<int32_t>(Id), MaxPathLen);
  return Cands;
}

/// Every sharded pass over \p CT (finalized for PA's branches) at every
/// job count against the one-job result, and the profiles against the
/// per-event reference.
void expectShardingExact(const ProgramAnalysis &PA, const ColumnarTrace &CT,
                         const sa::BranchProofs *Proofs = nullptr) {
  const ProfileSet Want = buildLoopAwareProfiles(PA, CT, 9, Proofs);
  EXPECT_TRUE(sameProfiles(Want, referenceLoopAwareProfiles(PA, CT, Proofs)));
  const auto Cands = pathCandidates(PA, 4);
  const std::vector<PathProfile> WantPaths = profilePaths(Cands, CT, 4);
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    ColumnarTrace Sharded = CT;
    Sharded.finalize(PA.numBranches(), Jobs);
    expectSameIndex(Sharded, CT);
    EXPECT_TRUE(
        sameProfiles(buildLoopAwareProfiles(PA, CT, 9, Proofs, Jobs), Want));
    test::expectSamePathProfiles(profilePaths(Cands, CT, 4, Jobs), WantPaths);
  }
}

} // namespace

TEST(ShardedPasses, WorkloadsMatchOneJobAtEveryJobCount) {
  for (const Workload &W : allWorkloads())
    for (uint64_t Seed : {1u, 13u}) {
      SCOPED_TRACE(std::string(W.Name) + " seed " + std::to_string(Seed));
      Module M;
      ColumnarTrace CT = traceWorkloadColumnar(W, Seed, M, 200'000);
      ProgramAnalysis PA(M);
      expectShardingExact(PA, CT);
      sa::BranchProofs Proofs = sa::computeBranchProofs(M);
      EXPECT_TRUE(sameProfiles(buildLoopAwareProfiles(PA, CT, 9, &Proofs, 4),
                               buildLoopAwareProfiles(PA, CT, 9, &Proofs)));
    }
}

TEST(ShardedPasses, TracingFinalizesTheSameIndexAtAnyJobCount) {
  const Workload &W = allWorkloads()[1]; // c-compiler
  Module M1, M4;
  ColumnarTrace One = traceWorkloadColumnar(W, 1, M1, 100'000);
  ColumnarTrace Four = traceWorkloadColumnar(W, 1, M4, 100'000, /*Jobs=*/4);
  expectSameIndex(Four, One);
  expectIndexOfEvents(Four);
}

TEST(ShardedPasses, EventRangesCoverTheTraceInOrder) {
  for (size_t N : {0u, 1u, 5u, 64u, 1000u})
    for (unsigned Jobs : JobCounts) {
      std::vector<EventRange> Ranges = eventRanges(N, Jobs);
      ASSERT_EQ(Ranges.size(), Jobs);
      size_t Next = 0;
      for (const EventRange &R : Ranges) {
        EXPECT_EQ(R.Begin, Next);
        EXPECT_LE(R.Begin, R.End);
        EXPECT_LE(R.End - R.Begin, N / Jobs + 1);
        Next = R.End;
      }
      EXPECT_EQ(Next, N);
    }
}

TEST(ShardedPasses, IndexMatchesEventsAcrossWordAndRangeBoundaries) {
  // Few branches and lengths around word multiples, so ranges split
  // per-branch words at every offset; ids outside the index included.
  Rng G(77);
  for (size_t N : {0u, 1u, 3u, 63u, 64u, 65u, 127u, 130u, 1000u, 4099u}) {
    std::vector<Event> Events;
    for (size_t I = 0; I < N; ++I)
      Events.emplace_back(static_cast<int32_t>(G.below(4)) - (G.chance(1, 50)),
                          G.chance(1, 2));
    const ColumnarTrace One = makeTrace(Events, 3);
    for (unsigned Jobs : JobCounts) {
      SCOPED_TRACE("events " + std::to_string(N) + " jobs " +
                   std::to_string(Jobs));
      ColumnarTrace Sharded = makeTrace(Events);
      Sharded.finalize(3, Jobs);
      expectSameIndex(Sharded, One);
      expectIndexOfEvents(Sharded);
    }
  }
}

TEST(ShardedPasses, RandomTracesMatchTheReference) {
  // Random events over the module's ids and two ids with no branch, short
  // enough that many ranges are shorter than the path window.
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);
  ASSERT_EQ(PA.numBranches(), 3u);
  Rng G(2024);
  for (size_t N : {0u, 1u, 2u, 3u, 5u, 9u, 17u, 40u, 333u, 5000u}) {
    SCOPED_TRACE("events " + std::to_string(N));
    std::vector<int32_t> Ids;
    for (size_t I = 0; I < N; ++I)
      Ids.push_back(G.chance(1, 20) ? (G.chance(1, 2) ? -1 : 8)
                                    : static_cast<int32_t>(G.below(3)));
    expectShardingExact(PA, traceOf(Ids, 3));
  }
}

TEST(ShardedPasses, EmptyTraceAndMoreJobsThanEvents) {
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);
  expectShardingExact(PA, traceOf({}, 3));
  expectShardingExact(PA, traceOf({Inner, Latch}, 3));
  ColumnarTrace Empty = traceOf({}, 3);
  Empty.finalize(3, 7);
  EXPECT_EQ(Empty.branch(Inner).Executions, 0u);
  EXPECT_TRUE(buildLoopAwareProfiles(PA, Empty, 9, nullptr, 7)
                  .branch(Inner)
                  .ResetPositions.empty());
}

// The scenarios below run 12 events at three jobs: ranges [0,4), [4,8)
// and [8,12).

TEST(ShardedPasses, OnlyExecutionOpensARange) {
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);
  ASSERT_EQ(PA.classOf(Pre).Kind, BranchKind::NonLoop);
  ASSERT_NE(PA.classOf(Inner).Kind, BranchKind::NonLoop);
  ASSERT_NE(PA.classOf(Latch).Kind, BranchKind::NonLoop);

  // The inner header runs once, first in range 1, after events outside
  // its loop: that execution resets.
  ColumnarTrace A = traceOf({Pre, Pre, Pre, Pre, Inner, Latch, Latch, Latch,
                             Latch, Latch, Latch, Latch},
                            3);
  expectShardingExact(PA, A);
  EXPECT_EQ(buildLoopAwareProfiles(PA, A, 9, nullptr, 3)
                .branch(Inner)
                .ResetPositions,
            std::vector<uint64_t>{0});

  // The latch runs first in range 1, after only inner-header events, which
  // are inside the outer loop too: no reset.
  ColumnarTrace B = traceOf({Inner, Inner, Inner, Inner, Latch, Inner, Inner,
                             Latch, Inner, Inner, Inner, Inner},
                            3);
  expectShardingExact(PA, B);
  EXPECT_TRUE(buildLoopAwareProfiles(PA, B, 9, nullptr, 3)
                  .branch(Latch)
                  .ResetPositions.empty());
}

TEST(ShardedPasses, LoopNeverEnteredInARange) {
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);

  // Range 1 runs only the latch, outside the inner loop: the inner header
  // resets when range 2 re-enters it.
  ColumnarTrace A = traceOf({Inner, Inner, Inner, Inner, Latch, Latch, Latch,
                             Latch, Inner, Inner, Inner, Inner},
                            3);
  expectShardingExact(PA, A);
  EXPECT_EQ(buildLoopAwareProfiles(PA, A, 9, nullptr, 3)
                .branch(Inner)
                .ResetPositions,
            std::vector<uint64_t>{4});

  // Range 1 runs only the preamble: both loops are left, and the latch
  // resets in range 2 although it never ran in range 1.
  ColumnarTrace B = traceOf({Latch, Latch, Latch, Latch, Pre, Pre, Pre, Pre,
                             Latch, Latch, Latch, Latch},
                            3);
  expectShardingExact(PA, B);
  EXPECT_EQ(buildLoopAwareProfiles(PA, B, 9, nullptr, 3)
                .branch(Latch)
                .ResetPositions,
            std::vector<uint64_t>{4});

  // Range 1 stays inside the outer loop without the latch: no reset.
  ColumnarTrace C = traceOf({Latch, Latch, Latch, Latch, Inner, Inner, Inner,
                             Inner, Latch, Latch, Latch, Latch},
                            3);
  expectShardingExact(PA, C);
  EXPECT_TRUE(buildLoopAwareProfiles(PA, C, 9, nullptr, 3)
                  .branch(Latch)
                  .ResetPositions.empty());
}

TEST(ShardedPasses, ResetAtARangeBoundary) {
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);

  // The event that leaves the inner loop closes range 0; the reset lands
  // on the first event of range 1.
  ColumnarTrace A = traceOf({Inner, Inner, Inner, Latch, Inner, Inner, Inner,
                             Inner, Inner, Inner, Inner, Inner},
                            3);
  expectShardingExact(PA, A);
  EXPECT_EQ(buildLoopAwareProfiles(PA, A, 9, nullptr, 3)
                .branch(Inner)
                .ResetPositions,
            std::vector<uint64_t>{3});

  // The leaving event opens range 1; the reset follows inside it.
  ColumnarTrace B = traceOf({Inner, Inner, Inner, Inner, Latch, Inner, Inner,
                             Inner, Latch, Inner, Inner, Inner},
                            3);
  expectShardingExact(PA, B);
  EXPECT_EQ(buildLoopAwareProfiles(PA, B, 9, nullptr, 3)
                .branch(Inner)
                .ResetPositions,
            (std::vector<uint64_t>{4, 7}));
}

TEST(ShardedPasses, IdsWithoutABranchAreOutsideEveryLoop) {
  // Ids -1 and NumBranches + 5 are neither indexed nor profiled, and they
  // end every loop's stay like an event outside it.
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);
  const int32_t Far = static_cast<int32_t>(PA.numBranches()) + 5;
  ColumnarTrace CT = traceOf({Inner, Inner, -1, Inner, Latch, Far, Latch,
                              Inner, Far, -1, Inner, Latch},
                             3);
  EXPECT_EQ(CT.outOfRange(), 4u);
  expectShardingExact(PA, CT);
  const ProfileSet P = buildLoopAwareProfiles(PA, CT, 9, nullptr, 3);
  EXPECT_EQ(P.branch(Inner).ResetPositions, (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_EQ(P.branch(Latch).ResetPositions,
            (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(P.totalExecutions(), 8u);
}
