//===- tests/test_sharded.cpp - Chunked trace passes ---------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// The passes that read the whole trace — the per-branch index, the
// loop-aware reset scan and pattern-table fill, and the path profiles —
// walk it in fixed-size chunks and stitch the per-chunk results back in
// trace order. Every chunk size and job count must give the one-chunk,
// one-job result exactly: on every workload, and on generated traces
// whose chunk boundaries fall where the stitch has to carry state across
// (a branch's only execution opening a chunk, a loop left for a whole
// chunk, a reset right at a boundary, chunks shorter than a path window,
// more jobs than chunks).
//
//===----------------------------------------------------------------------===//

#include "ProfileTestUtil.h"
#include "TraceTestUtil.h"

#include "core/CorrelatedMachine.h"
#include "core/LoopAwareProfiles.h"
#include "core/ProgramAnalysis.h"
#include "sa/Dataflow.h"
#include "support/Rng.h"
#include "trace/ColumnarTrace.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

using namespace bpcr;
using bpcr::test::Event;
using bpcr::test::expectIndexOfEvents;
using bpcr::test::expectSameIndex;
using bpcr::test::Inner;
using bpcr::test::Latch;
using bpcr::test::makeTrace;
using bpcr::test::Pre;
using bpcr::test::preambleAndNestedLoops;
using bpcr::test::referenceLoopAwareProfiles;
using bpcr::test::sameProfiles;

namespace {

const unsigned JobCounts[] = {1, 2, 3, 4, 7};
/// Chunk sizes down to one event, so generated traces put a boundary
/// everywhere; the production size makes most of them one chunk.
const size_t ChunkSizes[] = {1, 3, 4, 64, TraceChunkEvents};

/// Events with the given ids, alternating in direction.
ColumnarTrace traceOf(const std::vector<int32_t> &Ids, uint32_t NumBranches) {
  std::vector<Event> Events;
  for (size_t I = 0; I < Ids.size(); ++I)
    Events.emplace_back(Ids[I], I % 3 != 1);
  return makeTrace(Events, NumBranches);
}

/// Every chunked pass over \p CT (finalized for PA's branches) at every
/// job count and chunk size of \p Sizes against the default, and the
/// profiles against the per-event reference.
void expectShardingExact(const ProgramAnalysis &PA, const ColumnarTrace &CT,
                         const sa::BranchProofs *Proofs = nullptr,
                         std::initializer_list<size_t> Sizes = {
                             1, 3, 4, 64, TraceChunkEvents}) {
  const ProfileSet Want = buildLoopAwareProfiles(PA, CT, 9, Proofs);
  EXPECT_TRUE(sameProfiles(Want, referenceLoopAwareProfiles(PA, CT, Proofs)));
  const auto Cands = test::pathCandidates(PA, 4);
  const std::vector<PathProfile> WantPaths = profilePaths(Cands, CT, 4);
  for (size_t Chunk : Sizes)
    for (unsigned Jobs : JobCounts) {
      SCOPED_TRACE("chunk " + std::to_string(Chunk) + " jobs " +
                   std::to_string(Jobs));
      ColumnarTrace Sharded = CT;
      Sharded.finalize(PA.numBranches(), Jobs, Chunk);
      expectSameIndex(Sharded, CT);
      EXPECT_TRUE(sameProfiles(
          buildLoopAwareProfiles(PA, CT, 9, Proofs, Jobs, Chunk), Want));
      test::expectSamePathProfiles(profilePaths(Cands, CT, 4, Jobs, Chunk),
                                   WantPaths);
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
      expectShardingExact(PA, CT, nullptr, {4096, TraceChunkEvents});
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

TEST(ShardedPasses, TraceChunksCoverTheTraceInOrder) {
  for (size_t N : {0u, 1u, 5u, 64u, 1000u})
    for (size_t Chunk : {1u, 3u, 64u, 4096u}) {
      std::vector<EventRange> Chunks = traceChunks(N, Chunk);
      ASSERT_EQ(Chunks.size(), (N + Chunk - 1) / Chunk);
      size_t Next = 0;
      for (const EventRange &R : Chunks) {
        EXPECT_EQ(R.Begin, Next);
        EXPECT_LT(R.Begin, R.End);
        EXPECT_LE(R.End - R.Begin, Chunk);
        Next = R.End;
      }
      EXPECT_EQ(Next, N);
    }
}

TEST(ShardedPasses, IndexMatchesEventsAcrossWordAndChunkBoundaries) {
  // Few branches and lengths around word multiples, so chunks split
  // per-branch words at every offset; ids outside the index included.
  Rng G(77);
  for (size_t N : {0u, 1u, 3u, 63u, 64u, 65u, 127u, 130u, 1000u, 4099u}) {
    std::vector<Event> Events;
    for (size_t I = 0; I < N; ++I)
      Events.emplace_back(static_cast<int32_t>(G.below(4)) - (G.chance(1, 50)),
                          G.chance(1, 2));
    const ColumnarTrace One = makeTrace(Events, 3);
    for (size_t Chunk : ChunkSizes)
      for (unsigned Jobs : JobCounts) {
        SCOPED_TRACE("events " + std::to_string(N) + " chunk " +
                     std::to_string(Chunk) + " jobs " + std::to_string(Jobs));
        ColumnarTrace Sharded = makeTrace(Events);
        Sharded.finalize(3, Jobs, Chunk);
        expectSameIndex(Sharded, One);
        expectIndexOfEvents(Sharded);
      }
  }
}

TEST(ShardedPasses, RandomTracesMatchTheReference) {
  // Random events over the module's ids and two ids with no branch, with
  // chunks shorter than the path window.
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

TEST(ShardedPasses, EmptyTraceAndMoreJobsThanChunks) {
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);
  expectShardingExact(PA, traceOf({}, 3));
  expectShardingExact(PA, traceOf({Inner, Latch}, 3));
  ColumnarTrace Empty = traceOf({}, 3);
  Empty.finalize(3, 7, 4);
  EXPECT_EQ(Empty.branch(Inner).Executions, 0u);
  EXPECT_TRUE(buildLoopAwareProfiles(PA, Empty, 9, nullptr, 7, 4)
                  .branch(Inner)
                  .ResetPositions.empty());
}

// The scenarios below run 12 events in chunks of 4: [0,4), [4,8) and
// [8,12).

TEST(ShardedPasses, OnlyExecutionOpensAChunk) {
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);
  ASSERT_EQ(PA.classOf(Pre).Kind, BranchKind::NonLoop);
  ASSERT_NE(PA.classOf(Inner).Kind, BranchKind::NonLoop);
  ASSERT_NE(PA.classOf(Latch).Kind, BranchKind::NonLoop);

  // The inner header runs once, first in chunk 1, after events outside
  // its loop: that execution resets.
  ColumnarTrace A = traceOf({Pre, Pre, Pre, Pre, Inner, Latch, Latch, Latch,
                             Latch, Latch, Latch, Latch},
                            3);
  expectShardingExact(PA, A);
  EXPECT_EQ(buildLoopAwareProfiles(PA, A, 9, nullptr, 3, 4)
                .branch(Inner)
                .ResetPositions,
            std::vector<uint64_t>{0});

  // The latch runs first in chunk 1, after only inner-header events, which
  // are inside the outer loop too: no reset.
  ColumnarTrace B = traceOf({Inner, Inner, Inner, Inner, Latch, Inner, Inner,
                             Latch, Inner, Inner, Inner, Inner},
                            3);
  expectShardingExact(PA, B);
  EXPECT_TRUE(buildLoopAwareProfiles(PA, B, 9, nullptr, 3, 4)
                  .branch(Latch)
                  .ResetPositions.empty());
}

TEST(ShardedPasses, LoopNeverEnteredInAChunk) {
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);

  // Chunk 1 runs only the latch, outside the inner loop: the inner header
  // resets when chunk 2 re-enters it.
  ColumnarTrace A = traceOf({Inner, Inner, Inner, Inner, Latch, Latch, Latch,
                             Latch, Inner, Inner, Inner, Inner},
                            3);
  expectShardingExact(PA, A);
  EXPECT_EQ(buildLoopAwareProfiles(PA, A, 9, nullptr, 3, 4)
                .branch(Inner)
                .ResetPositions,
            std::vector<uint64_t>{4});

  // Chunk 1 runs only the preamble: both loops are left, and the latch
  // resets in chunk 2 although it never ran in chunk 1.
  ColumnarTrace B = traceOf({Latch, Latch, Latch, Latch, Pre, Pre, Pre, Pre,
                             Latch, Latch, Latch, Latch},
                            3);
  expectShardingExact(PA, B);
  EXPECT_EQ(buildLoopAwareProfiles(PA, B, 9, nullptr, 3, 4)
                .branch(Latch)
                .ResetPositions,
            std::vector<uint64_t>{4});

  // Chunk 1 stays inside the outer loop without the latch: no reset.
  ColumnarTrace C = traceOf({Latch, Latch, Latch, Latch, Inner, Inner, Inner,
                             Inner, Latch, Latch, Latch, Latch},
                            3);
  expectShardingExact(PA, C);
  EXPECT_TRUE(buildLoopAwareProfiles(PA, C, 9, nullptr, 3, 4)
                  .branch(Latch)
                  .ResetPositions.empty());
}

TEST(ShardedPasses, ResetAtAChunkBoundary) {
  Module M = preambleAndNestedLoops();
  ProgramAnalysis PA(M);

  // The event that leaves the inner loop closes chunk 0; the reset lands
  // on the first event of chunk 1.
  ColumnarTrace A = traceOf({Inner, Inner, Inner, Latch, Inner, Inner, Inner,
                             Inner, Inner, Inner, Inner, Inner},
                            3);
  expectShardingExact(PA, A);
  EXPECT_EQ(buildLoopAwareProfiles(PA, A, 9, nullptr, 3, 4)
                .branch(Inner)
                .ResetPositions,
            std::vector<uint64_t>{3});

  // The leaving event opens chunk 1; the reset follows inside it.
  ColumnarTrace B = traceOf({Inner, Inner, Inner, Inner, Latch, Inner, Inner,
                             Inner, Latch, Inner, Inner, Inner},
                            3);
  expectShardingExact(PA, B);
  EXPECT_EQ(buildLoopAwareProfiles(PA, B, 9, nullptr, 3, 4)
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
  const ProfileSet P = buildLoopAwareProfiles(PA, CT, 9, nullptr, 3, 4);
  EXPECT_EQ(P.branch(Inner).ResetPositions, (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_EQ(P.branch(Latch).ResetPositions,
            (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(P.totalExecutions(), 8u);
}
