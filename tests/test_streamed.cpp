//===- tests/test_streamed.cpp - Trace walks during the run ---------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// The trace-side walks (index counts, loop-aware reset scan, path
// automaton) run chunk by chunk while the interpreter writes the trace
// (core/TraceProfiles.h, trace/TraceStream.h). Whatever the job count, the
// chunk size and the moment a run stops, the streamed results must equal
// the offline passes over the finished trace and the per-event
// references: the index, the reset positions, the pattern tables with
// their final history, and the path profiles of every branch the search
// reads.
//
//===----------------------------------------------------------------------===//

#include "ProfileTestUtil.h"
#include "TraceTestUtil.h"

#include "core/CorrelatedMachine.h"
#include "core/LoopAwareProfiles.h"
#include "core/TraceProfiles.h"
#include "ir/IRBuilder.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "trace/TraceStream.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace bpcr;
using bpcr::test::Event;
using bpcr::test::expectIndexOfEvents;
using bpcr::test::expectSameIndex;
using bpcr::test::expectSamePathProfiles;
using bpcr::test::Inner;
using bpcr::test::Latch;
using bpcr::test::Pre;
using bpcr::test::referenceLoopAwareProfiles;
using bpcr::test::sameProfiles;

namespace {

const unsigned JobCounts[] = {1, 2, 3, 4, 7};
const size_t ChunkSizes[] = {64, 4096, TraceChunkEvents};

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

/// The same events, in order.
void expectSameEvents(const ColumnarTrace &Got, const ColumnarTrace &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    ASSERT_EQ(Got.branchId(I), Want.branchId(I)) << "event " << I;
    ASSERT_EQ(Got.taken(I), Want.taken(I)) << "event " << I;
  }
}

/// A streamed run equals the offline passes over its own trace: the
/// index, the profiles, and the path profiles of every branch it profiled.
void expectSameAsOffline(const TraceProfiles &TP) {
  const ProgramAnalysis &PA = *TP.PA;
  ColumnarTrace Offline = test::makeTrace(test::eventsOf(TP.Trace));
  Offline.finalize(PA.numBranches());
  expectSameIndex(TP.Trace, Offline);
  expectIndexOfEvents(TP.Trace);
  EXPECT_TRUE(sameProfiles(
      TP.Profiles, buildLoopAwareProfiles(PA, Offline, 9, TP.proofs())));
  EXPECT_TRUE(sameProfiles(
      TP.Profiles, referenceLoopAwareProfiles(PA, Offline, TP.proofs())));
  expectSamePathProfiles(
      TP.Paths.Profiles,
      profilePaths(TP.Paths.Candidates, Offline, TP.Paths.PathLen));
}

/// A loop of \p Iters iterations with a data-dependent branch inside,
/// then \p Tail: 0 returns, 1 loads out of bounds, 2 falls off a block.
/// With Iters < 0 the loop never ends.
Module countedLoop(int64_t Iters, int Tail) {
  Module M;
  M.MemWords = 4;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), C = B.newReg(), T = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Head = B.newBlock("head");
  uint32_t Body = B.newBlock("body");
  uint32_t Odd = B.newBlock("odd");
  uint32_t Next = B.newBlock("next");
  uint32_t After = B.newBlock("after");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.jmp(Head);
  B.setInsertPoint(Head);
  if (Iters < 0)
    B.cmpGe(C, R(I), K(0));
  else
    B.cmpLt(C, R(I), K(Iters));
  B.br(R(C), Body, After);
  B.setInsertPoint(Body);
  B.rem(T, R(I), K(3));
  B.cmpEq(C, R(T), K(0));
  B.br(R(C), Odd, Next);
  B.setInsertPoint(Odd);
  B.jmp(Next);
  B.setInsertPoint(Next);
  B.add(I, R(I), K(1));
  B.jmp(Head);
  B.setInsertPoint(After);
  if (Tail == 0) {
    B.ret(R(I));
  } else if (Tail == 1) {
    B.load(T, R(I), K(100));
    B.ret(R(T));
  } else {
    uint32_t Empty = B.newBlock("empty");
    B.jmp(Empty);
  }
  M.assignBranchIds();
  return M;
}

/// Streams \p M at every job count and the given chunk sizes, and checks
/// each run against the offline passes; \returns the last run.
TraceProfiles expectStreamedRunsExact(const Module &M, const ExecOptions &Exec,
                                      size_t Reserve, bool WantOk,
                                      const std::string &WantError = "") {
  TraceProfiles Last;
  for (size_t Chunk : {size_t{64}, size_t{128}})
    for (unsigned Jobs : JobCounts) {
      SCOPED_TRACE("chunk " + std::to_string(Chunk) + " jobs " +
                   std::to_string(Jobs));
      TraceProfileOptions Opts;
      Opts.Jobs = Jobs;
      Opts.ChunkEvents = Chunk;
      Opts.UseProofs = Jobs % 2 == 1;
      TraceProfiles TP;
      EXPECT_EQ(traceModuleProfiles(M, Exec, Reserve, Opts, TP), WantOk);
      EXPECT_EQ(TP.Run.Ok, WantOk);
      EXPECT_EQ(TP.Run.Error, WantError);
      EXPECT_EQ(TP.Trace.size(), TP.Run.BranchEvents);
      expectSameAsOffline(TP);
      if (!Last.PA)
        Last = std::move(TP);
      else
        expectSameEvents(TP.Trace, Last.Trace);
    }
  return Last;
}

/// Streams \p Events as the interpreter's emitter would (each full chunk
/// published) into the scan and path walks, then finishes them.
struct Streamed {
  ColumnarTrace CT;
  ProfileSet Profiles{0};
  std::vector<PathProfile> Paths;
};

Streamed streamEvents(const ProgramAnalysis &PA,
                      const std::vector<std::vector<BranchPath>> &Cands,
                      const std::vector<Event> &Events, unsigned Jobs,
                      size_t Chunk) {
  Streamed S;
  S.CT.reserve(Events.size());
  const unsigned Workers = ThreadPool::threadsFor(Jobs);
  ChunkResults<ColumnarTrace::ChunkIndex> Index(Workers);
  LoopResetScan Scan(PA, Workers);
  PathWalk Paths(Cands, 4, Workers);
  streamChunks(
      S.CT, Jobs, Chunk, [] {},
      [&](ChunkStream *Stream) {
        for (size_t I = 0; I < Events.size(); ++I) {
          S.CT.append(Events[I].first, Events[I].second);
          if (Stream && (I + 1) % Chunk == 0)
            Stream->publish(I + 1);
        }
      },
      [&](size_t K, EventRange Range, TraceColumns Cols, unsigned W) {
        ColumnarTrace::ChunkIndex &Slice = Index.add(K, W);
        ColumnarTrace::indexChunk(Cols, Range, PA.numBranches(), Slice);
        Scan.scanChunk(K, Range, Cols, Slice, W);
        Paths.walkChunk(K, Range, Cols, W);
      });
  S.CT.finalizeChunks(PA.numBranches(), Index.take());
  S.Profiles = Scan.profiles(S.CT, Jobs);
  S.Paths = Paths.profiles();
  return S;
}

/// Streamed walks of \p Events at every job count in chunks of 64 against
/// the offline passes and the per-event reference.
void expectStreamedEventsExact(const ProgramAnalysis &PA,
                               const std::vector<Event> &Events) {
  const ColumnarTrace Offline = test::makeTrace(Events, PA.numBranches());
  const auto Cands = test::pathCandidates(PA, 4);
  const ProfileSet Want = buildLoopAwareProfiles(PA, Offline);
  EXPECT_TRUE(sameProfiles(Want, referenceLoopAwareProfiles(PA, Offline,
                                                             nullptr)));
  const std::vector<PathProfile> WantPaths = profilePaths(Cands, Offline, 4);
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    Streamed S = streamEvents(PA, Cands, Events, Jobs, 64);
    expectSameIndex(S.CT, Offline);
    EXPECT_TRUE(sameProfiles(S.Profiles, Want));
    expectSamePathProfiles(S.Paths, WantPaths);
  }
}

} // namespace

TEST(StreamedTrace, WorkloadsMatchOfflineAtEveryJobCountAndChunkSize) {
  for (const Workload &W : allWorkloads())
    for (uint64_t Seed : {1u, 13u}) {
      SCOPED_TRACE(std::string(W.Name) + " seed " + std::to_string(Seed));
      constexpr uint64_t Events = 60'000;
      Module Ref;
      const ColumnarTrace RefCT = traceWorkloadColumnar(W, Seed, Ref, Events);
      for (size_t Chunk : ChunkSizes)
        for (unsigned Jobs : JobCounts) {
          SCOPED_TRACE("chunk " + std::to_string(Chunk) + " jobs " +
                       std::to_string(Jobs));
          TraceProfileOptions Opts;
          Opts.MaxBranchEvents = Events;
          Opts.Jobs = Jobs;
          Opts.ChunkEvents = Chunk;
          Opts.UseProofs = Jobs != 2;
          Module M;
          TraceProfiles TP;
          ASSERT_TRUE(traceProfiles(W, Seed, M, Opts, TP));
          expectSameEvents(TP.Trace, RefCT);
          expectSameAsOffline(TP);
        }
    }
}

TEST(StreamedTrace, ColdBranchKeysLeaveTheSearchedProfilesUnchanged) {
  // The streamed walk profiles every unproven branch before it knows which
  // are warm; the branches the search reads must see the profiles a pass
  // over their candidates alone gives.
  for (const Workload &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    TraceProfileOptions Opts;
    Opts.MaxBranchEvents = 100'000;
    Opts.Jobs = 4;
    Opts.UseProofs = true;
    Module M;
    TraceProfiles TP;
    ASSERT_TRUE(traceProfiles(W, 13, M, Opts, TP));
    const ProgramAnalysis &PA = *TP.PA;
    for (uint64_t MinExecutions : {16u, 64u, 5000u}) {
      std::vector<std::vector<BranchPath>> Eligible(PA.numBranches());
      for (uint32_t Id = 0; Id < PA.numBranches(); ++Id)
        if (TP.Paths.Profiled[Id] &&
            TP.Profiles.branch(static_cast<int32_t>(Id)).executions() >=
                MinExecutions)
          Eligible[Id] = TP.Paths.Candidates[Id];
      const std::vector<PathProfile> Alone =
          profilePaths(Eligible, TP.Trace, TP.Paths.PathLen);
      std::vector<PathProfile> Streamed(PA.numBranches());
      for (uint32_t Id = 0; Id < PA.numBranches(); ++Id)
        if (!Eligible[Id].empty())
          Streamed[Id] = TP.Paths.Profiles[Id];
        else
          Streamed[Id] = Alone[Id]; // no candidates: not compared
      expectSamePathProfiles(Streamed, Alone);
    }
  }
}

TEST(StreamedTrace, RunShorterThanOneChunk) {
  Module M = countedLoop(10, 0);
  TraceProfiles TP = expectStreamedRunsExact(M, ExecOptions(), 1000, true);
  EXPECT_LT(TP.Trace.size(), 64u);
  EXPECT_GT(TP.Trace.size(), 0u);
}

TEST(StreamedTrace, RunOfAnExactMultipleOfTheChunk) {
  Module M = countedLoop(-1, 0);
  ExecOptions Exec;
  Exec.MaxBranchEvents = 1024;
  TraceProfiles TP = expectStreamedRunsExact(M, Exec, 1024, true);
  EXPECT_TRUE(TP.Run.HitBranchLimit);
  EXPECT_EQ(TP.Trace.size(), 1024u);
}

TEST(StreamedTrace, CapAboveTheReservation) {
  // The columns move once the run outgrows the 200 reserved events:
  // publishing stops before that, and the rest is walked after the run.
  Module M = countedLoop(-1, 0);
  ExecOptions Exec;
  Exec.MaxBranchEvents = 5000;
  TraceProfiles TP = expectStreamedRunsExact(M, Exec, 200, true);
  EXPECT_EQ(TP.Trace.size(), 5000u);
}

TEST(StreamedTrace, EmptyRun) {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  B.setInsertPoint(B.newBlock("entry"));
  B.ret(K(7));
  M.assignBranchIds();
  TraceProfiles TP = expectStreamedRunsExact(M, ExecOptions(), 64, true);
  EXPECT_TRUE(TP.Trace.empty());
  EXPECT_EQ(TP.Profiles.numBranches(), 0u);
}

// A run that stops early joins its helpers and returns what the offline
// passes give on the events before the stop.

TEST(StreamedTrace, RunErrorMidChunk) {
  Module M = countedLoop(500, 1);
  TraceProfiles TP = expectStreamedRunsExact(
      M, ExecOptions(), 4096, false, "load from address 600 out of bounds");
  EXPECT_GT(TP.Trace.size(), 1000u);
}

TEST(StreamedTrace, RunFallsOffABlock) {
  // A module with an empty block has no program analysis, so this run
  // streams into the index counts alone.
  Module M = countedLoop(700, 2);
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    ColumnarTrace CT;
    CT.reserve(4096);
    ExecResult Run;
    ChunkResults<ColumnarTrace::ChunkIndex> Index(
        ThreadPool::threadsFor(Jobs));
    streamChunks(
        CT, Jobs, 64, [] {},
        [&](ChunkStream *Stream) {
          Run = executeColumnar(M, CT, /*UseOrigIds=*/false, ExecOptions(),
                                Stream);
        },
        [&](size_t K, EventRange Range, TraceColumns Cols, unsigned W) {
          ColumnarTrace::indexChunk(Cols, Range, 2, Index.add(K, W));
        });
    EXPECT_FALSE(Run.Ok);
    EXPECT_EQ(Run.Error, "control fell off a block in function 0");
    ASSERT_EQ(CT.size(), 1401u);
    CT.finalizeChunks(2, Index.take());
    ColumnarTrace Offline = test::makeTrace(test::eventsOf(CT), 2);
    expectSameIndex(CT, Offline);
    expectIndexOfEvents(CT);
  }
}

TEST(StreamedTrace, RunOutOfFuel) {
  Module M = countedLoop(-1, 0);
  ExecOptions Exec;
  Exec.MaxInstructions = 5000;
  TraceProfiles TP = expectStreamedRunsExact(
      M, Exec, 4096, false, "instruction budget exhausted (5000)");
  EXPECT_GT(TP.Trace.size(), 500u);
}

TEST(StreamedTrace, EventCapMidChunk) {
  Module M = countedLoop(-1, 0);
  ExecOptions Exec;
  Exec.MaxBranchEvents = 1000;
  TraceProfiles TP = expectStreamedRunsExact(M, Exec, 4096, true);
  EXPECT_TRUE(TP.Run.HitBranchLimit);
  EXPECT_EQ(TP.Trace.size(), 1000u);
}

TEST(StreamedTrace, IdsWithoutABranchAreOutsideEveryLoop) {
  Module M = test::preambleAndNestedLoops();
  ProgramAnalysis PA(M);
  const int32_t Far = static_cast<int32_t>(PA.numBranches()) + 5;
  Rng G(99);
  for (size_t N : {0u, 1u, 63u, 64u, 65u, 128u, 1000u, 5000u}) {
    SCOPED_TRACE("events " + std::to_string(N));
    std::vector<Event> Events;
    for (size_t I = 0; I < N; ++I)
      Events.emplace_back(G.chance(1, 10) ? (G.chance(1, 2) ? -1 : Far)
                                          : static_cast<int32_t>(G.below(3)),
                          G.chance(1, 3));
    expectStreamedEventsExact(PA, Events);
  }
}

TEST(StreamedTrace, ResetAndFirstExecutionAtAChunkBoundary) {
  Module M = test::preambleAndNestedLoops();
  ProgramAnalysis PA(M);
  // 63 inner-header events, the latch leaving the inner loop as the last
  // event of chunk 0, then the inner header again: its reset lands on the
  // first event of chunk 1.
  std::vector<Event> A(63, {Inner, true});
  A.emplace_back(Latch, true);
  for (int I = 0; I < 64; ++I)
    A.emplace_back(Inner, I % 2 == 0);
  expectStreamedEventsExact(PA, A);
  EXPECT_EQ(streamEvents(PA, test::pathCandidates(PA, 4), A, 4, 64)
                .Profiles.branch(Inner)
                .ResetPositions,
            std::vector<uint64_t>{63});

  // The preamble fills chunk 0; the latch's first execution opens chunk 1
  // and resets.
  std::vector<Event> B(64, {Pre, false});
  for (int I = 0; I < 70; ++I)
    B.emplace_back(I % 5 ? Inner : Latch, I % 3 == 0);
  expectStreamedEventsExact(PA, B);
  EXPECT_EQ(streamEvents(PA, test::pathCandidates(PA, 4), B, 4, 64)
                .Profiles.branch(Latch)
                .ResetPositions,
            std::vector<uint64_t>{0});
}
