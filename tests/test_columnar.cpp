//===- tests/test_columnar.cpp - Columnar event-path tests ----------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// The columnar trace (trace/ColumnarTrace.h) and the packed-word scoring
// kernels (core/ScoreKernels.h) that walk it. The batched paths are held
// against small per-event oracles: batched emission against per-event sink
// delivery on all eight workloads, the per-branch index against the event
// stream, bitstream word-boundary edges, scalar-vs-SIMD kernel equality
// under fuzz, and the loop-aware profile builder, profile counts, decoder
// errors and predictor evaluation against per-event references.
//
//===----------------------------------------------------------------------===//

#include "ProfileTestUtil.h"
#include "TraceTestUtil.h"

#include "core/LoopAwareProfiles.h"
#include "core/Machines.h"
#include "core/ScoreKernels.h"
#include "interp/Interpreter.h"
#include "predict/DynamicPredictors.h"
#include "predict/Evaluator.h"
#include "sa/Dataflow.h"
#include "sa/ProfileVerify.h"
#include "trace/Bitstream.h"
#include "trace/ColumnarTrace.h"
#include "trace/TraceFile.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

using namespace bpcr;
using bpcr::test::Event;
using bpcr::test::eventsOf;
using bpcr::test::makeTrace;
using bpcr::test::referenceLoopAwareProfiles;
using bpcr::test::sameProfiles;

namespace {

/// Deterministic random direction stream of \p N bits with taken
/// probability \p Num/\p Den.
std::vector<uint8_t> randomBits(std::mt19937 &Rng, size_t N, unsigned Num = 1,
                                unsigned Den = 2) {
  std::vector<uint8_t> Bits(N);
  for (size_t I = 0; I < N; ++I)
    Bits[I] = (Rng() % Den) < Num ? 1 : 0;
  return Bits;
}

BitstreamBuilder buildStream(const std::vector<uint8_t> &Bits) {
  BitstreamBuilder B;
  for (uint8_t Bit : Bits)
    B.push(Bit != 0);
  return B;
}

/// The tiers the running CPU/build can actually express; requesting an
/// unsupported tier clamps, so only distinct resolved tiers are listed.
std::vector<SimdTier> availableTiers() {
  std::vector<SimdTier> Tiers{SimdTier::Scalar};
  for (SimdTier T : {SimdTier::SSE2, SimdTier::AVX2}) {
    setSimdTierForTest(T);
    if (activeSimdTier() == T)
      Tiers.push_back(T);
  }
  setSimdTierForTest(SimdTier::AVX2); // restore best supported
  return Tiers;
}

/// Restores the best supported tier when a tier-flipping test exits.
struct TierGuard {
  ~TierGuard() { setSimdTierForTest(SimdTier::AVX2); }
};

const Workload &workloadNamed(const std::string &Name) {
  for (const Workload &W : allWorkloads())
    if (Name == W.Name)
      return W;
  ADD_FAILURE() << "unknown workload " << Name;
  return allWorkloads().front();
}

} // namespace

//===----------------------------------------------------------------------===//
// Batched emission and the per-branch index
//===----------------------------------------------------------------------===//

TEST(ColumnarTrace, BatchedEmissionMatchesPerEventDeliveryOnAllWorkloads) {
  for (const Workload &W : allWorkloads()) {
    Module M;
    ColumnarTrace CT = traceWorkloadColumnar(W, 1, M, 20000);
    EXPECT_TRUE(CT.indexed()) << W.Name;
    EXPECT_EQ(CT.numBranches(), M.conditionalBranchCount()) << W.Name;

    test::PerEventSink Reference;
    ExecOptions Opts;
    Opts.MaxBranchEvents = 20000;
    ASSERT_TRUE(execute(M, &Reference, Opts).Ok) << W.Name;
    EXPECT_EQ(eventsOf(CT), Reference.Events) << W.Name;
  }
}

TEST(ColumnarTrace, IndexMatchesPerBranchSubsequence) {
  Module M;
  const Workload &W = allWorkloads()[2]; // compress
  ColumnarTrace CT = traceWorkloadColumnar(W, 1, M, 20000);
  ASSERT_TRUE(CT.indexed());
  ASSERT_EQ(CT.numBranches(), M.conditionalBranchCount());
  for (uint32_t Id = 0; Id < CT.numBranches(); ++Id) {
    std::vector<uint8_t> Expected;
    uint64_t Taken = 0;
    for (const auto &[EventId, EventTaken] : eventsOf(CT)) {
      if (EventId != static_cast<int32_t>(Id))
        continue;
      Expected.push_back(EventTaken ? 1 : 0);
      Taken += EventTaken;
    }
    BranchColumn C = CT.branch(Id);
    ASSERT_EQ(C.Executions, Expected.size()) << "branch " << Id;
    EXPECT_EQ(C.TakenCount, Taken) << "branch " << Id;
    ASSERT_EQ(C.Bits.size(), Expected.size()) << "branch " << Id;
    for (uint64_t I = 0; I < C.Bits.size(); ++I)
      ASSERT_EQ(C.Bits.bit(I), Expected[I] != 0)
          << "branch " << Id << " event " << I;
  }
  EXPECT_EQ(CT.outOfRange(), 0u);
}

TEST(ColumnarTrace, OutOfRangeEventsCountedNotIndexed) {
  ColumnarTrace CT;
  CT.append(0, true);
  CT.append(5, true);  // beyond NumBranches
  CT.append(1, false);
  CT.append(-3, true); // negative
  CT.append(0, false);
  CT.finalize(2);
  EXPECT_EQ(CT.outOfRange(), 2u);
  EXPECT_EQ(CT.branch(0).Executions, 2u);
  EXPECT_EQ(CT.branch(0).TakenCount, 1u);
  EXPECT_EQ(CT.branch(1).Executions, 1u);
  EXPECT_EQ(CT.branch(1).TakenCount, 0u);
  // The raw columns still hold all five events in order.
  EXPECT_EQ(CT.size(), 5u);
  EXPECT_EQ(CT.branchId(1), 5);
  EXPECT_EQ(CT.branchId(3), -3);
}

TEST(ColumnarTrace, EmptyAndSingleEventBranches) {
  ColumnarTrace CT;
  CT.appendRun(1, true, 1);
  CT.finalize(3);
  EXPECT_EQ(CT.branch(0).Executions, 0u);
  EXPECT_EQ(CT.branch(0).Bits.size(), 0u);
  EXPECT_EQ(CT.branch(1).Executions, 1u);
  EXPECT_TRUE(CT.branch(1).Bits.bit(0));
  EXPECT_EQ(CT.branch(2).Executions, 0u);

  CT.clear();
  EXPECT_TRUE(CT.empty());
  EXPECT_FALSE(CT.indexed());
  CT.finalize(0);
  EXPECT_EQ(CT.numBranches(), 0u);
  EXPECT_EQ(CT.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Bitstream word-boundary edges
//===----------------------------------------------------------------------===//

TEST(Bitstream, AppendRunMatchesPushAtWordBoundaries) {
  for (uint64_t N : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    for (bool Taken : {false, true}) {
      BitstreamBuilder ByPush, ByRun;
      for (uint64_t I = 0; I < N; ++I)
        ByPush.push(Taken);
      ByRun.appendRun(Taken, N);
      ASSERT_EQ(ByRun.size(), N);
      ASSERT_EQ(ByRun.view().numWords(), ByPush.view().numWords());
      for (size_t W = 0; W < ByRun.view().numWords(); ++W)
        ASSERT_EQ(ByRun.view().word(W), ByPush.view().word(W))
            << "N=" << N << " taken=" << Taken << " word " << W;
    }
  }
}

TEST(Bitstream, AppendRunStraddlesWordsFromUnalignedStart) {
  // 5 seed bits, then a 200-bit taken run: covers the partial head word,
  // full middle words and the partial tail word of appendRun.
  BitstreamBuilder ByRun = buildStream({1, 0, 1, 1, 0});
  BitstreamBuilder ByPush = buildStream({1, 0, 1, 1, 0});
  ByRun.appendRun(true, 200);
  for (int I = 0; I < 200; ++I)
    ByPush.push(true);
  ByRun.appendRun(false, 70);
  for (int I = 0; I < 70; ++I)
    ByPush.push(false);
  ASSERT_EQ(ByRun.size(), ByPush.size());
  for (size_t W = 0; W < ByRun.view().numWords(); ++W)
    ASSERT_EQ(ByRun.view().word(W), ByPush.view().word(W)) << "word " << W;
}

TEST(Bitstream, AppendBitsAlignedAndUnaligned) {
  std::mt19937 Rng(7);
  std::vector<uint8_t> Src = randomBits(Rng, 150);
  BitstreamBuilder Source = buildStream(Src);

  BitstreamBuilder Aligned;
  Aligned.appendBits(Source.view()); // whole-word copy path
  ASSERT_EQ(Aligned.size(), Source.size());
  for (uint64_t I = 0; I < Aligned.size(); ++I)
    ASSERT_EQ(Aligned.bit(I), Source.bit(I));

  BitstreamBuilder Unaligned = buildStream({1, 1, 0});
  Unaligned.appendBits(Source.view()); // bit-loop path
  ASSERT_EQ(Unaligned.size(), 3 + Source.size());
  for (uint64_t I = 0; I < Source.size(); ++I)
    ASSERT_EQ(Unaligned.bit(3 + I), Source.bit(I));
}

TEST(Bitstream, TailBitsPastLogicalLengthStayZero) {
  // Kernels read whole tail words, so bits past size() must be zero no
  // matter how the stream was built.
  std::mt19937 Rng(11);
  for (uint64_t N : {1u, 37u, 63u, 65u, 100u}) {
    BitstreamBuilder ByPush = buildStream(randomBits(Rng, N, 9, 10));
    BitstreamBuilder ByRun;
    ByRun.appendRun(true, N);
    for (const BitstreamBuilder *B : {&ByPush, &ByRun}) {
      BitstreamView V = B->view();
      if (V.size() & 63) {
        uint64_t Tail = V.word(V.numWords() - 1) >> (V.size() & 63);
        EXPECT_EQ(Tail, 0u) << "N=" << N;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Scalar-vs-SIMD kernel equality (fuzz)
//===----------------------------------------------------------------------===//

TEST(ScoreKernels, PopcountAndConstantScoreMatchScalarOnEveryTier) {
  TierGuard Restore;
  std::mt19937 Rng(23);
  for (SimdTier Tier : availableTiers()) {
    setSimdTierForTest(Tier);
    for (uint64_t N : {0u, 1u, 64u, 100u, 500u, 4096u}) {
      std::vector<uint8_t> Bits = randomBits(Rng, N, 3, 7);
      BitstreamBuilder B = buildStream(Bits);
      uint64_t Taken = popcountBitsScalar(B.view());
      EXPECT_EQ(popcountBits(B.view()), Taken)
          << simdTierName(Tier) << " N=" << N;
      EXPECT_EQ(scoreConstant(B.view(), true), Taken);
      EXPECT_EQ(scoreConstant(B.view(), false), N - Taken);
    }
  }
}

TEST(ScoreKernels, MachineWalkMatchesVirtualReferenceOnEveryTier) {
  TierGuard Restore;
  std::mt19937 Rng(31);
  for (int Round = 0; Round < 20; ++Round) {
    // A random dense machine: nibble successors < NumStates, random
    // per-state predictions. This covers transition tables no real search
    // would build, which is the point of a fuzz reference.
    unsigned NumStates = 1 + Rng() % 16;
    DenseMachine M;
    M.NumStates = static_cast<uint8_t>(NumStates);
    M.Initial = static_cast<uint8_t>(Rng() % NumStates);
    M.PredMask = static_cast<uint16_t>(Rng() & 0xffff);
    for (int Outcome = 0; Outcome < 2; ++Outcome)
      for (unsigned S = 0; S < 16; ++S)
        M.NextTab[Outcome] |=
            static_cast<uint64_t>(Rng() % NumStates) << (S * 4);

    uint64_t N = 1 + Rng() % 700;
    std::vector<uint8_t> Bits = randomBits(Rng, static_cast<size_t>(N));
    BitstreamBuilder B = buildStream(Bits);

    auto Reference = [&](uint64_t Start, uint64_t Len) {
      unsigned S = M.Initial;
      uint64_t Correct = 0;
      for (uint64_t I = Start; I < Start + Len; ++I) {
        bool Taken = Bits[static_cast<size_t>(I)] != 0;
        Correct += M.predictTaken(S) == Taken;
        S = M.next(S, Taken);
      }
      return Correct;
    };

    uint64_t Start = Rng() % (N + 1);
    uint64_t Len = N - Start;
    for (SimdTier Tier : availableTiers()) {
      setSimdTierForTest(Tier);
      EXPECT_EQ(scoreMachine(M, B.view()), Reference(0, N))
          << simdTierName(Tier) << " round " << Round;
      EXPECT_EQ(scoreMachineRange(M, B.view().data(), Start, Len),
                Reference(Start, Len))
          << simdTierName(Tier) << " round " << Round << " start " << Start;
    }
  }
}

TEST(ScoreKernels, BatchScoringEqualsSingleMachineScores) {
  TierGuard Restore;
  std::mt19937 Rng(47);
  for (size_t K : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
    std::vector<DenseMachine> Machines(K);
    for (DenseMachine &M : Machines) {
      unsigned NumStates = 1 + Rng() % 16;
      M.NumStates = static_cast<uint8_t>(NumStates);
      M.Initial = static_cast<uint8_t>(Rng() % NumStates);
      M.PredMask = static_cast<uint16_t>(Rng() & 0xffff);
      for (int Outcome = 0; Outcome < 2; ++Outcome)
        for (unsigned S = 0; S < 16; ++S)
          M.NextTab[Outcome] |=
              static_cast<uint64_t>(Rng() % NumStates) << (S * 4);
    }
    std::vector<uint8_t> Bits = randomBits(Rng, 333);
    BitstreamBuilder B = buildStream(Bits);
    for (SimdTier Tier : availableTiers()) {
      setSimdTierForTest(Tier);
      std::vector<uint64_t> Batch(K);
      scoreMachines(Machines.data(), K, B.view(), Batch.data());
      for (size_t I = 0; I < K; ++I)
        EXPECT_EQ(Batch[I], scoreMachine(Machines[I], B.view()))
            << simdTierName(Tier) << " K=" << K << " machine " << I;
    }
  }
}

TEST(ScoreKernels, FillPatternCountsMatchesRecordLoop) {
  TierGuard Restore;
  std::mt19937 Rng(59);
  for (unsigned MaxBits : {1u, 3u, 6u, 9u}) {
    std::vector<uint8_t> Bits = randomBits(Rng, 900, 2, 3);
    BitstreamBuilder B = buildStream(Bits);

    PatternTable ByRecord(MaxBits);
    for (uint8_t Bit : Bits)
      ByRecord.record(Bit != 0);

    for (SimdTier Tier : availableTiers()) {
      setSimdTierForTest(Tier);
      std::vector<uint64_t> Counts(2ull << MaxBits, 0);
      uint32_t FinalHist = fillPatternCounts(B.view().data(), 0, Bits.size(),
                                             MaxBits, 0, Counts.data());
      PatternTable ByFill(MaxBits);
      ByFill.assignCounts(Counts.data(), FinalHist, Bits.size());

      EXPECT_EQ(ByFill.executions(), ByRecord.executions());
      EXPECT_EQ(ByFill.full().size(), ByRecord.full().size());
      for (const auto &[Pattern, C] : ByRecord.full()) {
        auto It = ByFill.full().find(Pattern);
        ASSERT_NE(It, ByFill.full().end())
            << simdTierName(Tier) << " bits=" << MaxBits;
        EXPECT_EQ(It->second.Taken, C.Taken);
        EXPECT_EQ(It->second.NotTaken, C.NotTaken);
      }
      // Recording one more outcome exercises the fast-forwarded history.
      PatternTable ContinueFill = ByFill, ContinueRecord = ByRecord;
      ContinueFill.record(true);
      ContinueRecord.record(true);
      EXPECT_EQ(ContinueFill.countsFor(1, 1).Taken,
                ContinueRecord.countsFor(1, 1).Taken);
    }
  }
}

TEST(ScoreKernels, FillPatternCountsSplitsAcrossCalls) {
  // Two fills that hand the history across the boundary must equal one
  // fill of the whole stream — the property the per-branch batched fill
  // in BranchProfiles relies on.
  std::mt19937 Rng(61);
  std::vector<uint8_t> Bits = randomBits(Rng, 300);
  BitstreamBuilder B = buildStream(Bits);
  const unsigned MaxBits = 5;

  std::vector<uint64_t> Whole(2ull << MaxBits, 0);
  uint32_t WholeHist =
      fillPatternCounts(B.view().data(), 0, Bits.size(), MaxBits, 0,
                        Whole.data());

  std::vector<uint64_t> Split(2ull << MaxBits, 0);
  uint32_t Mid = 117; // deliberately not word-aligned
  uint32_t H = fillPatternCounts(B.view().data(), 0, Mid, MaxBits, 0,
                                 Split.data());
  uint32_t SplitHist = fillPatternCounts(B.view().data(), Mid,
                                         Bits.size() - Mid, MaxBits, H,
                                         Split.data());
  EXPECT_EQ(SplitHist, WholeHist);
  EXPECT_EQ(Split, Whole);
}

TEST(ScoreKernels, DenseEncodeMatchesVirtualMachine) {
  // A real search product, not a fuzz table: fit an exit chain and check
  // the dense encoding agrees with the virtual walk everywhere.
  std::mt19937 Rng(67);
  PatternTable Table(9);
  for (int I = 0; I < 400; ++I)
    Table.record(I % 7 != 0);
  ExitChainMachine Chain = ExitChainMachine::fit(Table, 5, true, true);

  DenseMachine Dense;
  ASSERT_TRUE(denseEncode(Chain, Dense));
  ASSERT_EQ(Dense.NumStates, Chain.numStates());
  ASSERT_EQ(Dense.Initial, Chain.initialState());
  for (unsigned S = 0; S < Chain.numStates(); ++S) {
    EXPECT_EQ(Dense.predictTaken(S), Chain.predictTaken(S)) << "state " << S;
    for (bool Taken : {false, true})
      EXPECT_EQ(Dense.next(S, Taken), Chain.next(S, Taken)) << "state " << S;
  }

  std::vector<uint8_t> Bits = randomBits(Rng, 500, 6, 7);
  BitstreamBuilder B = buildStream(Bits);
  PredictionStats Sim = Chain.simulate(Bits);
  EXPECT_EQ(scoreMachine(Dense, B.view()),
            Sim.Predictions - Sim.Mispredictions);
}

//===----------------------------------------------------------------------===//
// Event-path consumers against per-event references
//===----------------------------------------------------------------------===//

TEST(ColumnarConsumers, LoopAwareProfilesMatchPerEventReference) {
  for (const char *Name : {"compress", "scheduler", "prolog", "ghostview"}) {
    Module M;
    ColumnarTrace CT = traceWorkloadColumnar(workloadNamed(Name), 1, M, 20000);
    ProgramAnalysis PA(M);
    ProfileSet Reference = referenceLoopAwareProfiles(PA, CT, nullptr);
    EXPECT_TRUE(sameProfiles(buildLoopAwareProfiles(PA, CT), Reference))
        << Name;
    // The reset positions are the point of the builder: some loop branch
    // of every one of these workloads re-enters its loop.
    uint64_t Resets = 0;
    for (uint32_t Id = 0; Id < PA.numBranches(); ++Id)
      Resets += Reference.branch(static_cast<int32_t>(Id))
                    .ResetPositions.size();
    EXPECT_GT(Resets, 0u) << Name;

    sa::BranchProofs Proofs = sa::computeBranchProofs(M);
    EXPECT_TRUE(sameProfiles(buildLoopAwareProfiles(PA, CT, 9, &Proofs),
                             referenceLoopAwareProfiles(PA, CT, &Proofs)))
        << Name << " with proofs";
  }
}

TEST(ColumnarConsumers, ProfileVerifyCountsMatchTheEventStream) {
  Module M;
  ColumnarTrace CT = traceWorkloadColumnar(allWorkloads()[2], 1, M, 20000);
  size_t NumBranches = M.conditionalBranchCount();
  // Two events outside [0, NumBranches) ride along in an unfinalized copy
  // (the lint path decodes straight into one without finalizing).
  std::vector<Event> Events = eventsOf(CT);
  Events.emplace_back(-1, true);
  Events.emplace_back(static_cast<int32_t>(NumBranches), false);

  std::vector<sa::BranchCounts> Expected(NumBranches);
  for (const auto &[Id, Taken] : Events)
    if (Id >= 0 && static_cast<size_t>(Id) < NumBranches)
      ++(Taken ? Expected[static_cast<size_t>(Id)].Taken
               : Expected[static_cast<size_t>(Id)].NotTaken);

  sa::BranchProfileCounts Counts =
      sa::BranchProfileCounts::fromColumnar(NumBranches, makeTrace(Events));
  ASSERT_EQ(Counts.Counts.size(), NumBranches);
  EXPECT_EQ(Counts.OutOfRange, 2u);
  for (size_t I = 0; I < NumBranches; ++I) {
    EXPECT_EQ(Counts.Counts[I].Taken, Expected[I].Taken) << I;
    EXPECT_EQ(Counts.Counts[I].NotTaken, Expected[I].NotTaken) << I;
    EXPECT_EQ(Counts.Counts[I].total(), CT.branch(I).Executions) << I;
  }
}

TEST(ColumnarConsumers, EvaluatorMatchesPerEventReference) {
  Module M;
  ColumnarTrace CT = traceWorkloadColumnar(allWorkloads()[6], 1, M, 20000);
  uint32_t NumBranches = M.conditionalBranchCount();

  // Reference: predict, compare, update, one event at a time.
  LastDirectionPredictor RefPred;
  PredictionStats RefTotal;
  std::vector<PredictionStats> RefPer(NumBranches);
  for (const auto &[Id, Taken] : eventsOf(CT)) {
    bool Correct = RefPred.predict(Id) == Taken;
    RefPred.update(Id, Taken);
    RefTotal.record(Correct);
    RefPer[static_cast<uint32_t>(Id)].record(Correct);
  }

  LastDirectionPredictor Last;
  PredictionStats Total = evaluatePredictor(Last, CT);
  EXPECT_EQ(Total.Predictions, RefTotal.Predictions);
  EXPECT_EQ(Total.Mispredictions, RefTotal.Mispredictions);

  Last.reset();
  std::vector<PredictionStats> Per =
      evaluatePredictorPerBranch(Last, CT, NumBranches);
  Last.reset();
  std::vector<BranchEvalStats> Detailed =
      evaluatePredictorPerBranchDetailed(Last, CT, NumBranches);
  ASSERT_EQ(Per.size(), RefPer.size());
  ASSERT_EQ(Detailed.size(), RefPer.size());
  for (uint32_t I = 0; I < NumBranches; ++I) {
    EXPECT_EQ(Per[I].Predictions, RefPer[I].Predictions) << I;
    EXPECT_EQ(Per[I].Mispredictions, RefPer[I].Mispredictions) << I;
    EXPECT_EQ(Detailed[I].Executions, RefPer[I].Predictions) << I;
    EXPECT_EQ(Detailed[I].Mispredictions, RefPer[I].Mispredictions) << I;
    EXPECT_EQ(Detailed[I].Taken, CT.branch(I).TakenCount) << I;
  }
}

TEST(ColumnarConsumers, WorkloadTraceRoundTripsThroughTheCodec) {
  Module M;
  ColumnarTrace CT = traceWorkloadColumnar(allWorkloads()[0], 1, M, 20000);
  std::vector<uint8_t> Buf = encodeTrace(CT);
  ColumnarTrace Decoded;
  std::string Error;
  ASSERT_TRUE(decodeTraceColumnar(Buf, Decoded, Error)) << Error;
  EXPECT_FALSE(Decoded.indexed());
  EXPECT_EQ(eventsOf(Decoded), eventsOf(CT));
  EXPECT_EQ(encodeTrace(Decoded), Buf);
}

TEST(ColumnarConsumers, DecoderErrorsAreExact) {
  Module M;
  std::vector<uint8_t> Good =
      encodeTrace(traceWorkloadColumnar(allWorkloads()[0], 1, M, 2000));

  auto ErrorOf = [](const std::vector<uint8_t> &Buf) {
    ColumnarTrace Out;
    std::string Error;
    EXPECT_FALSE(decodeTraceColumnar(Buf, Out, Error));
    return Error;
  };
  EXPECT_EQ(ErrorOf({}),
            "trace header truncated: 0 bytes, need at least 5 (magic + "
            "version)");
  EXPECT_EQ(ErrorOf({'B', 'P', 'C', 'T'}),
            "trace header truncated: 4 bytes, need at least 5 (magic + "
            "version)");
  std::vector<uint8_t> Bad = Good;
  Bad[0] = 'X';
  EXPECT_EQ(ErrorOf(Bad), "bad magic: not a BPCT trace file");
  Bad = Good;
  Bad[4] = 9;
  EXPECT_EQ(ErrorOf(Bad), "unsupported trace version 9 (expected 1)");
  Bad = Good;
  Bad.resize(Bad.size() / 2);
  EXPECT_EQ(ErrorOf(Bad).rfind("truncated event group at byte ", 0), 0u);
  EXPECT_NE(ErrorOf(Bad).find(" of 2000 events)"), std::string::npos);
  Bad = Good;
  Bad.push_back(0);
  Bad.push_back(0);
  EXPECT_EQ(ErrorOf(Bad), "2 trailing bytes after the last event");
}
