//===- tests/test_predict.cpp - Predictor zoo tests -----------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "predict/DynamicPredictors.h"
#include "predict/Evaluator.h"
#include "predict/SemiStaticPredictors.h"
#include "predict/StaticHeuristics.h"

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

/// One branch alternating T,N,T,N...
ColumnarTrace alternating(int32_t Id, size_t N) {
  ColumnarTrace T;
  for (size_t I = 0; I < N; ++I)
    T.append(Id, I % 2 == 0);
  return T;
}

/// One branch with a fixed direction.
ColumnarTrace constant(int32_t Id, size_t N, bool Taken) {
  ColumnarTrace T;
  T.appendRun(Id, Taken, N);
  return T;
}

/// Branch 1 copies the previous outcome of branch 0; branch 0 is random.
ColumnarTrace correlatedPair(size_t N, uint64_t Seed) {
  Rng G(Seed);
  ColumnarTrace T;
  for (size_t I = 0; I < N; ++I) {
    bool A = G.chance(1, 2);
    T.append(0, A);
    T.append(1, A);
  }
  return T;
}

} // namespace

// -- Dynamic predictors ----------------------------------------------------------

TEST(LastDirection, PerfectOnConstantBranch) {
  LastDirectionPredictor P;
  PredictionStats S = evaluatePredictor(P, constant(3, 1000, true));
  EXPECT_EQ(S.Mispredictions, 0u);
}

TEST(LastDirection, WorstCaseOnAlternating) {
  LastDirectionPredictor P;
  PredictionStats S = evaluatePredictor(P, alternating(0, 1000));
  // After the first outcome it is always wrong.
  EXPECT_GE(S.Mispredictions, 999u);
}

TEST(Counter, TwoBitAbsorbsRareFlips) {
  CounterPredictor P(2);
  ColumnarTrace T;
  for (int I = 0; I < 1000; ++I)
    T.append(0, I % 10 != 9); // one not-taken in ten
  PredictionStats S = evaluatePredictor(P, T);
  // The 2-bit counter never flips its prediction on isolated outliers.
  EXPECT_LE(S.mispredictionPercent(), 11.0);
  LastDirectionPredictor L;
  PredictionStats SL = evaluatePredictor(L, T);
  EXPECT_LT(S.Mispredictions, SL.Mispredictions);
}

TEST(Counter, IndependentPerBranch) {
  CounterPredictor P(2);
  ColumnarTrace T;
  for (int I = 0; I < 100; ++I) {
    T.append(0, true);
    T.append(1, false);
  }
  PredictionStats S = evaluatePredictor(P, T);
  // Both branches converge to their direction after warmup.
  EXPECT_LE(S.Mispredictions, 4u);
}

TEST(TwoLevel, LearnsAlternation) {
  TwoLevelPredictor P; // paper default: per-branch history, global table
  PredictionStats S = evaluatePredictor(P, alternating(5, 2000));
  EXPECT_LT(S.mispredictionPercent(), 2.0);
}

TEST(TwoLevel, LearnsPeriodicPattern) {
  TwoLevelPredictor P;
  ColumnarTrace T;
  for (int I = 0; I < 3000; ++I)
    T.append(0, (I % 3) != 0); // N,T,T repeating
  PredictionStats S = evaluatePredictor(P, T);
  EXPECT_LT(S.mispredictionPercent(), 2.0);
}

TEST(TwoLevel, GlobalHistoryCapturesCorrelation) {
  TwoLevelConfig Cfg;
  Cfg.HistoryScope = Scope::Global;
  Cfg.PatternScope = Scope::PerBranch;
  Cfg.HistoryBits = 4;
  TwoLevelPredictor P(Cfg);
  PredictionStats S = evaluatePredictor(P, correlatedPair(4000, 3));
  // Branch 1 is perfectly determined by the global history; branch 0 is a
  // coin flip, so the overall rate approaches 25%.
  EXPECT_LT(S.mispredictionPercent(), 30.0);
  EXPECT_GT(S.mispredictionPercent(), 20.0);
}

TEST(TwoLevel, NamesEncodeConfiguration) {
  TwoLevelConfig Cfg;
  Cfg.HistoryScope = Scope::Global;
  Cfg.PatternScope = Scope::Set;
  TwoLevelPredictor P(Cfg);
  EXPECT_EQ(P.name(), "two level GAs h9");
}

// All nine Yeh/Patt combinations behave sanely on a mixed trace.
class TwoLevelScopes
    : public ::testing::TestWithParam<std::tuple<Scope, Scope>> {};

TEST_P(TwoLevelScopes, ReasonableOnMixedTrace) {
  auto [HS, PS] = GetParam();
  TwoLevelConfig Cfg;
  Cfg.HistoryScope = HS;
  Cfg.PatternScope = PS;
  Cfg.HistoryBits = 6;
  TwoLevelPredictor P(Cfg);
  Rng G(7);
  ColumnarTrace T;
  for (int I = 0; I < 5000; ++I) {
    T.append(0, I % 2 == 0);                      // alternating
    T.append(1, true);                            // constant
    T.append(2, G.chance(9, 10));                 // biased
  }
  PredictionStats S = evaluatePredictor(P, T);
  // Alternating + constant are learnable; biased gives ~10% on a third of
  // the trace. Anything above 15% overall means the predictor is broken.
  EXPECT_LT(S.mispredictionPercent(), 15.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllScopes, TwoLevelScopes,
    ::testing::Combine(::testing::Values(Scope::Global, Scope::Set,
                                         Scope::PerBranch),
                       ::testing::Values(Scope::Global, Scope::Set,
                                         Scope::PerBranch)));

// -- Semi-static predictors --------------------------------------------------------

TEST(Profile, PredictsMajorityDirection) {
  ProfilePredictor P;
  ColumnarTrace T;
  for (int I = 0; I < 100; ++I)
    T.append(0, I < 70);
  PredictionStats S = evaluateSelfTrained(P, T);
  EXPECT_EQ(S.Mispredictions, 30u);
}

TEST(Profile, AlternatingIsitsWorstCase) {
  ProfilePredictor P;
  PredictionStats S = evaluateSelfTrained(P, alternating(0, 1000));
  EXPECT_EQ(S.Mispredictions, 500u);
}

TEST(LoopHistory, SolvesAlternation) {
  LoopHistoryPredictor P(1);
  PredictionStats S = evaluateSelfTrained(P, alternating(0, 1000));
  // One bit of local history fully determines the next outcome.
  EXPECT_LE(S.mispredictionPercent(), 1.0);
}

TEST(LoopHistory, NineBitSolvesLongPeriods) {
  LoopHistoryPredictor P(9);
  ColumnarTrace T;
  for (int I = 0; I < 5000; ++I)
    T.append(0, (I % 7) != 0);
  PredictionStats S = evaluateSelfTrained(P, T);
  EXPECT_LE(S.mispredictionPercent(), 1.0);
}

TEST(Correlation, OneBitGlobalSolvesCopyBranch) {
  CorrelationPredictor P(1);
  PredictionStats S = evaluateSelfTrained(P, correlatedPair(4000, 11));
  // Branch 1 is perfectly predicted from branch 0's outcome; branch 0 is a
  // coin flip -> overall ~25%.
  EXPECT_LT(S.mispredictionPercent(), 27.0);
}

TEST(Correlation, ProfileCannotSolveCopyBranch) {
  ProfilePredictor P;
  PredictionStats S = evaluateSelfTrained(P, correlatedPair(4000, 11));
  EXPECT_GT(S.mispredictionPercent(), 45.0);
}

TEST(LoopCorrelation, PicksTheBetterSchemePerBranch) {
  LoopCorrelationPredictor P;
  // Branch 0 random, branch 1 copies it (correlation wins); branch 2
  // alternates (loop history wins).
  Rng G(5);
  ColumnarTrace T;
  for (int I = 0; I < 3000; ++I) {
    bool A = G.chance(1, 2);
    T.append(0, A);
    T.append(1, A);
    T.append(2, I % 2 == 0);
  }
  PredictionStats S = evaluateSelfTrained(P, T);
  EXPECT_FALSE(P.usesLoopScheme(1));
  EXPECT_TRUE(P.usesLoopScheme(2));
  // Only branch 0 remains unpredictable: ~1/6 of events.
  EXPECT_LT(S.mispredictionPercent(), 20.0);
}

TEST(LoopCorrelation, CountsImprovedBranches) {
  LoopCorrelationPredictor P;
  ColumnarTrace T = alternating(0, 500);
  T.appendRun(1, true, 500);
  P.train(T);
  // The alternating branch improves over profile; the constant one cannot.
  EXPECT_EQ(P.improvedBranchCount(), 1u);
}

// -- Train/test split (dataset sensitivity) -----------------------------------------

TEST(Evaluator, CrossDatasetDegradesGracefully) {
  // Bias direction agrees across datasets; rates may differ.
  Rng G1(1), G2(2);
  ColumnarTrace Train, Test;
  for (int I = 0; I < 2000; ++I) {
    Train.append(0, G1.chance(8, 10));
    Test.append(0, G2.chance(7, 10));
  }
  ProfilePredictor P;
  PredictionStats S = evaluateTrained(P, Train, Test);
  // Majority direction transfers: misprediction ~30%, not ~70%.
  EXPECT_LT(S.mispredictionPercent(), 40.0);
}

TEST(Evaluator, PerBranchSplitsAgreeWithTotal) {
  LastDirectionPredictor P;
  ColumnarTrace T = correlatedPair(500, 9);
  PredictionStats Total = evaluatePredictor(P, T);
  P.reset();
  auto Per = evaluatePredictorPerBranch(P, T, 2);
  EXPECT_EQ(Per[0].Predictions + Per[1].Predictions, Total.Predictions);
  EXPECT_EQ(Per[0].Mispredictions + Per[1].Mispredictions,
            Total.Mispredictions);
}

// -- Static heuristics ---------------------------------------------------------------

namespace {

Operand Rg(Reg X) { return Operand::reg(X); }
Operand Km(int64_t V) { return Operand::imm(V); }

/// A loop whose header branch exits on not-taken, plus a guard branch whose
/// true side stores.
Module heuristicModule() {
  Module M;
  M.MemWords = 8;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg I = B.newReg(), C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t Header = B.newBlock("header");
  uint32_t Body = B.newBlock("body");
  uint32_t StoreSide = B.newBlock("store_side");
  uint32_t Quiet = B.newBlock("quiet");
  uint32_t Latch = B.newBlock("latch");
  uint32_t Exit = B.newBlock("exit");
  B.setInsertPoint(Entry);
  B.movImm(I, 0);
  B.jmp(Header);
  B.setInsertPoint(Header);
  B.cmpLt(C, Rg(I), Km(100));
  B.br(Rg(C), Body, Exit);
  B.setInsertPoint(Body);
  B.band(C, Rg(I), Km(7));
  B.cmpEq(C, Rg(C), Km(0));
  B.br(Rg(C), StoreSide, Quiet);
  B.setInsertPoint(StoreSide);
  B.store(Km(0), Km(0), Rg(I));
  B.jmp(Latch);
  B.setInsertPoint(Quiet);
  B.jmp(Latch);
  B.setInsertPoint(Latch);
  B.add(I, Rg(I), Km(1));
  B.jmp(Header);
  B.setInsertPoint(Exit);
  B.ret(Rg(I));
  M.assignBranchIds();
  return M;
}

} // namespace

TEST(StaticHeuristics, AlwaysTakenPredictsEverythingTaken) {
  Module M = heuristicModule();
  StaticPredictions P = predictAlwaysTaken(M);
  for (Prediction Pr : P)
    EXPECT_EQ(Pr, Prediction::Taken);
}

TEST(StaticHeuristics, BackwardTakenSeparatesDirections) {
  Module M = heuristicModule();
  StaticPredictions P = predictBackwardTaken(M);
  // Branch 0 (header -> body/exit): body is a later block -> forward ->
  // not taken under BTFN.
  EXPECT_EQ(P[0], Prediction::NotTaken);
}

TEST(StaticHeuristics, BallLarusLoopHeuristicKeepsLoop) {
  Module M = heuristicModule();
  StaticPredictions P = predictBallLarus(M);
  // The header branch stays in the loop on taken.
  EXPECT_EQ(P[0], Prediction::Taken);
  // The guard compares == 0 -> opcode heuristic says not taken; the store
  // heuristic agrees (true side stores).
  EXPECT_EQ(P[1], Prediction::NotTaken);
}

TEST(StaticHeuristics, EvaluationAgainstRealExecution) {
  Module M = heuristicModule();
  ColumnarTrace T;
  ASSERT_TRUE(executeColumnar(M, T).Ok);
  PredictionStats BL =
      evaluateStaticPredictions(predictBallLarus(M), T);
  PredictionStats AT =
      evaluateStaticPredictions(predictAlwaysTaken(M), T);
  // Ball-Larus must beat blind always-taken on this loop.
  EXPECT_LT(BL.Mispredictions, AT.Mispredictions);
}

TEST(StaticHeuristics, PointerHeuristicUsesPtrCmpFlag) {
  Module M;
  M.MemWords = 1;
  uint32_t Main = M.addFunction("main", 0);
  IRBuilder B(M, Main);
  Reg C = B.newReg();
  uint32_t Entry = B.newBlock("entry");
  uint32_t A = B.newBlock("a");
  uint32_t Bb = B.newBlock("b");
  B.setInsertPoint(Entry);
  B.cmp(Opcode::CmpEq, C, Km(1), Km(2), /*PtrCmp=*/true);
  B.br(Rg(C), A, Bb);
  B.setInsertPoint(A);
  B.ret(Km(0));
  B.setInsertPoint(Bb);
  B.ret(Km(1));
  M.assignBranchIds();
  StaticPredictions P = predictBallLarus(M);
  EXPECT_EQ(P[0], Prediction::NotTaken); // pointer equality: predict false
}
