//===- tests/test_machines.cpp - State machine tests ----------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/MachineSearch.h"
#include "core/Machines.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace bpcr;

namespace {

/// Builds a pattern table by replaying an outcome stream.
PatternTable tableOf(const std::vector<uint8_t> &Outcomes,
                     unsigned Bits = 9) {
  PatternTable T(Bits);
  for (uint8_t O : Outcomes)
    T.record(O != 0);
  return T;
}

std::vector<uint8_t> alternating(size_t N) {
  std::vector<uint8_t> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = I % 2;
  return V;
}

std::vector<uint8_t> periodic(size_t N, std::initializer_list<int> Period) {
  std::vector<int> P(Period);
  std::vector<uint8_t> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = static_cast<uint8_t>(P[I % P.size()]);
  return V;
}

} // namespace

// -- SuffixMachine ------------------------------------------------------------

TEST(SuffixMachine, TwoStateSolvesAlternation) {
  // The paper's figure 1: a 2-state machine predicts an alternating branch
  // perfectly once warmed up.
  PatternTable T = tableOf(alternating(1000));
  MachineOptions Opts;
  Opts.MaxStates = 2;
  SuffixMachine M = buildIntraLoopMachine(T, Opts);
  EXPECT_EQ(M.numStates(), 2u);
  PredictionStats S = M.simulate(alternating(1000));
  EXPECT_LE(S.Mispredictions, 1u);
}

TEST(SuffixMachine, TransitionsFollowLongestSuffix) {
  SuffixSelection Sel;
  Sel.States = {{0}, {1}, {1, 1}};
  Sel.StatePred = {1, 1, 0};
  SuffixMachine M = SuffixMachine::fromSelection(Sel);
  unsigned S0 = M.initialState(); // "0"
  EXPECT_EQ(M.states()[S0], (SymbolString{0}));
  unsigned S1 = M.next(S0, true); // "0"+1 -> "01": longest suffix "1"
  EXPECT_EQ(M.states()[S1], (SymbolString{1}));
  unsigned S11 = M.next(S1, true); // "1"+1 -> "11"
  EXPECT_EQ(M.states()[S11], (SymbolString{1, 1}));
  unsigned S11b = M.next(S11, true); // "11"+1 -> "111": suffix "11"
  EXPECT_EQ(S11b, S11);
  unsigned Back = M.next(S11, false); // "11"+0 -> "110": suffix "0"
  EXPECT_EQ(M.states()[Back], (SymbolString{0}));
}

TEST(SuffixMachine, SimulationMatchesAssignmentScoreWhenClosed) {
  // For suffix-closed machines the assignment score equals simulation up
  // to warmup effects. Check on random-ish periodic streams.
  for (uint64_t Seed : {1u, 2u, 3u, 4u}) {
    Rng G(Seed);
    std::vector<uint8_t> Stream;
    for (int I = 0; I < 4000; ++I)
      Stream.push_back(static_cast<uint8_t>((I % 5 == 0) | (G.below(8) == 0)));
    PatternTable T = tableOf(Stream);
    MachineOptions Opts;
    Opts.MaxStates = 5;
    SuffixMachine M = buildIntraLoopMachine(T, Opts);
    PredictionStats Sim = M.simulate(Stream);
    double AssignRate =
        100.0 * static_cast<double>(M.Total - M.Correct) /
        static_cast<double>(M.Total);
    EXPECT_NEAR(Sim.mispredictionPercent(), AssignRate, 1.0)
        << M.describe();
  }
}

TEST(SuffixMachine, PeriodThreeNeedsMoreStates) {
  std::vector<uint8_t> Stream = periodic(3000, {0, 1, 1});
  PatternTable T = tableOf(Stream);
  MachineOptions Two;
  Two.MaxStates = 2;
  MachineOptions Four;
  Four.MaxStates = 4;
  SuffixMachine M2 = buildIntraLoopMachine(T, Two);
  SuffixMachine M4 = buildIntraLoopMachine(T, Four);
  EXPECT_GT(M4.Correct, M2.Correct);
  PredictionStats S4 = M4.simulate(Stream);
  EXPECT_LE(S4.mispredictionPercent(), 0.5);
}

TEST(SuffixMachine, ReachableStatesFromInitial) {
  SuffixSelection Sel;
  Sel.States = {{0}, {1}, {0, 1}, {1, 1}};
  Sel.StatePred = {0, 1, 1, 0};
  SuffixMachine M = SuffixMachine::fromSelection(Sel);
  std::vector<uint8_t> Reach = BranchLoopMachine(M, 0).reachableStates();
  // From "0": push 1 -> "01"; push 1 -> "11"; push 0 -> "0". The bare "1"
  // is shadowed (every ...1 history matches "01" or "11") and stays
  // unreachable, like the discarded copies in the paper's figure 1.
  unsigned Reachable = 0;
  for (uint8_t R : Reach)
    Reachable += R;
  EXPECT_EQ(Reachable, 3u);
  size_t BareOne = 0;
  for (size_t I = 0; I < M.states().size(); ++I)
    if (M.states()[I] == SymbolString{1})
      BareOne = I;
  EXPECT_FALSE(Reach[BareOne]);
}

TEST(SuffixMachine, DescribeListsStates) {
  SuffixSelection Sel;
  Sel.States = {{0}, {1}};
  Sel.StatePred = {1, 0};
  SuffixMachine M = SuffixMachine::fromSelection(Sel);
  EXPECT_EQ(M.describe(), "suffix{0:T,1:N}");
}

TEST(SuffixMachine, CloneBehavesIdentically) {
  PatternTable T = tableOf(periodic(2000, {0, 1, 1, 1}));
  MachineOptions Opts;
  Opts.MaxStates = 5;
  SuffixMachine M = buildIntraLoopMachine(T, Opts);
  std::unique_ptr<BranchMachine> C = M.clone();
  std::vector<uint8_t> Probe = periodic(100, {0, 1, 1, 1});
  EXPECT_EQ(M.simulate(Probe).Mispredictions,
            C->simulate(Probe).Mispredictions);
}

// -- ExitChainMachine -----------------------------------------------------------

TEST(ExitChain, ConstantTripCountBecomesPerfect) {
  // A loop that always runs 5 iterations: stay,stay,stay,stay,exit.
  // Pattern: 1,1,1,1,0 repeating (taken = stay).
  std::vector<uint8_t> Stream = periodic(5000, {1, 1, 1, 1, 0});
  PatternTable T = tableOf(Stream);
  ExitChainMachine M = buildExitMachine(T, /*MaxStates=*/6,
                                        /*StayOnTaken=*/true);
  PredictionStats S = M.simulate(Stream);
  EXPECT_LE(S.mispredictionPercent(), 0.5);
  EXPECT_LE(M.numStates(), 6u);
}

TEST(ExitChain, TooFewStatesDegradeGracefully) {
  std::vector<uint8_t> Stream = periodic(5000, {1, 1, 1, 1, 1, 1, 1, 0});
  PatternTable T = tableOf(Stream);
  ExitChainMachine Small = buildExitMachine(T, 3, true);
  ExitChainMachine Large = buildExitMachine(T, 9, true);
  EXPECT_GE(Large.Correct, Small.Correct);
  // Profile alone mispredicts 1/8 of executions; the large chain is
  // near-perfect.
  EXPECT_LE(Large.simulate(Stream).mispredictionPercent(), 0.5);
}

TEST(ExitChain, ParityVariantSolvesEvenOddLoops) {
  // Trip count alternates 4, 6, 4, 6 ... : with stay=1, the exit happens
  // after 4 or 6 stays; parity of the long tail decides.
  std::vector<uint8_t> Stream;
  for (int I = 0; I < 600; ++I) {
    int Trip = (I % 2) ? 6 : 4;
    for (int J = 0; J < Trip - 1; ++J)
      Stream.push_back(1);
    Stream.push_back(0);
  }
  PatternTable T = tableOf(Stream);
  ExitChainMachine M = buildExitMachine(T, 8, true);
  PredictionStats S = M.simulate(Stream);
  // Not necessarily perfect (the parity interleave is subtle), but far
  // better than profile (which mispredicts every exit, ~20%).
  EXPECT_LT(S.mispredictionPercent(), 12.0);
}

TEST(ExitChain, PolarityFlipsForTakenExits) {
  // Loop exits on TAKEN: stream 0,0,0,1 repeating (stay = not taken).
  std::vector<uint8_t> Stream = periodic(4000, {0, 0, 0, 1});
  PatternTable T = tableOf(Stream);
  ExitChainMachine M = buildExitMachine(T, 5, /*StayOnTaken=*/false);
  PredictionStats S = M.simulate(Stream);
  EXPECT_LE(S.mispredictionPercent(), 0.5);
}

TEST(ExitChain, TransitionsResetOnExit) {
  PatternTable T = tableOf(periodic(100, {1, 1, 0}));
  ExitChainMachine M = ExitChainMachine::fit(T, 2, false, true);
  unsigned S = M.initialState();
  EXPECT_EQ(S, 0u);
  S = M.next(S, true);
  EXPECT_EQ(S, 1u);
  S = M.next(S, true);
  EXPECT_EQ(S, 2u);
  S = M.next(S, true); // saturates
  EXPECT_EQ(S, 2u);
  S = M.next(S, false); // exit resets
  EXPECT_EQ(S, 0u);
}

TEST(ExitChain, ParityTransitionsAlternateAtTop) {
  PatternTable T = tableOf(periodic(100, {1, 1, 0}));
  ExitChainMachine M = ExitChainMachine::fit(T, 2, true, true);
  EXPECT_EQ(M.numStates(), 4u);
  unsigned S = 0;
  S = M.next(S, true); // 1
  S = M.next(S, true); // 2 (chain top)
  EXPECT_EQ(S, 2u);
  S = M.next(S, true); // 3 (parity partner)
  EXPECT_EQ(S, 3u);
  S = M.next(S, true); // back to 2
  EXPECT_EQ(S, 2u);
  EXPECT_EQ(M.next(S, false), 0u);
}

// -- Full-history reference -------------------------------------------------------

TEST(FullHistory, CorrectGrowsWithBits) {
  Rng G(9);
  std::vector<uint8_t> Stream;
  for (int I = 0; I < 8000; ++I)
    Stream.push_back(static_cast<uint8_t>((I % 6) < 2 || G.below(16) == 0));
  PatternTable T = tableOf(Stream);
  uint64_t Prev = 0;
  for (unsigned Bits = 1; Bits <= 9; ++Bits) {
    uint64_t C = fullHistoryCorrect(T, Bits);
    EXPECT_GE(C, Prev);
    Prev = C;
  }
}

TEST(FullHistory, MachineNeverBeatsFullTable) {
  for (uint64_t Seed : {11u, 12u, 13u}) {
    Rng G(Seed);
    std::vector<uint8_t> Stream;
    for (int I = 0; I < 4000; ++I)
      Stream.push_back(static_cast<uint8_t>(G.below(3) != 0));
    PatternTable T = tableOf(Stream);
    MachineOptions Opts;
    Opts.MaxStates = 6;
    SuffixMachine M = buildIntraLoopMachine(T, Opts);
    EXPECT_LE(M.Correct, fullHistoryCorrect(T, 9));
  }
}

// -- Property sweeps -------------------------------------------------------------

/// For suffix-closed machines of any size on any stream, construction-time
/// assignment must equal simulation (the invariant the optimizer relies
/// on). Swept over random stream shapes and machine sizes.
class MachineInvariant
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>> {};

TEST_P(MachineInvariant, AssignmentEqualsSimulationUpToWarmup) {
  auto [Seed, MaxStates] = GetParam();
  Rng G(Seed * 131 + 7);
  std::vector<uint8_t> Stream;
  // A blend of periodic and random sections.
  unsigned Period = 2 + static_cast<unsigned>(G.below(6));
  for (int I = 0; I < 3000; ++I) {
    bool Periodic = (static_cast<unsigned>(I) % Period) == 0;
    bool Noise = G.below(10) == 0;
    Stream.push_back(static_cast<uint8_t>(Periodic ^ Noise));
  }
  PatternTable T = tableOf(Stream);
  MachineOptions MO;
  MO.MaxStates = MaxStates;
  MO.NodeBudget = 50'000;
  SuffixMachine M = buildIntraLoopMachine(T, MO);
  PredictionStats Sim = M.simulate(Stream);
  // With substring closure the assignment score IS the simulation, cold
  // start included: both track the longest state-substring of the
  // (zero-initialized) history.
  EXPECT_EQ(Sim.Mispredictions, M.Total - M.Correct) << M.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachineInvariant,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Values(2u, 3u, 5u, 8u)));

/// Exit machines: the fitted score must equal simulation for every chain
/// length and polarity on trip-count streams.
class ExitInvariant
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(ExitInvariant, FitEqualsSimulation) {
  auto [Chain, Parity] = GetParam();
  Rng G(Chain * 17 + Parity);
  std::vector<uint8_t> Stream;
  for (int I = 0; I < 800; ++I) {
    unsigned Trip = 2 + static_cast<unsigned>(G.below(5));
    for (unsigned J = 0; J + 1 < Trip; ++J)
      Stream.push_back(1);
    Stream.push_back(0);
  }
  PatternTable T = tableOf(Stream);
  ExitChainMachine M = ExitChainMachine::fit(T, Chain, Parity, true);
  PredictionStats Sim = M.simulate(Stream);
  uint64_t AssignMiss = M.Total - M.Correct;
  uint64_t Delta = Sim.Mispredictions > AssignMiss
                       ? Sim.Mispredictions - AssignMiss
                       : AssignMiss - Sim.Mispredictions;
  // Trailing-count assignment is censored at the 9-bit table width; long
  // trips can differ there, plus warmup.
  EXPECT_LE(Delta, 20u) << M.describe();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExitInvariant,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u,
                                                              5u, 7u),
                                            ::testing::Bool()));
