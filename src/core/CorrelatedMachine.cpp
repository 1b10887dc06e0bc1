//===- core/CorrelatedMachine.cpp -----------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/CorrelatedMachine.h"

#include "obs/TraceSpans.h"
#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace bpcr;

namespace {

/// Packs a decision step into one selection symbol.
uint32_t encodeStep(const PathStep &S) {
  return (static_cast<uint32_t>(S.BranchId) << 1) | (S.Taken ? 1U : 0U);
}

PathStep decodeStep(uint32_t Sym) {
  return {static_cast<int32_t>(Sym >> 1), (Sym & 1U) != 0};
}

BranchPath decodePath(const SymbolString &S) {
  BranchPath P;
  P.Steps.reserve(S.size());
  for (uint32_t Sym : S)
    P.Steps.push_back(decodeStep(Sym));
  return P;
}

} // namespace

SymbolString bpcr::encodePathSteps(const BranchPath &P) {
  SymbolString S;
  S.reserve(P.Steps.size());
  for (const PathStep &Step : P.Steps)
    S.push_back(encodeStep(Step));
  return S;
}

int CorrelatedMachine::match(const std::vector<PathStep> &Recent) const {
  // Paths are sorted by (length, content); probe longest first.
  for (size_t L = std::min<size_t>(Recent.size(), MaxPathLen); L >= 1; --L) {
    BranchPath Probe;
    Probe.Steps.assign(Recent.end() - static_cast<long>(L), Recent.end());
    SymbolString Key = encodePathSteps(Probe);
    for (size_t I = Paths.size(); I-- > 0;) {
      if (Paths[I].Steps.size() != L)
        continue;
      if (encodePathSteps(Paths[I]) == Key)
        return static_cast<int>(I);
    }
    if (L == 1)
      break;
  }
  return -1;
}

std::vector<PathProfile> bpcr::profilePaths(
    const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
    const ColumnarTrace &CT, unsigned MaxPathLen) {
  Span S("profiles.paths", "kernel");
  S.arg("events", static_cast<uint64_t>(CT.size()));
  size_t NumBranches = CandidatesByBranch.size();
  std::vector<PathProfile> Out(NumBranches);

  // Candidate lookup per branch; remember the longest candidate to bound
  // the suffix probing.
  std::vector<std::map<SymbolString, size_t>> Lookup(NumBranches);
  std::vector<size_t> Longest(NumBranches, 0);
  std::vector<std::map<SymbolString, DirCounts>> Accum(NumBranches);
  for (size_t B = 0; B < NumBranches; ++B)
    for (const BranchPath &P : CandidatesByBranch[B]) {
      if (P.Steps.empty() || P.Steps.size() > MaxPathLen)
        continue;
      Lookup[B].emplace(encodePathSteps(P), 0);
      Longest[B] = std::max(Longest[B], P.Steps.size());
    }

  // One global-order pass over the id column and the packed direction
  // words; the window holds the last MaxPathLen encoded events. Both the
  // window and the probe key are reused across the whole trace — this loop
  // runs once per branch event and must not allocate per event.
  const int32_t *Ids = CT.ids().data();
  const BitstreamView Dirs = CT.directions();
  SymbolString Window;
  Window.reserve(MaxPathLen + 1);
  SymbolString Key;
  Key.reserve(MaxPathLen);
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const PathStep E{Ids[I], Dirs.bit(I)};
    size_t B = static_cast<size_t>(E.BranchId);
    if (B < NumBranches && !Lookup[B].empty()) {
      bool Matched = false;
      for (size_t L = std::min(Window.size(), Longest[B]); L >= 1; --L) {
        Key.assign(Window.end() - static_cast<long>(L), Window.end());
        if (Lookup[B].count(Key)) {
          Accum[B][Key].record(E.Taken);
          Matched = true;
          break;
        }
        if (L == 1)
          break;
      }
      if (!Matched)
        Out[B].Unmatched.record(E.Taken);
    } else if (B < NumBranches) {
      Out[B].Unmatched.record(E.Taken);
    }
    if (Window.size() == MaxPathLen)
      Window.erase(Window.begin());
    Window.push_back(encodeStep(E));
  }

  for (size_t B = 0; B < NumBranches; ++B) {
    Out[B].PerPath.reserve(Accum[B].size());
    for (auto &[Path, Counts] : Accum[B])
      Out[B].PerPath.emplace_back(Path, Counts);
  }
  return Out;
}

CorrelatedMachine
bpcr::buildCorrelatedMachineFromProfile(int32_t BranchId,
                                        const PathProfile &Profile,
                                        const CorrelatedOptions &Opts) {
  CorrelatedMachine M;
  M.BranchId = BranchId;
  M.MaxPathLen = Opts.MaxPathLen;

  std::vector<ObservedPattern> Patterns;
  for (const auto &[Key, Counts] : Profile.PerPath)
    Patterns.push_back({Key, Counts});
  if (Profile.Unmatched.total() > 0)
    Patterns.push_back({SymbolString(), Profile.Unmatched});

  SelectOptions Sel;
  assert(Opts.MaxStates >= 2 && "need room for a path plus the catch-all");
  Sel.MaxSelected = Opts.MaxStates - 1; // the catch-all takes one state
  Sel.MinLen = 1;
  Sel.MaxLen = Opts.MaxPathLen;
  Sel.Exhaustive = Opts.Exhaustive;
  Sel.NodeBudget = Opts.NodeBudget;

  SuffixSelection Selected = selectSuffixStates(Patterns, {}, Sel);

  for (size_t I = 0; I < Selected.States.size(); ++I) {
    M.Paths.push_back(decodePath(Selected.States[I]));
    M.PathPred.push_back(Selected.StatePred[I]);
  }
  M.DefaultPred = Selected.DefaultPred;
  M.Correct = Selected.Correct;
  M.Total = Selected.Total;
  return M;
}

PredictionStats bpcr::evaluateCorrelatedMachine(const CorrelatedMachine &M,
                                                const ColumnarTrace &CT) {
  PredictionStats Stats;
  std::vector<PathStep> Recent;
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const PathStep E{CT.branchId(I), CT.taken(I)};
    if (E.BranchId == M.BranchId)
      Stats.record(M.predictFor(Recent) == E.Taken);
    Recent.push_back(E);
    if (Recent.size() > M.MaxPathLen)
      Recent.erase(Recent.begin());
  }
  return Stats;
}
