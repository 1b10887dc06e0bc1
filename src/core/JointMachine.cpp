//===- core/JointMachine.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/JointMachine.h"

#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

using namespace bpcr;

namespace {

bool stringLess(const SymbolString &A, const SymbolString &B) {
  if (A.size() != B.size())
    return A.size() < B.size();
  return A < B;
}

SymbolString suffixOf(const SymbolString &S, size_t Len) {
  return SymbolString(S.end() - static_cast<long>(Len), S.end());
}

uint32_t symbolOf(int MemberIdx, bool Taken) {
  return (static_cast<uint32_t>(MemberIdx) << 1) | (Taken ? 1U : 0U);
}

/// Shared loop of the members; false when they do not share one.
bool sharedLoop(const ProgramAnalysis &PA, const std::vector<int32_t> &Members,
                uint32_t &FuncIdx, const Loop *&L) {
  if (Members.empty())
    return false;
  const BranchClass &C0 = PA.classOf(Members[0]);
  if (C0.Kind == BranchKind::NonLoop)
    return false;
  FuncIdx = PA.ref(Members[0]).FuncIdx;
  L = &PA.loopInfoFor(Members[0]).loops()[static_cast<size_t>(C0.LoopIdx)];
  for (int32_t M : Members) {
    const BranchClass &C = PA.classOf(M);
    if (PA.ref(M).FuncIdx != FuncIdx || C.Kind == BranchKind::NonLoop ||
        C.LoopIdx != C0.LoopIdx)
      return false;
  }
  return true;
}

/// Branch-and-bound selection with per-(state, member) scoring. A reduced
/// copy of SuffixSelect's engine: the generic one accumulates one counts
/// channel per state, the joint machine needs one per member.
class JointSearch {
public:
  JointSearch(const JointProfile &Profile, size_t NumMembers,
              const JointOptions &Opts)
      : NumMembers(NumMembers), Opts(Opts) {
    // Intern the empty state (id 0) and all candidate suffixes.
    intern(SymbolString());
    for (const auto &[Syms, Counts] : Profile.PerPattern) {
      Patterns.push_back({Syms, Counts});
      size_t MaxL = std::min<size_t>(Syms.size(), Opts.MaxLen);
      for (size_t L = 1; L <= MaxL; ++L)
        intern(suffixOf(Syms, L));
      // Substring closure candidates: every contiguous substring, so long
      // states stay reachable through their prefixes (see
      // SelectOptions::SubstringClosure for the argument).
      for (size_t Start = 0; Start < Syms.size(); ++Start)
        for (size_t L = 1;
             L <= Opts.MaxLen && Start + L <= Syms.size(); ++L)
          intern(SymbolString(Syms.begin() + static_cast<long>(Start),
                              Syms.begin() + static_cast<long>(Start + L)));
    }

    Parent.assign(Strings.size(), 0);
    InitParent.assign(Strings.size(), 0);
    for (size_t Id = 1; Id < Strings.size(); ++Id) {
      const SymbolString &S = Strings[Id];
      if (S.size() <= 1)
        continue; // both parents are the empty state
      auto It = Ids.find(suffixOf(S, S.size() - 1));
      Parent[Id] = It == Ids.end() ? 0 : It->second;
      auto It2 = Ids.find(SymbolString(S.begin(), S.end() - 1));
      InitParent[Id] = It2 == Ids.end() ? 0 : It2->second;
    }

    PatternSuffixes.resize(Patterns.size());
    for (size_t PI = 0; PI < Patterns.size(); ++PI) {
      const SymbolString &S = Patterns[PI].Syms;
      size_t MaxL = std::min<size_t>(S.size(), Opts.MaxLen);
      for (size_t L = MaxL; L >= 1; --L) {
        auto It = Ids.find(suffixOf(S, L));
        if (It != Ids.end())
          PatternSuffixes[PI].push_back(It->second);
        if (L == 1)
          break;
      }
      PatternSuffixes[PI].push_back(0); // the empty state matches always
    }

    for (size_t Id = 1; Id < Strings.size(); ++Id)
      Candidates.push_back(static_cast<int>(Id));
    std::sort(Candidates.begin(), Candidates.end(), [this](int A, int B) {
      return stringLess(Strings[static_cast<size_t>(A)],
                        Strings[static_cast<size_t>(B)]);
    });

    InSet.assign(Strings.size(), 0);
    InSet[0] = 1; // the empty state is always selected
    Acc.assign(Strings.size() * NumMembers, DirCounts());
    Stamp.assign(Strings.size(), 0);
  }

  std::vector<SymbolString> run() {
    greedy();
    if (Opts.Exhaustive) {
      for (int C : Candidates)
        InSet[static_cast<size_t>(C)] = 0;
      SelectedCount = 0;
      dfs(0);
    }
    std::vector<SymbolString> Out;
    for (size_t Id : BestIds)
      Out.push_back(Strings[Id]);
    std::sort(Out.begin(), Out.end(), stringLess);
    return Out;
  }

private:
  struct Pattern {
    SymbolString Syms;
    std::vector<DirCounts> PerMember;
  };

  int intern(const SymbolString &S) {
    auto [It, Inserted] = Ids.emplace(S, static_cast<int>(Strings.size()));
    if (Inserted)
      Strings.push_back(S);
    return It->second;
  }

  uint64_t score() {
    ++Epoch;
    Touched.clear();
    for (size_t PI = 0; PI < Patterns.size(); ++PI) {
      int Assigned = 0;
      for (int Id : PatternSuffixes[PI])
        if (InSet[static_cast<size_t>(Id)]) {
          Assigned = Id;
          break;
        }
      size_t Base = static_cast<size_t>(Assigned) * NumMembers;
      if (Stamp[static_cast<size_t>(Assigned)] != Epoch) {
        Stamp[static_cast<size_t>(Assigned)] = Epoch;
        for (size_t J = 0; J < NumMembers; ++J)
          Acc[Base + J] = DirCounts();
        Touched.push_back(static_cast<size_t>(Assigned));
      }
      const Pattern &P = Patterns[PI];
      for (size_t J = 0; J < NumMembers; ++J) {
        Acc[Base + J].Taken += P.PerMember[J].Taken;
        Acc[Base + J].NotTaken += P.PerMember[J].NotTaken;
      }
    }
    uint64_t S = 0;
    for (size_t Id : Touched) {
      size_t Base = Id * NumMembers;
      for (size_t J = 0; J < NumMembers; ++J)
        S += std::max(Acc[Base + J].Taken, Acc[Base + J].NotTaken);
    }
    return S;
  }

  uint64_t scoreWithRest(size_t From) {
    std::vector<size_t> Flipped;
    for (size_t I = From; I < Candidates.size(); ++I) {
      size_t Id = static_cast<size_t>(Candidates[I]);
      if (!InSet[Id]) {
        InSet[Id] = 1;
        Flipped.push_back(Id);
      }
    }
    uint64_t S = score();
    for (size_t Id : Flipped)
      InSet[Id] = 0;
    return S;
  }

  bool isLegal(int CandId) const {
    return InSet[static_cast<size_t>(Parent[static_cast<size_t>(CandId)])] &&
           InSet[static_cast<size_t>(
               InitParent[static_cast<size_t>(CandId)])];
  }

  unsigned budgetLeft() const {
    // State 0 (empty) counts against the budget too.
    size_t Used = SelectedCount + 1;
    return Opts.MaxStates > Used
               ? static_cast<unsigned>(Opts.MaxStates - Used)
               : 0;
  }

  void consider() {
    uint64_t S = score();
    if (S > BestScore || BestIds.empty()) {
      BestScore = S;
      BestIds.clear();
      for (size_t Id = 0; Id < Strings.size(); ++Id)
        if (InSet[Id])
          BestIds.push_back(Id);
    }
  }

  void dfs(size_t Idx) {
    if (BudgetExhausted)
      return;
    if (++Nodes > Opts.NodeBudget) {
      BudgetExhausted = true;
      return;
    }
    consider();
    if (Idx >= Candidates.size() || budgetLeft() == 0)
      return;
    if (scoreWithRest(Idx) <= BestScore)
      return;

    int Id = Candidates[Idx];
    if (isLegal(Id)) {
      InSet[static_cast<size_t>(Id)] = 1;
      ++SelectedCount;
      dfs(Idx + 1);
      InSet[static_cast<size_t>(Id)] = 0;
      --SelectedCount;
      if (BudgetExhausted)
        return;
    }
    dfs(Idx + 1);
  }

  void greedy() {
    consider();
    while (budgetLeft() > 0) {
      uint64_t Base = score();
      uint64_t BestGain = 0;
      int BestCand = -1;
      for (int C : Candidates) {
        size_t Id = static_cast<size_t>(C);
        if (InSet[Id] || !isLegal(C))
          continue;
        InSet[Id] = 1;
        uint64_t S = score();
        InSet[Id] = 0;
        if (S > Base && S - Base > BestGain) {
          BestGain = S - Base;
          BestCand = C;
        }
      }
      if (BestCand < 0)
        break;
      InSet[static_cast<size_t>(BestCand)] = 1;
      ++SelectedCount;
      consider();
    }
    for (int C : Candidates)
      InSet[static_cast<size_t>(C)] = 0;
    SelectedCount = 0;
  }

  size_t NumMembers;
  const JointOptions &Opts;

  std::map<SymbolString, int> Ids;
  std::vector<SymbolString> Strings;
  std::vector<int> Parent;
  std::vector<int> InitParent;
  std::vector<Pattern> Patterns;
  std::vector<std::vector<int>> PatternSuffixes;
  std::vector<int> Candidates;

  std::vector<uint8_t> InSet;
  size_t SelectedCount = 0;

  std::vector<DirCounts> Acc;
  std::vector<uint32_t> Stamp;
  std::vector<size_t> Touched;
  uint32_t Epoch = 0;

  uint64_t BestScore = 0;
  std::vector<size_t> BestIds;
  uint64_t Nodes = 0;
  bool BudgetExhausted = false;
};

} // namespace

int JointLoopMachine::memberIndex(int32_t OrigId) const {
  auto It = std::lower_bound(Members.begin(), Members.end(), OrigId);
  if (It == Members.end() || *It != OrigId)
    return -1;
  return static_cast<int>(It - Members.begin());
}

unsigned JointLoopMachine::next(unsigned State, int MemberIdx,
                                bool Taken) const {
  size_t MaxLen = States.back().size();
  SymbolString S = States[State];
  S.push_back(symbolOf(MemberIdx, Taken));
  if (S.size() > MaxLen)
    S.erase(S.begin(), S.end() - static_cast<long>(MaxLen));
  for (size_t L = S.size(); L >= 1; --L) {
    SymbolString Probe = suffixOf(S, L);
    auto It =
        std::lower_bound(States.begin(), States.end(), Probe, stringLess);
    if (It != States.end() && *It == Probe)
      return static_cast<unsigned>(It - States.begin());
    if (L == 1)
      break;
  }
  return 0; // the empty state
}

std::string JointLoopMachine::describe() const {
  std::string Out = "joint{members=" + std::to_string(Members.size());
  Out += ",states=";
  for (size_t I = 0; I < States.size(); ++I) {
    if (I)
      Out += '|';
    if (States[I].empty())
      Out += "eps";
    for (uint32_t Sym : States[I]) {
      Out += std::to_string(Sym >> 1);
      Out += (Sym & 1) ? 'T' : 'N';
    }
  }
  Out += '}';
  return Out;
}

JointProfile bpcr::profileJointLoop(const ProgramAnalysis &PA,
                                    const std::vector<int32_t> &Members,
                                    const ColumnarTrace &CT,
                                    unsigned MaxLen) {
  JointProfile Out;
  uint32_t FuncIdx = 0;
  const Loop *L = nullptr;
  if (!sharedLoop(PA, Members, FuncIdx, L))
    return Out;

  std::vector<int32_t> Sorted = Members;
  std::sort(Sorted.begin(), Sorted.end());
  auto MemberIdxOf = [&Sorted](int32_t Id) -> int {
    auto It = std::lower_bound(Sorted.begin(), Sorted.end(), Id);
    return (It != Sorted.end() && *It == Id)
               ? static_cast<int>(It - Sorted.begin())
               : -1;
  };

  // One global-order pass over the id column and the packed directions.
  const int32_t *Ids = CT.ids().data();
  const BitstreamView Dirs = CT.directions();
  SymbolString History;
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const int32_t Id = Ids[I];
    const BranchRef &R = PA.ref(Id);
    bool Inside = R.FuncIdx == FuncIdx && L->contains(R.BlockIdx);
    if (!Inside) {
      History.clear();
      continue;
    }
    int MI = MemberIdxOf(Id);
    if (MI < 0)
      continue; // in-loop non-member: no transition, no reset
    const bool Taken = Dirs.bit(I);
    auto &PerMember = Out.PerPattern[History];
    if (PerMember.empty())
      PerMember.resize(Sorted.size());
    PerMember[static_cast<size_t>(MI)].record(Taken);
    ++Out.Executions;
    History.push_back(symbolOf(MI, Taken));
    if (History.size() > MaxLen)
      History.erase(History.begin());
  }
  return Out;
}

JointLoopMachine
bpcr::buildJointLoopMachine(const std::vector<int32_t> &Members,
                            const JointProfile &Profile,
                            const JointOptions &Opts) {
  JointLoopMachine M;
  M.Members = Members;
  std::sort(M.Members.begin(), M.Members.end());

  JointSearch Search(Profile, M.Members.size(), Opts);
  M.States = Search.run(); // sorted; the empty state is index 0
  if (M.States.empty() || !M.States.front().empty())
    M.States.insert(M.States.begin(), SymbolString());

  // Fit per-(state, member) predictions by longest-suffix assignment.
  std::vector<std::vector<DirCounts>> Counts(
      M.States.size(), std::vector<DirCounts>(M.Members.size()));
  auto Assign = [&M](const SymbolString &Syms) -> size_t {
    for (size_t L = Syms.size(); L >= 1; --L) {
      SymbolString Probe = suffixOf(Syms, L);
      auto It = std::lower_bound(M.States.begin(), M.States.end(), Probe,
                                 stringLess);
      if (It != M.States.end() && *It == Probe)
        return static_cast<size_t>(It - M.States.begin());
      if (L == 1)
        break;
    }
    return 0;
  };
  for (const auto &[Syms, PerMember] : Profile.PerPattern) {
    size_t S = Syms.empty() ? 0 : Assign(Syms);
    for (size_t J = 0; J < PerMember.size() && J < M.Members.size(); ++J) {
      Counts[S][J].Taken += PerMember[J].Taken;
      Counts[S][J].NotTaken += PerMember[J].NotTaken;
    }
  }

  M.Predictions.assign(M.States.size(),
                       std::vector<uint8_t>(M.Members.size(), 1));
  M.Correct = 0;
  M.Total = 0;
  for (size_t S = 0; S < M.States.size(); ++S)
    for (size_t J = 0; J < M.Members.size(); ++J) {
      M.Predictions[S][J] = Counts[S][J].majorityTaken() ? 1 : 0;
      M.Correct += std::max(Counts[S][J].Taken, Counts[S][J].NotTaken);
      M.Total += Counts[S][J].total();
    }
  return M;
}

PredictionStats bpcr::evaluateJointMachine(const JointLoopMachine &M,
                                           const ProgramAnalysis &PA,
                                           const ColumnarTrace &CT) {
  PredictionStats Stats;
  if (M.Members.empty())
    return Stats;
  uint32_t FuncIdx = 0;
  const Loop *L = nullptr;
  if (!sharedLoop(PA, M.Members, FuncIdx, L))
    return Stats;

  unsigned State = M.initialState();
  for (size_t I = 0, N = CT.size(); I < N; ++I) {
    const int32_t Id = CT.branchId(I);
    const BranchRef &R = PA.ref(Id);
    bool Inside = R.FuncIdx == FuncIdx && L->contains(R.BlockIdx);
    if (!Inside) {
      State = M.initialState();
      continue;
    }
    int MI = M.memberIndex(Id);
    if (MI < 0)
      continue;
    const bool Taken = CT.taken(I);
    Stats.record(M.predictTaken(State, MI) == Taken);
    State = M.next(State, MI, Taken);
  }
  return Stats;
}

ReplicationStats bpcr::applyJointLoopReplication(
    Function &F, const std::vector<uint32_t> &LoopBlocks, uint32_t Header,
    const JointLoopMachine &M) {
  ReplicationStats Out;
  (void)Header;

  // Reachable states from the initial one under all member transitions.
  unsigned NumStates = M.numStates();
  std::vector<uint8_t> Reachable(NumStates, 0);
  {
    std::vector<unsigned> Work{M.initialState()};
    Reachable[M.initialState()] = 1;
    while (!Work.empty()) {
      unsigned S = Work.back();
      Work.pop_back();
      for (size_t J = 0; J < M.Members.size(); ++J)
        for (bool Taken : {false, true}) {
          unsigned N = M.next(S, static_cast<int>(J), Taken);
          if (!Reachable[N]) {
            Reachable[N] = 1;
            Work.push_back(N);
          }
        }
    }
  }

  auto InLoop = [&LoopBlocks](uint32_t B) {
    return std::binary_search(LoopBlocks.begin(), LoopBlocks.end(), B);
  };
  auto LoopPos = [&LoopBlocks](uint32_t B) {
    return static_cast<size_t>(
        std::lower_bound(LoopBlocks.begin(), LoopBlocks.end(), B) -
        LoopBlocks.begin());
  };

  unsigned Init = M.initialState();
  std::vector<std::vector<uint32_t>> CopyIdx(
      NumStates, std::vector<uint32_t>(LoopBlocks.size(), UINT32_MAX));
  for (size_t P = 0; P < LoopBlocks.size(); ++P)
    CopyIdx[Init][P] = LoopBlocks[P];
  for (unsigned S = 0; S < NumStates; ++S) {
    if (S == Init || !Reachable[S])
      continue;
    for (size_t P = 0; P < LoopBlocks.size(); ++P) {
      BasicBlock Clone = F.Blocks[LoopBlocks[P]];
      Clone.Name += "@j" + std::to_string(S);
      CopyIdx[S][P] = static_cast<uint32_t>(F.Blocks.size());
      F.Blocks.push_back(std::move(Clone));
      ++Out.BlocksAdded;
    }
  }

  for (unsigned S = 0; S < NumStates; ++S) {
    if (!Reachable[S])
      continue;
    for (size_t P = 0; P < LoopBlocks.size(); ++P) {
      BasicBlock &BB = F.Blocks[CopyIdx[S][P]];
      if (!BB.isComplete())
        continue;
      Instruction &T = BB.terminator();

      auto Retarget = [&](uint32_t Old, unsigned NextState) {
        if (!InLoop(Old))
          return Old;
        return CopyIdx[NextState][LoopPos(Old)];
      };

      if (T.Op == Opcode::Jmp) {
        T.TrueTarget = Retarget(T.TrueTarget, S);
        continue;
      }
      if (!T.isConditionalBranch())
        continue;

      int MI = M.memberIndex(T.OrigBranchId);
      if (MI >= 0) {
        T.TrueTarget = Retarget(T.TrueTarget, M.next(S, MI, true));
        T.FalseTarget = Retarget(T.FalseTarget, M.next(S, MI, false));
        T.Predicted = M.predictTaken(S, MI) ? Prediction::Taken
                                            : Prediction::NotTaken;
      } else {
        T.TrueTarget = Retarget(T.TrueTarget, S);
        T.FalseTarget = Retarget(T.FalseTarget, S);
      }
    }
  }

  for (uint8_t R : Reachable)
    Out.StatesMaterialized += R;
  Out.BlocksPruned = pruneUnreachableBlocks(F);
  Out.Applied = true;
  return Out;
}
