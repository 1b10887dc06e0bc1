//===- core/BranchProfiles.cpp --------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/BranchProfiles.h"

#include "core/ScoreKernels.h"
#include "trace/ColumnarTrace.h"

#include <cassert>
#include <unordered_set>

using namespace bpcr;

DirCounts PatternTable::countsFor(uint32_t Bits, unsigned Len) const {
  DirCounts C;
  uint32_t M = (Len >= 32) ? ~0U : ((1U << Len) - 1U);
  for (const auto &[Pattern, Counts] : Full) {
    if ((Pattern & M) != (Bits & M))
      continue;
    C.Taken += Counts.Taken;
    C.NotTaken += Counts.NotTaken;
  }
  return C;
}

unsigned PatternTable::distinctPatterns(unsigned Bits) const {
  uint32_t M = (Bits >= 32) ? ~0U : ((1U << Bits) - 1U);
  std::unordered_set<uint32_t> Seen;
  for (const auto &[Pattern, Counts] : Full)
    Seen.insert(Pattern & M);
  return static_cast<unsigned>(Seen.size());
}

ProfileSet::ProfileSet(uint32_t NumBranches, unsigned MaxBits)
    : Profiles(NumBranches, BranchProfile(MaxBits)) {}

void ProfileSet::addTrace(const ColumnarTrace &CT) {
  assert(CT.indexed() && "finalize() the columnar trace first");
  const uint32_t NumBranches = std::min<uint32_t>(
      static_cast<uint32_t>(Profiles.size()), CT.numBranches());

  // Whole-trace profiling never resets histories, so each branch's pattern
  // table is one continuous fill over its per-branch bitstream. The flat
  // count array is reused across branches (2^(MaxBits+1) words, 8 KB at
  // the paper's 9 bits).
  std::vector<uint64_t> Counts;
  KernelCallTally Tally;
  for (uint32_t Id = 0; Id < NumBranches; ++Id) {
    BranchColumn Col = CT.branch(Id);
    if (!Col.Executions)
      continue;
    BranchProfile &P = Profiles[Id];
    uint64_t Old = P.DirBits.size();
    P.DirBits.appendBits(Col.Bits);

    if (Old == 0) {
      unsigned MaxBits = P.Table.maxBits();
      Counts.assign(size_t(2) << MaxBits, 0);
      uint32_t FinalHist = fillPatternCounts(Col.Bits.data(), 0,
                                             Col.Executions, MaxBits,
                                             /*StartHist=*/0, Counts.data());
      P.Table.assignCounts(Counts.data(), FinalHist, Col.Executions);
    } else {
      // Appending to an already-filled profile: fall back to the
      // incremental path to preserve the running history.
      for (uint64_t I = 0; I < Col.Executions; ++I)
        P.Table.record(Col.Bits.bit(I));
    }
  }
}

uint32_t ProfileSet::executedBranches() const {
  uint32_t N = 0;
  for (const BranchProfile &P : Profiles)
    if (P.executions() != 0)
      ++N;
  return N;
}

uint64_t ProfileSet::totalExecutions() const {
  uint64_t N = 0;
  for (const BranchProfile &P : Profiles)
    N += P.executions();
  return N;
}

double ProfileSet::fillRatePercent(unsigned Bits) const {
  uint64_t Used = 0;
  uint64_t Capacity = 0;
  for (const BranchProfile &P : Profiles) {
    if (P.executions() == 0)
      continue;
    Used += P.Table.distinctPatterns(Bits);
    Capacity += (1ULL << Bits);
  }
  if (Capacity == 0)
    return 0.0;
  return 100.0 * static_cast<double>(Used) / static_cast<double>(Capacity);
}
