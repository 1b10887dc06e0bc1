//===- core/BranchProfiles.h - Per-branch history profiles ------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-branch outcome streams and local-history pattern tables built from a
/// trace (paper sec. 3/4: "For each 9 bit pattern we collected the number of
/// taken and not taken branches"), plus the fill-rate measurements of
/// Table 2.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_BRANCHPROFILES_H
#define BPCR_CORE_BRANCHPROFILES_H

#include "predict/SemiStaticPredictors.h" // DirCounts
#include "support/CountingAlloc.h"
#include "trace/Bitstream.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace bpcr {

class ColumnarTrace;

/// Local-history pattern table of one branch: counts per full-width pattern.
/// Shorter-pattern counts are derived by marginalizing over the high
/// (older) bits.
class PatternTable {
public:
  /// Hash map type with the profiling allocator: pattern tables are built
  /// per (branch, width) across the whole search, so their allocation
  /// churn is worth tracking in `bpcr profile`.
  using FullMap = std::unordered_map<
      uint32_t, DirCounts, std::hash<uint32_t>, std::equal_to<uint32_t>,
      CountingAllocator<std::pair<const uint32_t, DirCounts>,
                        AllocTag::PatternTable>>;

public:
  explicit PatternTable(unsigned MaxBits = 9) : MaxBits(MaxBits) {}

  /// Records one outcome under the current local history, then shifts it.
  /// The history starts zero-filled, matching the predictors in
  /// predict/SemiStaticPredictors.
  void record(bool Taken) {
    Full[Hist].record(Taken);
    Hist = ((Hist << 1) | (Taken ? 1U : 0U)) & mask();
    ++Executions;
  }

  /// Zero-fills the running history. Loop-aware profiling calls this when
  /// control left the branch's loop, because a replicated loop re-enters
  /// through its initial-state copy and therefore forgets the history of
  /// the previous invocation.
  void resetHistory() { Hist = 0; }

  /// Pre-sizes the pattern map for a stream of \p Executions outcomes. The
  /// map can never hold more than 2^MaxBits entries, so the hint is capped
  /// there (and at 512 — wider tables are mostly sparse in practice).
  void reserveHint(uint64_t Executions) {
    uint64_t Cap = MaxBits >= 9 ? 512 : (1ULL << MaxBits);
    Full.reserve(static_cast<size_t>(std::min(Executions, Cap)));
  }

  /// Bulk fill from a flat count array as produced by fillPatternCounts
  /// (core/ScoreKernels.h): \p Counts holds 2^(MaxBits+1) entries,
  /// [2*pattern + taken]. Replaces the map contents with every pattern
  /// whose counts are nonzero and fast-forwards the rolling history to
  /// \p FinalHist — the exact end state of an equivalent record() stream,
  /// only reached without a hash probe per event.
  void assignCounts(const uint64_t *Counts, uint32_t FinalHist,
                    uint64_t NumExecutions) {
    Full.clear();
    const uint32_t Patterns = 1U << MaxBits;
    size_t NonZero = 0;
    for (uint32_t P = 0; P < Patterns; ++P)
      NonZero += (Counts[2 * P] | Counts[2 * P + 1]) != 0;
    Full.reserve(NonZero);
    for (uint32_t P = 0; P < Patterns; ++P) {
      uint64_t NT = Counts[2 * P], T = Counts[2 * P + 1];
      if (NT | T)
        Full.emplace(P, DirCounts{T, NT});
    }
    Hist = FinalHist & mask();
    Executions = NumExecutions;
  }

  /// Counts aggregated over all full patterns whose last \p Len outcomes
  /// equal \p Bits (bit 0 = most recent).
  DirCounts countsFor(uint32_t Bits, unsigned Len) const;

  /// Number of distinct \p Bits-wide patterns observed: the numerator of
  /// the paper's Table 2 fill rate.
  unsigned distinctPatterns(unsigned Bits) const;

  const FullMap &full() const { return Full; }
  unsigned maxBits() const { return MaxBits; }
  /// The rolling history the next record() extends.
  uint32_t history() const { return Hist; }
  uint64_t executions() const { return Executions; }

private:
  uint32_t mask() const { return (1U << MaxBits) - 1U; }

  unsigned MaxBits;
  uint32_t Hist = 0;
  uint64_t Executions = 0;
  FullMap Full;
};

/// Everything the machine construction needs about one branch.
struct BranchProfile {
  /// Outcome stream in execution order, bit-packed (64 outcomes per word,
  /// 1 = taken). Machine simulation walks these words and takenCount()
  /// popcounts them.
  BitstreamBuilder DirBits;
  /// Positions in DirBits before which the history was reset (loop
  /// re-entries); empty for plain whole-trace profiling.
  std::vector<uint64_t> ResetPositions;
  PatternTable Table;

  explicit BranchProfile(unsigned MaxBits = 9) : Table(MaxBits) {}

  uint64_t executions() const { return DirBits.size(); }
  uint64_t takenCount() const { return popcountBitsScalar(DirBits.view()); }
  bool majorityTaken() const { return 2 * takenCount() >= executions(); }
  /// Mispredictions of profile (majority) prediction.
  uint64_t profileMispredictions() const {
    uint64_t T = takenCount(), N = executions() - T;
    return T < N ? T : N;
  }
};

/// Profiles for every branch of a traced program.
class ProfileSet {
public:
  /// \param NumBranches static branch count (ids are dense below this).
  /// \param MaxBits pattern-table width (the paper uses 9).
  ProfileSet(uint32_t NumBranches, unsigned MaxBits = 9);

  /// Accumulates a whole finalized trace. Per-branch outcome streams come
  /// straight from the index and the pattern tables from the flat-count
  /// fill kernel — no per-event hash probes. The tables equal recording
  /// each branch's outcomes in order with PatternTable::record() (pattern
  /// maps may differ in iteration order only, which nothing downstream
  /// observes).
  void addTrace(const ColumnarTrace &CT);

  const BranchProfile &branch(int32_t Id) const {
    return Profiles[static_cast<uint32_t>(Id)];
  }

  /// Mutable access for the bulk-fill builders (core/LoopAwareProfiles.cpp),
  /// which write outcome streams and reset positions wholesale.
  BranchProfile &branchMutable(int32_t Id) {
    return Profiles[static_cast<uint32_t>(Id)];
  }

  /// Bulk pattern-table fill for branch \p Id; see
  /// PatternTable::assignCounts.
  void assignTable(int32_t Id, const uint64_t *Counts, uint32_t FinalHist,
                   uint64_t NumExecutions) {
    Profiles[static_cast<uint32_t>(Id)].Table.assignCounts(Counts, FinalHist,
                                                           NumExecutions);
  }

  uint32_t numBranches() const {
    return static_cast<uint32_t>(Profiles.size());
  }

  uint32_t executedBranches() const;
  uint64_t totalExecutions() const;

  /// Table 2: percentage of the 2^Bits pattern-table entries of the
  /// executed branches that were actually used.
  double fillRatePercent(unsigned Bits) const;

private:
  std::vector<BranchProfile> Profiles;
};

} // namespace bpcr

#endif // BPCR_CORE_BRANCHPROFILES_H
