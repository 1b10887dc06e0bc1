//===- core/ScoreKernels.h - Packed-word scoring kernels --------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The branchless scoring kernels of the columnar event path. All of them
/// consume packed direction words (trace/Bitstream.h) instead of
/// object-at-a-time event streams:
///
///  - popcountBits / scoreConstant: taken counts and constant-prediction
///    scores (the profile strategy) straight off the packed words.
///  - DenseMachine + scoreMachineRange: a branch machine densified to a
///    nibble transition table (16 states x 4 bits per outcome packed in
///    one u64) and walked with shift/mask arithmetic only — no virtual
///    next() per event, no branches in the loop body.
///  - scoreMachines: the same walk across several candidate machines of
///    one branch simultaneously (SIMD lanes score one machine each).
///  - fillPatternCounts: local-history pattern-table fill into a flat
///    count array, replacing a hash-map probe per event.
///
/// Dispatch: a scalar reference, an SSE2 tier and an AVX2 tier, selected
/// at runtime (BPCR_SIMD=scalar|sse2|avx2|auto overrides; the CMake option
/// BPCR_DISABLE_SIMD forces scalar at compile time). Every tier computes
/// the identical integers — reports are byte-identical across tiers, which
/// ctest enforces — so the choice is purely a throughput knob. See
/// docs/PERFORMANCE.md for the tier table.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_SCOREKERNELS_H
#define BPCR_CORE_SCOREKERNELS_H

#include "trace/Bitstream.h"

#include <cstdint>
#include <cstddef>

namespace bpcr {

/// Kernel implementation tiers, in increasing capability order.
enum class SimdTier : int { Scalar = 0, SSE2 = 1, AVX2 = 2 };

/// \returns the tier the process resolved at first use: the best the CPU
/// supports, lowered by BPCR_DISABLE_SIMD (compile time) or the BPCR_SIMD
/// environment variable (scalar|sse2|avx2|auto).
SimdTier activeSimdTier();

const char *simdTierName(SimdTier T);

/// Test hook: forces \p T (clamped to what the build/CPU supports) for
/// subsequent kernel calls. The scalar-vs-SIMD fuzz tests flip this.
void setSimdTierForTest(SimdTier T);

/// A branch machine densified for the kernels: at most 16 states, the
/// successor of state s under outcome b is nibble s of NextTab[b], and bit
/// s of PredMask is the state's taken prediction. Built from any
/// BranchMachine via denseEncode() in core/Machines.h.
struct DenseMachine {
  uint64_t NextTab[2] = {0, 0};
  uint16_t PredMask = 0;
  uint8_t NumStates = 0;
  uint8_t Initial = 0;

  unsigned next(unsigned S, bool Taken) const {
    return static_cast<unsigned>(NextTab[Taken ? 1 : 0] >> (S * 4)) & 15U;
  }
  bool predictTaken(unsigned S) const { return (PredMask >> S) & 1U; }
};

/// Set bits (taken outcomes) in \p V.
uint64_t popcountBits(BitstreamView V);

/// Correct predictions of the constant prediction \p PredictTaken over
/// \p V: popcount for taken, size-popcount for not-taken.
uint64_t scoreConstant(BitstreamView V, bool PredictTaken);

/// Walks \p M from its initial state over bits [StartBit, StartBit +
/// NumBits) of \p Words and \returns the number of correct predictions.
/// The walk is serial by nature (each transition depends on the previous
/// state), so this kernel is the branchless scalar walk on every tier.
uint64_t scoreMachineRange(const DenseMachine &M, const uint64_t *Words,
                           uint64_t StartBit, uint64_t NumBits);

inline uint64_t scoreMachine(const DenseMachine &M, BitstreamView V) {
  return scoreMachineRange(M, V.data(), 0, V.size());
}

/// Scores \p K candidate machines over the same stream \p V, one lane per
/// machine (4 per AVX2 vector). \p CorrectOut receives K correct counts,
/// equal to scoreMachine() of each machine individually on every tier.
void scoreMachines(const DenseMachine *Machines, size_t K, BitstreamView V,
                   uint64_t *CorrectOut);

/// Local-history pattern fill over bits [StartBit, StartBit + NumBits):
/// for each outcome b under rolling history H (StartHist at entry),
/// increments Counts[2 * H + b] and shifts H like PatternTable::record.
/// \p Counts must hold 2^(MaxBits+1) zero-initialized entries.
/// \returns the final history register.
uint32_t fillPatternCounts(const uint64_t *Words, uint64_t StartBit,
                           uint64_t NumBits, unsigned MaxBits,
                           uint32_t StartHist, uint64_t *Counts);

/// Every kernel call counts into `search.simd.kernel_calls` and
/// `search.simd.words` when the registry is on. While a tally is open on a
/// thread, that thread's calls add to the tally instead, and the registry
/// sees one update per counter when the tally closes. A pass that makes
/// many small kernel calls (the loop-aware profile fill makes one per
/// reset segment) opens one, so it pays no registry lookup per call. The
/// totals are the same either way.
class KernelCallTally {
public:
  KernelCallTally();
  ~KernelCallTally();
  KernelCallTally(const KernelCallTally &) = delete;
  KernelCallTally &operator=(const KernelCallTally &) = delete;

  void note(uint64_t Words) {
    ++Calls;
    this->Words += Words;
  }

private:
  KernelCallTally *Outer;
  uint64_t Calls = 0;
  uint64_t Words = 0;
};

} // namespace bpcr

#endif // BPCR_CORE_SCOREKERNELS_H
