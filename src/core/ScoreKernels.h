//===- core/ScoreKernels.h - Packed-word scoring kernels --------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The branchless scoring kernels of the columnar event path. They consume
/// packed direction words (trace/Bitstream.h) instead of object-at-a-time
/// event streams:
///
///  - DenseMachine + scoreMachineRange: a branch machine densified to a
///    nibble transition table (16 states x 4 bits per outcome packed in
///    one u64) and walked with shift/mask arithmetic only — no virtual
///    next() per event, no branches in the loop body.
///  - fillPatternCounts: local-history pattern-table fill into a flat
///    count array, replacing a hash-map probe per event.
///
/// Taken counts come from popcountBits (trace/Bitstream.h).
/// docs/PERFORMANCE.md lists the kernel of each job.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_SCOREKERNELS_H
#define BPCR_CORE_SCOREKERNELS_H

#include "trace/Bitstream.h"

#include <cstdint>
#include <cstddef>

namespace bpcr {

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

/// Walks \p M from its initial state over bits [StartBit, StartBit +
/// NumBits) of \p Words and \returns the number of correct predictions.
/// The walk is serial by nature: each transition depends on the previous
/// state.
uint64_t scoreMachineRange(const DenseMachine &M, const uint64_t *Words,
                           uint64_t StartBit, uint64_t NumBits);

inline uint64_t scoreMachine(const DenseMachine &M, BitstreamView V) {
  return scoreMachineRange(M, V.data(), 0, V.size());
}

/// Local-history pattern fill over bits [StartBit, StartBit + NumBits):
/// for each outcome b under rolling history H (StartHist at entry),
/// increments Counts[2 * H + b] and shifts H like PatternTable::record.
/// \p Counts must hold 2^(MaxBits+1) zero-initialized entries.
/// \returns the final history register.
uint32_t fillPatternCounts(const uint64_t *Words, uint64_t StartBit,
                           uint64_t NumBits, unsigned MaxBits,
                           uint32_t StartHist, uint64_t *Counts);

/// Every kernel call counts into `search.simd.kernel_calls` and
/// `search.simd.words` when the registry is on; the names are historical,
/// the kernels are scalar. While a tally is open on a thread, that thread's
/// calls add to the tally instead, and the registry sees one update per
/// counter when the tally closes. A pass that makes many small kernel
/// calls (the loop-aware profile fill makes one per reset segment) opens
/// one, so it pays no registry lookup per call. The totals are the same
/// either way.
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
