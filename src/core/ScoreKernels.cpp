//===- core/ScoreKernels.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Each kernel counts its call into `search.simd.*` (KernelCallTally) and
// walks the packed words with a branchless loop.
//
//===----------------------------------------------------------------------===//

#include "core/ScoreKernels.h"

#include "obs/Metrics.h"

using namespace bpcr;

namespace {

thread_local KernelCallTally *OpenTally = nullptr;

void noteKernelCall(uint64_t Words) {
  Registry &Obs = Registry::global();
  if (!Obs.enabled())
    return;
  if (OpenTally) {
    OpenTally->note(Words);
    return;
  }
  Obs.counter("search.simd.kernel_calls").inc();
  Obs.counter("search.simd.words").add(Words);
}

} // namespace

KernelCallTally::KernelCallTally() : Outer(OpenTally) { OpenTally = this; }

KernelCallTally::~KernelCallTally() {
  OpenTally = Outer;
  if (Calls == 0)
    return;
  Registry &Obs = Registry::global();
  Obs.counter("search.simd.kernel_calls").add(Calls);
  Obs.counter("search.simd.words").add(Words);
}

uint64_t bpcr::scoreMachineRange(const DenseMachine &M, const uint64_t *Words,
                                 uint64_t StartBit, uint64_t NumBits) {
  noteKernelCall((NumBits + 63) / 64);
  uint64_t Miss = 0;
  unsigned S = M.Initial;
  const uint64_t Pred = M.PredMask;
  uint64_t Idx = StartBit;
  const uint64_t End = StartBit + NumBits;
  while (Idx < End) {
    uint64_t W = Words[Idx >> 6] >> (Idx & 63);
    unsigned Avail = 64 - static_cast<unsigned>(Idx & 63);
    unsigned N = static_cast<unsigned>(
        End - Idx < Avail ? End - Idx : Avail);
    for (unsigned K = 0; K < N; ++K) {
      uint64_t B = W & 1;
      W >>= 1;
      Miss += ((Pred >> S) ^ B) & 1;
      S = static_cast<unsigned>(M.NextTab[B] >> (S * 4)) & 15U;
    }
    Idx += N;
  }
  return NumBits - Miss;
}

uint32_t bpcr::fillPatternCounts(const uint64_t *Words, uint64_t StartBit,
                                 uint64_t NumBits, unsigned MaxBits,
                                 uint32_t StartHist, uint64_t *Counts) {
  noteKernelCall((NumBits + 63) / 64);
  const uint32_t Mask = (1U << MaxBits) - 1U;
  uint32_t H = StartHist;
  uint64_t Idx = StartBit;
  const uint64_t End = StartBit + NumBits;
  while (Idx < End) {
    uint64_t W = Words[Idx >> 6] >> (Idx & 63);
    unsigned Avail = 64 - static_cast<unsigned>(Idx & 63);
    unsigned N = static_cast<unsigned>(
        End - Idx < Avail ? End - Idx : Avail);
    for (unsigned K = 0; K < N; ++K) {
      uint32_t B = static_cast<uint32_t>(W & 1);
      W >>= 1;
      ++Counts[(H << 1) | B];
      H = ((H << 1) | B) & Mask;
    }
    Idx += N;
  }
  return H;
}
