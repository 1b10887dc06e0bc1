//===- core/ScoreKernels.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Tier layout: every public kernel is a thin dispatch wrapper that records
// the `search.simd.*` counters (tier-independent, so metrics stay
// byte-identical between scalar and SIMD runs) and jumps to the resolved
// tier. The AVX2 bodies are compiled in this ordinary TU via
// __attribute__((target("avx2"))) and only ever called behind a runtime
// __builtin_cpu_supports check.
//
//===----------------------------------------------------------------------===//

#include "core/ScoreKernels.h"

#include "obs/Metrics.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && !defined(BPCR_DISABLE_SIMD)
#define BPCR_X86_KERNELS 1
#include <immintrin.h>
#else
#define BPCR_X86_KERNELS 0
#endif

using namespace bpcr;

namespace {

SimdTier bestSupportedTier() {
#if BPCR_X86_KERNELS
  if (__builtin_cpu_supports("avx2"))
    return SimdTier::AVX2;
  return SimdTier::SSE2; // baseline on x86-64
#else
  return SimdTier::Scalar;
#endif
}

SimdTier resolveTier() {
  SimdTier Best = bestSupportedTier();
  const char *Env = std::getenv("BPCR_SIMD");
  if (!Env || !std::strcmp(Env, "auto"))
    return Best;
  SimdTier Want = Best;
  if (!std::strcmp(Env, "scalar"))
    Want = SimdTier::Scalar;
  else if (!std::strcmp(Env, "sse2"))
    Want = SimdTier::SSE2;
  else if (!std::strcmp(Env, "avx2"))
    Want = SimdTier::AVX2;
  return static_cast<int>(Want) <= static_cast<int>(Best) ? Want : Best;
}

std::atomic<int> ForcedTier{-1};

SimdTier currentTier() {
  int Forced = ForcedTier.load(std::memory_order_relaxed);
  if (Forced >= 0)
    return static_cast<SimdTier>(Forced);
  static const SimdTier Resolved = resolveTier();
  return Resolved;
}

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

//===----------------------------------------------------------------------===//
// Scalar tier
//===----------------------------------------------------------------------===//

uint64_t popcountScalar(const uint64_t *W, size_t N) {
  uint64_t Sum = 0;
  for (size_t I = 0; I < N; ++I)
    Sum += static_cast<uint64_t>(__builtin_popcountll(W[I]));
  return Sum;
}

//===----------------------------------------------------------------------===//
// SSE2 tier: SWAR popcount over 128-bit lanes with a psadbw horizontal
// sum. Batch machine scoring needs per-lane variable 64-bit shifts, which
// x86 only grows at AVX2 (vpsrlvq), so that kernel stays scalar here.
//===----------------------------------------------------------------------===//

#if BPCR_X86_KERNELS
uint64_t popcountSse2(const uint64_t *W, size_t N) {
  const __m128i M1 = _mm_set1_epi8(0x55);
  const __m128i M2 = _mm_set1_epi8(0x33);
  const __m128i M4 = _mm_set1_epi8(0x0f);
  const __m128i Zero = _mm_setzero_si128();
  __m128i Acc = Zero;
  size_t I = 0;
  for (; I + 2 <= N; I += 2) {
    __m128i V = _mm_loadu_si128(reinterpret_cast<const __m128i *>(W + I));
    V = _mm_sub_epi8(V, _mm_and_si128(_mm_srli_epi64(V, 1), M1));
    V = _mm_add_epi8(_mm_and_si128(V, M2),
                     _mm_and_si128(_mm_srli_epi64(V, 2), M2));
    V = _mm_and_si128(_mm_add_epi8(V, _mm_srli_epi64(V, 4)), M4);
    Acc = _mm_add_epi64(Acc, _mm_sad_epu8(V, Zero));
  }
  uint64_t Lanes[2];
  _mm_storeu_si128(reinterpret_cast<__m128i *>(Lanes), Acc);
  uint64_t Sum = Lanes[0] + Lanes[1];
  for (; I < N; ++I)
    Sum += static_cast<uint64_t>(__builtin_popcountll(W[I]));
  return Sum;
}

//===----------------------------------------------------------------------===//
// AVX2 tier
//===----------------------------------------------------------------------===//

__attribute__((target("avx2"))) uint64_t popcountAvx2(const uint64_t *W,
                                                      size_t N) {
  // Nibble-LUT popcount (vpshufb) with psadbw accumulation.
  const __m256i Lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i M4 = _mm256_set1_epi8(0x0f);
  const __m256i Zero = _mm256_setzero_si256();
  __m256i Acc = Zero;
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256i V = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(W + I));
    __m256i Lo = _mm256_shuffle_epi8(Lut, _mm256_and_si256(V, M4));
    __m256i Hi = _mm256_shuffle_epi8(
        Lut, _mm256_and_si256(_mm256_srli_epi64(V, 4), M4));
    Acc = _mm256_add_epi64(Acc,
                           _mm256_sad_epu8(_mm256_add_epi8(Lo, Hi), Zero));
  }
  uint64_t Lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i *>(Lanes), Acc);
  uint64_t Sum = Lanes[0] + Lanes[1] + Lanes[2] + Lanes[3];
  for (; I < N; ++I)
    Sum += static_cast<uint64_t>(__builtin_popcountll(W[I]));
  return Sum;
}

/// Scores 4 machines (one per 64-bit lane) over the same packed stream.
/// Per event: pred = (PredMask >> state) & 1, miss += pred ^ bit,
/// state = (NextTab[bit] >> 4*state) & 15 — all lanes in parallel via
/// vpsrlvq, the per-lane variable shift.
__attribute__((target("avx2"))) void
scoreMachines4Avx2(const DenseMachine *M, const uint64_t *Words,
                   uint64_t NumBits, uint64_t *CorrectOut) {
  const __m256i T0 = _mm256_setr_epi64x(
      static_cast<long long>(M[0].NextTab[0]),
      static_cast<long long>(M[1].NextTab[0]),
      static_cast<long long>(M[2].NextTab[0]),
      static_cast<long long>(M[3].NextTab[0]));
  const __m256i T1 = _mm256_setr_epi64x(
      static_cast<long long>(M[0].NextTab[1]),
      static_cast<long long>(M[1].NextTab[1]),
      static_cast<long long>(M[2].NextTab[1]),
      static_cast<long long>(M[3].NextTab[1]));
  const __m256i Pred =
      _mm256_setr_epi64x(M[0].PredMask, M[1].PredMask, M[2].PredMask,
                         M[3].PredMask);
  const __m256i One = _mm256_set1_epi64x(1);
  const __m256i Fifteen = _mm256_set1_epi64x(15);
  __m256i S = _mm256_setr_epi64x(M[0].Initial, M[1].Initial, M[2].Initial,
                                 M[3].Initial);
  __m256i Miss = _mm256_setzero_si256();

  for (uint64_t Base = 0; Base < NumBits; Base += 64) {
    uint64_t W = Words[Base >> 6];
    unsigned N = static_cast<unsigned>(
        NumBits - Base < 64 ? NumBits - Base : 64);
    for (unsigned K = 0; K < N; ++K) {
      uint64_t B = (W >> K) & 1;
      __m256i Bv = _mm256_set1_epi64x(static_cast<long long>(B));
      __m256i PredBit = _mm256_and_si256(_mm256_srlv_epi64(Pred, S), One);
      Miss = _mm256_add_epi64(Miss, _mm256_xor_si256(PredBit, Bv));
      __m256i Tab = B ? T1 : T0;
      S = _mm256_and_si256(
          _mm256_srlv_epi64(Tab, _mm256_slli_epi64(S, 2)), Fifteen);
    }
  }
  uint64_t Lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i *>(Lanes), Miss);
  for (int I = 0; I < 4; ++I)
    CorrectOut[I] = NumBits - Lanes[I];
}
#endif // BPCR_X86_KERNELS

/// Uncounted body of scoreMachineRange, shared with the batch kernel's
/// non-AVX2 path so the `search.simd.*` counters stay tier-independent.
uint64_t scoreRangeImpl(const DenseMachine &M, const uint64_t *Words,
                        uint64_t StartBit, uint64_t NumBits) {
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

} // namespace

SimdTier bpcr::activeSimdTier() { return currentTier(); }

KernelCallTally::KernelCallTally() : Outer(OpenTally) { OpenTally = this; }

KernelCallTally::~KernelCallTally() {
  OpenTally = Outer;
  if (Calls == 0)
    return;
  Registry &Obs = Registry::global();
  Obs.counter("search.simd.kernel_calls").add(Calls);
  Obs.counter("search.simd.words").add(Words);
}

const char *bpcr::simdTierName(SimdTier T) {
  switch (T) {
  case SimdTier::Scalar:
    return "scalar";
  case SimdTier::SSE2:
    return "sse2";
  case SimdTier::AVX2:
    return "avx2";
  }
  return "unknown";
}

void bpcr::setSimdTierForTest(SimdTier T) {
  SimdTier Best = bestSupportedTier();
  if (static_cast<int>(T) > static_cast<int>(Best))
    T = Best;
  ForcedTier.store(static_cast<int>(T), std::memory_order_relaxed);
}

uint64_t bpcr::popcountBits(BitstreamView V) {
  noteKernelCall(V.numWords());
  switch (currentTier()) {
#if BPCR_X86_KERNELS
  case SimdTier::AVX2:
    return popcountAvx2(V.data(), V.numWords());
  case SimdTier::SSE2:
    return popcountSse2(V.data(), V.numWords());
#endif
  default:
    return popcountScalar(V.data(), V.numWords());
  }
}

uint64_t bpcr::scoreConstant(BitstreamView V, bool PredictTaken) {
  uint64_t Taken = popcountBits(V);
  return PredictTaken ? Taken : V.size() - Taken;
}

uint64_t bpcr::scoreMachineRange(const DenseMachine &M, const uint64_t *Words,
                                 uint64_t StartBit, uint64_t NumBits) {
  noteKernelCall((NumBits + 63) / 64);
  // Serial state recurrence: identical branchless walk on every tier.
  return scoreRangeImpl(M, Words, StartBit, NumBits);
}

void bpcr::scoreMachines(const DenseMachine *Machines, size_t K,
                         BitstreamView V, uint64_t *CorrectOut) {
  noteKernelCall(V.numWords() * K);
#if BPCR_X86_KERNELS
  if (currentTier() == SimdTier::AVX2) {
    size_t I = 0;
    for (; I + 4 <= K; I += 4)
      scoreMachines4Avx2(Machines + I, V.data(), V.size(), CorrectOut + I);
    if (I < K) {
      // Pad the last group with machine 0 and drop the spare lanes.
      DenseMachine Pad[4] = {Machines[0], Machines[0], Machines[0],
                             Machines[0]};
      uint64_t Out[4];
      for (size_t J = I; J < K; ++J)
        Pad[J - I] = Machines[J];
      scoreMachines4Avx2(Pad, V.data(), V.size(), Out);
      for (size_t J = I; J < K; ++J)
        CorrectOut[J] = Out[J - I];
    }
    return;
  }
#endif
  for (size_t I = 0; I < K; ++I)
    CorrectOut[I] = scoreRangeImpl(Machines[I], V.data(), 0, V.size());
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
