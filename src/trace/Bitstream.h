//===- trace/Bitstream.h - Packed direction bitstreams ----------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-packed branch-direction streams: 64 outcomes per word, LSB-first
/// (bit i of word w is event 64*w + i, 1 = taken). The packed form is what
/// the columnar trace stores and what the scoring kernels
/// (core/ScoreKernels.h) consume word-at-a-time.
///
/// Invariant: bits past the logical length of a stream are zero. Builders
/// maintain it on every append, so kernels may read whole tail words and
/// mask only when the operation is length-sensitive (e.g. popcount of the
/// complement).
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TRACE_BITSTREAM_H
#define BPCR_TRACE_BITSTREAM_H

#include "support/CountingAlloc.h"

#include <cstdint>
#include <vector>

namespace bpcr {

/// Non-owning view of a packed direction stream. Starts word-aligned;
/// sub-streams at arbitrary bit offsets are expressed as (view, StartBit)
/// pairs by the kernels that need them.
class BitstreamView {
public:
  BitstreamView() = default;
  BitstreamView(const uint64_t *Words, uint64_t NumBits)
      : Words(Words), NumBits(NumBits) {}

  uint64_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }
  size_t numWords() const { return static_cast<size_t>((NumBits + 63) / 64); }

  /// Whole storage word; bits past size() are zero (builder invariant).
  uint64_t word(size_t I) const { return Words[I]; }
  const uint64_t *data() const { return Words; }

  bool bit(uint64_t I) const {
    return (Words[I >> 6] >> (I & 63)) & 1;
  }

private:
  const uint64_t *Words = nullptr;
  uint64_t NumBits = 0;
};

/// Owning, appendable packed stream. Storage is charged to the trace-buffer
/// allocation pool like the trace's id column.
class BitstreamBuilder {
public:
  using WordVector =
      std::vector<uint64_t, CountingAllocator<uint64_t, AllocTag::TraceBuffer>>;

  void clear() {
    Words.clear();
    NumBits = 0;
  }

  void reserveBits(uint64_t N) {
    Words.reserve(static_cast<size_t>((N + 63) / 64));
  }

  void push(bool B) {
    if ((NumBits & 63) == 0)
      Words.push_back(0);
    Words.back() |= static_cast<uint64_t>(B ? 1 : 0) << (NumBits & 63);
    ++NumBits;
  }

  /// Appends \p N copies of \p B (run-length decode fast path).
  void appendRun(bool B, uint64_t N) {
    if (!B) {
      // Zero bits only need the length to grow; tail words stay zero.
      NumBits += N;
      Words.resize(static_cast<size_t>((NumBits + 63) / 64), 0);
      return;
    }
    uint64_t End = NumBits + N;
    Words.resize(static_cast<size_t>((End + 63) / 64), 0);
    uint64_t I = NumBits;
    if (I & 63) {
      unsigned Off = static_cast<unsigned>(I & 63);
      unsigned Span = static_cast<unsigned>(
          End - I < 64 - Off ? End - I : 64 - Off);
      Words[static_cast<size_t>(I >> 6)] |=
          (Span == 64 ? ~0ULL : ((1ULL << Span) - 1)) << Off;
      I += Span;
    }
    for (; I + 64 <= End; I += 64)
      Words[static_cast<size_t>(I >> 6)] = ~0ULL;
    if (I < End)
      Words[static_cast<size_t>(I >> 6)] |= (1ULL << (End - I)) - 1;
    NumBits = End;
  }

  /// Appends every bit of \p V; whole-word memcpy when this builder is
  /// word-aligned (the common bulk-copy case), bit loop otherwise.
  void appendBits(BitstreamView V) {
    if ((NumBits & 63) == 0) {
      Words.insert(Words.end(), V.data(), V.data() + V.numWords());
      NumBits += V.size();
      return;
    }
    for (uint64_t I = 0, E = V.size(); I != E; ++I)
      push(V.bit(I));
  }

  uint64_t size() const { return NumBits; }
  bool bit(uint64_t I) const { return view().bit(I); }
  BitstreamView view() const { return {Words.data(), NumBits}; }
  size_t capacityBytes() const { return Words.capacity() * sizeof(uint64_t); }
  /// Bits the builder holds without moving its words.
  size_t capacityBits() const { return Words.capacity() * 64; }

private:
  WordVector Words;
  uint64_t NumBits = 0;
};

/// \returns the number of set bits in \p V (taken count of a stream).
inline uint64_t popcountBits(BitstreamView V) {
  uint64_t N = 0;
  for (size_t I = 0, E = V.numWords(); I != E; ++I)
    N += static_cast<uint64_t>(__builtin_popcountll(V.word(I)));
  return N;
}

} // namespace bpcr

#endif // BPCR_TRACE_BITSTREAM_H
