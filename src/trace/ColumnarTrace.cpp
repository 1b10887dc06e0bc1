//===- trace/ColumnarTrace.cpp --------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/ColumnarTrace.h"

#include "obs/Metrics.h"
#include "support/ThreadPool.h"

#include <utility>

using namespace bpcr;

std::vector<EventRange> bpcr::eventRanges(size_t NumEvents, unsigned Jobs) {
  const size_t Parts = ThreadPool::resolveJobs(Jobs);
  std::vector<EventRange> Out(Parts);
  for (size_t R = 0; R < Parts; ++R)
    Out[R] = {NumEvents * R / Parts, NumEvents * (R + 1) / Parts};
  return Out;
}

void ColumnarTrace::finalize(uint32_t NumBranches, unsigned Jobs) {
  const size_t N = Ids.size();
  const std::vector<EventRange> Ranges = eventRanges(N, Jobs);
  const size_t NumRanges = Ranges.size();

  // Count pass: per-range execution counts of every branch.
  std::vector<std::vector<uint64_t>> RangeCounts(NumRanges);
  std::vector<uint64_t> RangeOutOfRange(NumRanges, 0);
  parallelForJobs(Jobs, NumRanges, [&](size_t R) {
    std::vector<uint64_t> &C = RangeCounts[R];
    C.assign(NumBranches, 0);
    uint64_t Out = 0;
    for (size_t I = Ranges[R].Begin; I < Ranges[R].End; ++I) {
      const uint32_t Id = static_cast<uint32_t>(Ids[I]);
      if (Id >= NumBranches)
        ++Out;
      else
        ++C[Id];
    }
    RangeOutOfRange[R] = Out;
  });

  // Word-aligned per-branch bitstream layout: branch b owns
  // ceil(Counts[b]/64) words starting at WordOffsets[b]. A prefix sum over
  // the ranges turns each range's counts into the bit position its first
  // event of each branch lands on.
  Counts.assign(NumBranches, 0);
  WordOffsets.assign(NumBranches, 0);
  OutOfRangeEvents = 0;
  for (size_t R = 0; R < NumRanges; ++R)
    OutOfRangeEvents += RangeOutOfRange[R];
  size_t TotalWords = 0;
  for (uint32_t B = 0; B < NumBranches; ++B) {
    uint64_t Pos = 0;
    for (size_t R = 0; R < NumRanges; ++R)
      Pos += std::exchange(RangeCounts[R][B], Pos);
    Counts[B] = Pos;
    WordOffsets[B] = TotalWords;
    TotalWords += static_cast<size_t>((Pos + 63) / 64);
  }
  BranchWords.assign(TotalWords, 0);

  // Scatter pass: each range walks its events once, collecting each
  // branch's direction bits in a one-word accumulator that is stored when
  // full. A range owns every word it fills except the first one of a
  // branch whose start bit is unaligned, which an earlier range also
  // writes; that word and the partial last word go to a side buffer that
  // is OR-ed in after the join.
  struct EdgeWord {
    size_t Index;
    uint64_t Bits;
  };
  std::vector<std::vector<EdgeWord>> Edges(NumRanges);
  const BitstreamView Dir = Dirs.view();
  parallelForJobs(Jobs, NumRanges, [&](size_t R) {
    std::vector<uint64_t> &Pos = RangeCounts[R];
    std::vector<uint64_t> Acc(NumBranches, 0);
    std::vector<size_t> SharedWord(NumBranches, SIZE_MAX);
    for (uint32_t B = 0; B < NumBranches; ++B)
      if (Pos[B] & 63)
        SharedWord[B] = WordOffsets[B] + static_cast<size_t>(Pos[B] >> 6);
    std::vector<EdgeWord> &Edge = Edges[R];
    for (size_t I = Ranges[R].Begin; I < Ranges[R].End; ++I) {
      const uint32_t B = static_cast<uint32_t>(Ids[I]);
      if (B >= NumBranches)
        continue;
      const uint64_t P = Pos[B]++;
      Acc[B] |= uint64_t{Dir.bit(I)} << (P & 63);
      if ((P & 63) != 63)
        continue;
      const size_t W = WordOffsets[B] + static_cast<size_t>(P >> 6);
      if (W == SharedWord[B])
        Edge.push_back({W, Acc[B]});
      else
        BranchWords[W] = Acc[B];
      Acc[B] = 0;
    }
    for (uint32_t B = 0; B < NumBranches; ++B)
      if (Acc[B])
        Edge.push_back(
            {WordOffsets[B] + static_cast<size_t>(Pos[B] >> 6), Acc[B]});
  });
  for (const std::vector<EdgeWord> &Edge : Edges)
    for (const EdgeWord &E : Edge)
      BranchWords[E.Index] |= E.Bits;

  TakenCounts.assign(NumBranches, 0);
  for (uint32_t B = 0; B < NumBranches; ++B)
    TakenCounts[B] = popcountBitsScalar(
        BitstreamView(BranchWords.data() + WordOffsets[B], Counts[B]));
  Indexed = true;

  Registry &Obs = Registry::global();
  if (Obs.enabled()) {
    Obs.counter("trace.columnar.finalizes").inc();
    Obs.counter("trace.columnar.events").add(N);
    Obs.counter("trace.columnar.index_words").add(TotalWords);
    Obs.counter("trace.columnar.out_of_range_events").add(OutOfRangeEvents);
    // The largest figure of the run: traces finalized in parallel (bench
    // suites) report the same value whatever order they finish in.
    if (N > 0) {
      const double BytesPerEvent =
          static_cast<double>(bytesUsed()) / static_cast<double>(N);
      Gauge &G = Obs.gauge("trace.columnar.bytes_per_event");
      double Cur = G.value();
      while (BytesPerEvent > Cur &&
             !G.Value.compare_exchange_weak(Cur, BytesPerEvent,
                                            std::memory_order_relaxed))
        ;
    }
  }
}

size_t ColumnarTrace::bytesUsed() const {
  size_t Bytes = Ids.size() * sizeof(int32_t) +
                 Dirs.view().numWords() * sizeof(uint64_t);
  if (Indexed)
    Bytes += BranchWords.size() * sizeof(uint64_t) +
             Counts.size() * (2 * sizeof(uint64_t) + sizeof(size_t));
  return Bytes;
}
