//===- tests/test_trace.cpp - Trace model, format and statistics ----------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"

#include "interp/Interpreter.h"
#include "support/Rng.h"
#include "trace/TraceFile.h"
#include "trace/TraceStats.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace bpcr;
using bpcr::test::eventsOf;
using bpcr::test::makeTrace;
using bpcr::test::randomTrace;

namespace {

/// Decodes \p Buf, expecting success.
ColumnarTrace decodeOk(const std::vector<uint8_t> &Buf) {
  ColumnarTrace Out;
  std::string Error;
  EXPECT_TRUE(decodeTraceColumnar(Buf, Out, Error)) << Error;
  return Out;
}

/// \returns whether \p Buf decodes, with the message in \p Error.
bool decodes(const std::vector<uint8_t> &Buf, std::string &Error) {
  ColumnarTrace Out;
  return decodeTraceColumnar(Buf, Out, Error);
}

bool decodes(const std::vector<uint8_t> &Buf) {
  std::string Error;
  return decodes(Buf, Error);
}

std::vector<uint8_t> readBytes(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  return {std::istreambuf_iterator<char>(In), std::istreambuf_iterator<char>()};
}

} // namespace

TEST(TraceFile, EmptyTraceRoundTrips) {
  ColumnarTrace T;
  EXPECT_TRUE(decodeOk(encodeTrace(T)).empty());
}

TEST(TraceFile, SmallTraceRoundTrips) {
  ColumnarTrace T =
      makeTrace({{0, true}, {0, true}, {1, false}, {0, true}, {2, false}});
  EXPECT_EQ(eventsOf(decodeOk(encodeTrace(T))), eventsOf(T));
}

TEST(TraceFile, RandomTracesRoundTrip) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    ColumnarTrace T = randomTrace(Seed, 10000, 500);
    EXPECT_EQ(eventsOf(decodeOk(encodeTrace(T))), eventsOf(T));
  }
}

TEST(TraceFile, RunsCompressWell) {
  // A hot loop branch produces long runs; the format should collapse them.
  ColumnarTrace T;
  for (int I = 0; I < 100000; ++I)
    T.append(7, true);
  auto Buf = encodeTrace(T);
  EXPECT_LT(Buf.size(), 64u);
  EXPECT_EQ(eventsOf(decodeOk(Buf)), eventsOf(T));
}

TEST(TraceFile, LoopTraceStaysCompact) {
  // Alternating branches in a loop: id deltas are small, so a few bytes
  // per event group at worst. The paper reports ~1 MB for 5M branches; we
  // should be in the same order (< 2 bytes/event on loopy traces).
  ColumnarTrace T;
  for (int I = 0; I < 50000; ++I) {
    T.append(0, true);
    T.append(1, I % 2 == 0);
    T.append(2, I % 7 != 0);
  }
  auto Buf = encodeTrace(T);
  EXPECT_LE(Buf.size(), T.size() * 2 + 16);
  EXPECT_EQ(eventsOf(decodeOk(Buf)), eventsOf(T));
}

TEST(TraceFile, RejectsBadMagic) {
  auto Buf = encodeTrace(makeTrace({{1, true}}));
  Buf[0] = 'X';
  EXPECT_FALSE(decodes(Buf));
}

TEST(TraceFile, RejectsTruncation) {
  auto Buf = encodeTrace(randomTrace(4, 1000, 100));
  Buf.resize(Buf.size() / 2);
  EXPECT_FALSE(decodes(Buf));
}

TEST(TraceFile, RejectsTrailingGarbage) {
  auto Buf = encodeTrace(makeTrace({{1, true}}));
  Buf.push_back(0);
  EXPECT_FALSE(decodes(Buf));
}

TEST(TraceFile, FileRoundTrip) {
  ColumnarTrace T = randomTrace(5, 5000, 50);
  std::string Path = ::testing::TempDir() + "/bpcr_trace_test.bpct";
  ASSERT_TRUE(writeTraceFile(Path, T));
  ColumnarTrace Out;
  std::string Error;
  ASSERT_TRUE(readTraceFileColumnar(Path, Out, Error)) << Error;
  EXPECT_EQ(eventsOf(Out), eventsOf(T));
}

TEST(TraceFile, MissingFileFails) {
  ColumnarTrace Out;
  std::string Error;
  EXPECT_FALSE(readTraceFileColumnar("/nonexistent/dir/x.bpct", Out, Error));
}

TEST(TraceFile, CheckedInTracesReencodeToTheirBytes) {
  // Every checked-in trace decodes, and re-encoding it reproduces the file
  // byte for byte (the encoder is canonical: maximal runs, one group per
  // run). Files named bad_* are decoder crashers that must be rejected.
  unsigned Good = 0, Bad = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(BPCR_TEST_DATA_DIR)) {
    const std::filesystem::path &Path = Entry.path();
    if (Path.extension() != ".bpct")
      continue;
    SCOPED_TRACE(Path.string());
    std::vector<uint8_t> Bytes = readBytes(Path);
    if (Path.filename().string().rfind("bad_", 0) == 0) {
      std::string Error;
      EXPECT_FALSE(decodes(Bytes, Error));
      EXPECT_NE(Error.find("exceeds the decoder limit"), std::string::npos)
          << Error;
      ++Bad;
      continue;
    }
    EXPECT_EQ(encodeTrace(decodeOk(Bytes)), Bytes);
    ++Good;
  }
  EXPECT_GE(Good, 3u);
  EXPECT_GE(Bad, 2u);
}

// -- TraceStats --------------------------------------------------------------

TEST(TraceStats, PerBranchCounts) {
  TraceStats S(3);
  S.addTrace(makeTrace({{0, true}, {0, false}, {1, true}, {0, true}}, 3));
  EXPECT_EQ(S.branch(0).Executions, 3u);
  EXPECT_EQ(S.branch(0).TakenCount, 2u);
  EXPECT_EQ(S.branch(0).notTakenCount(), 1u);
  EXPECT_EQ(S.branch(1).Executions, 1u);
  EXPECT_EQ(S.branch(2).Executions, 0u);
  EXPECT_EQ(S.executedBranches(), 2u);
  EXPECT_EQ(S.totalExecutions(), 4u);
}

TEST(TraceStats, MajorityAndProfileMispredictions) {
  BranchStats B;
  B.Executions = 10;
  B.TakenCount = 7;
  EXPECT_TRUE(B.majorityTaken());
  EXPECT_EQ(B.profileMispredictions(), 3u);
  B.TakenCount = 2;
  EXPECT_FALSE(B.majorityTaken());
  EXPECT_EQ(B.profileMispredictions(), 2u);
  B.TakenCount = 5;
  EXPECT_TRUE(B.majorityTaken()); // ties predict taken
  EXPECT_EQ(B.profileMispredictions(), 5u);
}

TEST(TraceFile, FuzzedBuffersNeverCrash) {
  // Randomly corrupted encodings must be rejected or decoded, never crash
  // or hang; round-trips of the surviving decodes must re-encode cleanly.
  Rng G(77);
  auto Buf = encodeTrace(randomTrace(6, 2000, 64));
  for (int Round = 0; Round < 500; ++Round) {
    auto Corrupt = Buf;
    int Flips = 1 + static_cast<int>(G.below(8));
    for (int F = 0; F < Flips; ++F)
      Corrupt[G.below(Corrupt.size())] ^=
          static_cast<uint8_t>(1u << G.below(8));
    ColumnarTrace Out;
    std::string Error;
    if (decodeTraceColumnar(Corrupt, Out, Error)) {
      // Whatever decoded must re-encode to a decodable buffer.
      EXPECT_EQ(eventsOf(decodeOk(encodeTrace(Out))), eventsOf(Out));
    }
  }
}

TEST(TraceFile, RandomPrefixesNeverCrash) {
  Rng G(78);
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<uint8_t> Junk(G.below(64));
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(G.below(256));
    decodes(Junk); // must simply return false or a valid trace
  }
}

// -- Descriptive decode errors -----------------------------------------------

TEST(TraceFileErrors, BadMagicIsDescribed) {
  auto Buf = encodeTrace(makeTrace({{1, true}}));
  Buf[0] = 'X';
  std::string Error;
  EXPECT_FALSE(decodes(Buf, Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(TraceFileErrors, BadVersionIsDescribed) {
  auto Buf = encodeTrace(makeTrace({{1, true}}));
  Buf[4] = 99; // version byte follows the 4-byte magic
  std::string Error;
  EXPECT_FALSE(decodes(Buf, Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
  EXPECT_NE(Error.find("99"), std::string::npos) << Error;
}

TEST(TraceFileErrors, TruncationIsDescribed) {
  auto Buf = encodeTrace(randomTrace(9, 1000, 100));
  Buf.resize(Buf.size() / 2);
  std::string Error;
  EXPECT_FALSE(decodes(Buf, Error));
  EXPECT_NE(Error.find("truncat"), std::string::npos) << Error;
}

TEST(TraceFileErrors, ShortHeaderIsDescribed) {
  std::vector<uint8_t> Buf = {'B', 'P'};
  std::string Error;
  EXPECT_FALSE(decodes(Buf, Error));
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
}

TEST(TraceFileErrors, TrailingGarbageIsDescribed) {
  auto Buf = encodeTrace(makeTrace({{1, true}}));
  Buf.push_back(0);
  std::string Error;
  EXPECT_FALSE(decodes(Buf, Error));
  EXPECT_NE(Error.find("trailing"), std::string::npos) << Error;
}

TEST(TraceFileErrors, OversizedDeclaredCountIsRejectedUpFront) {
  // A header may declare any count; the decoder must neither reserve for it
  // nor try to decode it. At the limit the count is legal and only the
  // missing groups are an error.
  auto Header = [](uint64_t Count) {
    std::vector<uint8_t> Buf = {'B', 'P', 'C', 'T', 1};
    while (Count >= 0x80) {
      Buf.push_back(static_cast<uint8_t>(Count) | 0x80);
      Count >>= 7;
    }
    Buf.push_back(static_cast<uint8_t>(Count));
    return Buf;
  };
  for (uint64_t Count : {MaxTraceFileEvents + 1, uint64_t{1} << 40,
                         uint64_t{1} << 63, ~uint64_t{0}}) {
    std::string Error;
    EXPECT_FALSE(decodes(Header(Count), Error));
    EXPECT_NE(Error.find("declared event count " + std::to_string(Count) +
                         " exceeds the decoder limit"),
              std::string::npos)
        << Error;
  }
  std::string Error;
  EXPECT_FALSE(decodes(Header(MaxTraceFileEvents), Error));
  EXPECT_NE(Error.find("truncated event group"), std::string::npos) << Error;
}

TEST(TraceFileErrors, RunPastTheDeclaredCountIsDescribed) {
  // After one event, a group claiming a run of 2^64 - 1 must not wrap the
  // running total and slip past the declared count of two.
  std::vector<uint8_t> Buf = {'B', 'P', 'C', 'T', 1, /*count=*/2,
                              /*header=*/0, /*run-1=*/0,
                              /*header=*/0, /*run-1=2^64-2:*/ 0xfe};
  for (int I = 0; I < 8; ++I)
    Buf.push_back(0xff);
  Buf.push_back(0x01);
  std::string Error;
  EXPECT_FALSE(decodes(Buf, Error));
  EXPECT_NE(Error.find("overflows the declared event count 2"),
            std::string::npos)
      << Error;
}

TEST(TraceFileErrors, MissingFileNamesThePath) {
  ColumnarTrace Out;
  std::string Error;
  EXPECT_FALSE(readTraceFileColumnar("/nonexistent/dir/x.bpct", Out, Error));
  EXPECT_NE(Error.find("/nonexistent/dir/x.bpct"), std::string::npos) << Error;
}

TEST(TraceFileErrors, CorruptedFileNamesThePath) {
  std::string Path = ::testing::TempDir() + "/bpcr_trace_corrupt.bpct";
  ColumnarTrace T = randomTrace(10, 500, 20);
  ASSERT_TRUE(writeTraceFile(Path, T));
  // Truncate the file on disk to simulate a torn write.
  {
    std::vector<uint8_t> Buf = encodeTrace(T);
    Buf.resize(Buf.size() / 2);
    FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fwrite(Buf.data(), 1, Buf.size(), F), Buf.size());
    std::fclose(F);
  }
  ColumnarTrace Out;
  std::string Error;
  EXPECT_FALSE(readTraceFileColumnar(Path, Out, Error));
  EXPECT_NE(Error.find(Path), std::string::npos) << Error;
  EXPECT_NE(Error.find("truncat"), std::string::npos) << Error;
}
