//===- trace/TraceFile.cpp ------------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Format:
//   magic "BPCT", u8 version (1), varint event count, then event groups.
//   Each group: varint header = (zigzag(id - prevId) << 1 | taken), then
//   varint runLength - 1 for how many additional times the identical event
//   repeats. Id deltas keep hot loops (which alternate among nearby ids)
//   to one byte per group; runs collapse long streaks of a loop branch.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFile.h"

#include "trace/ColumnarTrace.h"

#include <cstdio>

using namespace bpcr;

namespace {

void putVarint(std::vector<uint8_t> &Buf, uint64_t V) {
  while (V >= 0x80) {
    Buf.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Buf.push_back(static_cast<uint8_t>(V));
}

bool getVarint(const std::vector<uint8_t> &Buf, size_t &Pos, uint64_t &V) {
  V = 0;
  unsigned Shift = 0;
  while (Pos < Buf.size()) {
    uint8_t B = Buf[Pos++];
    if (Shift >= 63 && (B & 0x7f) > 1)
      return false; // overflow
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80))
      return true;
    Shift += 7;
  }
  return false; // truncated
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

constexpr uint8_t Magic[4] = {'B', 'P', 'C', 'T'};
constexpr uint8_t Version = 1;

} // namespace

std::vector<uint8_t> bpcr::encodeTrace(const ColumnarTrace &CT) {
  const size_t N = CT.size();
  std::vector<uint8_t> Buf;
  Buf.reserve(16 + N / 2);
  for (uint8_t B : Magic)
    Buf.push_back(B);
  Buf.push_back(Version);
  putVarint(Buf, N);

  const int32_t *Ids = CT.ids().data();
  const BitstreamView Dirs = CT.directions();
  int32_t PrevId = 0;
  size_t I = 0;
  while (I < N) {
    const int32_t Id = Ids[I];
    const bool Taken = Dirs.bit(I);
    size_t Run = 1;
    while (I + Run < N && Ids[I + Run] == Id && Dirs.bit(I + Run) == Taken)
      ++Run;
    uint64_t Header =
        (zigzag(static_cast<int64_t>(Id) - PrevId) << 1) | (Taken ? 1 : 0);
    putVarint(Buf, Header);
    putVarint(Buf, Run - 1);
    PrevId = Id;
    I += Run;
  }
  return Buf;
}

bool bpcr::decodeTraceColumnar(const std::vector<uint8_t> &Buf,
                               ColumnarTrace &Out, std::string &Error) {
  Out.clear();
  Error.clear();
  auto Fail = [&Error](std::string Msg) {
    Error = std::move(Msg);
    return false;
  };

  if (Buf.size() < 5)
    return Fail("trace header truncated: " + std::to_string(Buf.size()) +
                " bytes, need at least 5 (magic + version)");
  for (int I = 0; I < 4; ++I)
    if (Buf[I] != Magic[I])
      return Fail("bad magic: not a BPCT trace file");
  if (Buf[4] != Version)
    return Fail("unsupported trace version " + std::to_string(Buf[4]) +
                " (expected " + std::to_string(Version) + ")");

  size_t Pos = 5;
  uint64_t Count = 0;
  if (!getVarint(Buf, Pos, Count))
    return Fail("truncated or overlong varint in event count at byte " +
                std::to_string(Pos));
  // The header's count is untrusted: it only bounds the decode, and the
  // columns grow with the groups actually present.
  if (Count > MaxTraceFileEvents)
    return Fail("declared event count " + std::to_string(Count) +
                " exceeds the decoder limit of " +
                std::to_string(MaxTraceFileEvents) + " events");

  int64_t PrevId = 0;
  uint64_t Decoded = 0;
  while (Decoded < Count) {
    size_t GroupStart = Pos;
    uint64_t Header = 0, RunMinus1 = 0;
    if (!getVarint(Buf, Pos, Header) || !getVarint(Buf, Pos, RunMinus1))
      return Fail("truncated event group at byte " +
                  std::to_string(GroupStart) + " (decoded " +
                  std::to_string(Decoded) + " of " +
                  std::to_string(Count) + " events)");
    bool Taken = Header & 1;
    int64_t Id = PrevId + unzigzag(Header >> 1);
    if (Id < 0 || Id > INT32_MAX)
      return Fail("branch id " + std::to_string(Id) +
                  " out of range at byte " + std::to_string(GroupStart));
    uint64_t Run = RunMinus1 + 1;
    if (Run > Count - Decoded)
      return Fail("run of " + std::to_string(Run) +
                  " events at byte " + std::to_string(GroupStart) +
                  " overflows the declared event count " +
                  std::to_string(Count));
    Out.appendRun(static_cast<int32_t>(Id), Taken, Run);
    Decoded += Run;
    PrevId = Id;
  }
  if (Pos != Buf.size())
    return Fail(std::to_string(Buf.size() - Pos) +
                " trailing bytes after the last event");
  return true;
}

bool bpcr::writeTraceFile(const std::string &Path, const ColumnarTrace &CT) {
  std::vector<uint8_t> Buf = encodeTrace(CT);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Buf.data(), 1, Buf.size(), F);
  bool Ok = Written == Buf.size();
  Ok &= std::fclose(F) == 0;
  return Ok;
}

namespace {

bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Buf,
                   std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  uint8_t Chunk[65536];
  size_t N;
  while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Buf.insert(Buf.end(), Chunk, Chunk + N);
  bool ReadError = std::ferror(F) != 0;
  std::fclose(F);
  if (ReadError) {
    Error = "I/O error reading '" + Path + "'";
    return false;
  }
  return true;
}

} // namespace

bool bpcr::readTraceFileColumnar(const std::string &Path, ColumnarTrace &Out,
                                 std::string &Error) {
  std::vector<uint8_t> Buf;
  if (!readFileBytes(Path, Buf, Error))
    return false;
  if (!decodeTraceColumnar(Buf, Out, Error)) {
    Error = "'" + Path + "': " + Error;
    return false;
  }
  return true;
}
