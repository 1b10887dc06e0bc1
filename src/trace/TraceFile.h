//===- trace/TraceFile.h - Compressed trace serialization -------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact binary trace encoding (varint branch-id deltas plus run-length
/// coding of repeated events). The paper notes that "in compressed form a
/// trace of 5 million branches occupies about [a] MB"; this format achieves
/// the same order of density on the synthetic workloads.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TRACE_TRACEFILE_H
#define BPCR_TRACE_TRACEFILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace bpcr {

class ColumnarTrace;

/// Largest event count a trace file may declare. Decoding materializes
/// every event into the columns (about 4.1 bytes per event), so this caps a
/// decode at roughly 1.1 GiB while still admitting runs 268 times longer
/// than the paper's 1M-event traces. Larger declarations are rejected with
/// a diagnostic before any event is decoded.
constexpr uint64_t MaxTraceFileEvents = uint64_t{1} << 28;

/// Encodes \p CT into the compact binary format.
std::vector<uint8_t> encodeTrace(const ColumnarTrace &CT);

/// Decodes a buffer produced by encodeTrace. Run-length groups become
/// appendRun calls, and the columns grow only as groups are decoded.
/// \param[out] Out receives the decoded events (unfinalized).
/// \param[out] Error describes the failure (bad magic, unsupported
///             version, truncation, corrupt varint, declared count above
///             MaxTraceFileEvents, ...) with its byte offset where
///             applicable.
/// \returns false if the buffer is truncated or malformed.
bool decodeTraceColumnar(const std::vector<uint8_t> &Buf, ColumnarTrace &Out,
                         std::string &Error);

/// Writes \p CT to \p Path. \returns false on I/O failure.
bool writeTraceFile(const std::string &Path, const ColumnarTrace &CT);

/// Reads a trace from \p Path. \returns false on I/O or format failure
/// with \p Error describing it.
bool readTraceFileColumnar(const std::string &Path, ColumnarTrace &Out,
                           std::string &Error);

} // namespace bpcr

#endif // BPCR_TRACE_TRACEFILE_H
