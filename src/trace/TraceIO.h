//===- trace/TraceIO.h - Trace (de)serialization -----------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace persistence in two formats: a line-oriented text format for
/// human inspection and goldens, and a compact binary format for large
/// recordings.  Both round-trip every field including transformed-trace
/// side tables (locksets, constraints, lock schedule).
///
/// The paper separates trace loading and format conversion from the
/// measured replay time (Section 6.1); keeping I/O in its own module
/// mirrors that separation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRACE_TRACEIO_H
#define PERFPLAY_TRACE_TRACEIO_H

#include "support/Expected.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfplay {

/// Serializes \p Tr into the text format.
std::string writeTraceText(const Trace &Tr);

/// Parses the text format.  On failure returns false and sets \p Err.
bool parseTraceText(const std::string &Text, Trace &Out, std::string &Err);

/// Serializes \p Tr into the binary format.
std::vector<uint8_t> writeTraceBinary(const Trace &Tr);

/// Parses the binary format from a borrowed buffer: \p Data may point
/// into a read-only file mapping (support/MappedFile.h) and is never
/// modified or retained — the parsed Trace owns all of its storage.
/// Every table count in the header is validated against the remaining
/// byte budget before anything is allocated, so a truncated or hostile
/// file fails with a "count exceeds file size" diagnostic instead of
/// attempting a multi-gigabyte allocation.  On failure returns false
/// and sets \p Err.
bool parseTraceBinary(const uint8_t *Data, size_t Size, Trace &Out,
                      std::string &Err);

/// Parses the binary format.  On failure returns false and sets \p Err.
bool parseTraceBinary(const std::vector<uint8_t> &Bytes, Trace &Out,
                      std::string &Err);

/// On-disk trace encodings.
enum class TraceFormat {
  /// Line-oriented, human-readable; slow to parse at scale.
  Text,
  /// Compact little-endian binary for production-scale traces.
  Binary,
  /// Chunked delta-varint binary (trace/TraceV3.h): parallel full
  /// load and bounded-memory streaming via the footer's chunk
  /// directory.
  V3,
};

/// Parses \p Data in any trace format — the single format sniffer.
/// Neither binary magic is valid text-format prose, so the first
/// eight bytes decide: binary and v3 parse straight out of the
/// borrowed buffer, text is copied once into the line parser's working
/// string.  \p Format, when non-null, receives the sniffed format
/// (also on a parse failure).
bool parseTraceBuffer(const uint8_t *Data, size_t Size, Trace &Out,
                      std::string &Err, TraceFormat *Format = nullptr);

/// Writes \p Tr to \p Path in \p Format.  Returns false on I/O error.
/// All formats are recognized back by loadTrace.
bool saveTrace(const Trace &Tr, const std::string &Path, std::string &Err,
               TraceFormat Format = TraceFormat::Text);

/// Reads the trace at \p Path through parseTraceBuffer.  A regular
/// file is memory-mapped for the parse; a pipe or FIFO (/dev/stdin fed
/// by `cat`) is read to EOF.  The mapping is released before this
/// returns, and the Trace owns every name it holds.  Open and read
/// failures (a missing file, a directory, a device, EIO) name \p Path;
/// parse failures carry the parser's diagnostic.  \p Format, when
/// non-null, receives the sniffed format of a file that could be read.
bool loadTrace(const std::string &Path, Trace &Out, std::string &Err,
               TraceFormat *Format = nullptr);

/// Typed-error variant of loadTrace for the staged Engine API: the
/// parsed trace, or a PipelineError with ErrorCode::TraceIOFailed
/// carrying the loader diagnostic.
Expected<Trace> readTraceFile(const std::string &Path);

} // namespace perfplay

#endif // PERFPLAY_TRACE_TRACEIO_H
