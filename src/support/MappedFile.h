//===- support/MappedFile.h - Read-only view of a file's bytes ---*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An RAII read-only view of a file's bytes.  open() decides by fstat
/// of the opened descriptor: a regular file is mmap'd (the parser
/// reads straight out of the page cache, with no whole-file copy); a
/// pipe or FIFO (say /dev/stdin fed by `cat`) is read to EOF into an
/// owned buffer.  Callers get the same data()/size() contract either
/// way.  A read that fails (EISDIR, EIO) is an open() error naming the
/// path, never a short view, and so is a device or socket: /dev/zero
/// has no end to read to.
///
/// Caveat inherent to mmap: if another process truncates the file
/// while a mapping is live, touching pages past the new end raises
/// SIGBUS.  The trace loader (trace/TraceIO.h) keeps the mapping only
/// for the duration of one parse and then owns every byte it kept, and
/// the recorder never truncates a trace in place (it writes
/// `<out>.tmp` and renames it over the target), so the window is one
/// parse of a file someone else rewrites in place.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_MAPPEDFILE_H
#define PERFPLAY_SUPPORT_MAPPEDFILE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfplay {

/// Read-only bytes of one file: mapped when it is a regular file, read
/// when it is a pipe or FIFO.  Movable, not copyable; the view dies
/// with the object.
class MappedFile {
public:
  MappedFile() = default;
  ~MappedFile() { close(); }

  MappedFile(MappedFile &&Other) noexcept { *this = std::move(Other); }
  MappedFile &operator=(MappedFile &&Other) noexcept;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;

  /// Opens \p Path once and makes its bytes addressable.  On failure
  /// returns false, sets \p Err (naming \p Path), and leaves the
  /// object closed.  Reopening an already-open object closes the
  /// previous view first.
  bool open(const std::string &Path, std::string &Err);

  /// Releases the mapping (or read buffer).  Idempotent.
  void close();

  /// First byte of the file; nullptr when closed or the file is empty.
  const uint8_t *data() const { return Data; }
  size_t size() const { return Size; }

  /// True when data() points into a real mmap (not the read buffer).
  bool isMapped() const { return Mapped; }

private:
  const uint8_t *Data = nullptr;
  size_t Size = 0;
  bool Mapped = false;
  /// Owns the bytes of anything that is not mapped.
  std::vector<uint8_t> Buffer;
};

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_MAPPEDFILE_H
