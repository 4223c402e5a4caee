//===- support/MappedFile.cpp - Read-only view of a file's bytes ------------===//

#include "support/MappedFile.h"

#include <cerrno>
#include <cstdio>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace perfplay;

/// Thread-safe description of \p Errno (strerror may share a buffer
/// across threads, and batch workers open files concurrently).
static std::string errnoText(int Errno) {
  return std::error_code(Errno, std::generic_category()).message();
}

MappedFile &MappedFile::operator=(MappedFile &&Other) noexcept {
  if (this == &Other)
    return *this;
  close();
  Buffer = std::move(Other.Buffer);
  Data = Other.Data;
  Size = Other.Size;
  Mapped = Other.Mapped;
  Other.Data = nullptr;
  Other.Size = 0;
  Other.Mapped = false;
  Other.Buffer.clear();
  return *this;
}

void MappedFile::close() {
  if (Mapped)
    ::munmap(const_cast<uint8_t *>(Data), Size);
  Data = nullptr;
  Size = 0;
  Mapped = false;
  Buffer.clear();
  Buffer.shrink_to_fit();
}

/// Reads the open descriptor \p Fd to EOF into \p Out, then closes it.
/// A failed read (EISDIR on a directory, EIO mid-file) is an error
/// naming \p Path, not a short buffer.
static bool readWhole(int Fd, const std::string &Path,
                      std::vector<uint8_t> &Out, std::string &Err) {
  FILE *F = ::fdopen(Fd, "rb");
  if (!F) {
    Err = "cannot read '" + Path + "': " + errnoText(errno);
    ::close(Fd);
    return false;
  }
  char Buf[1 << 16];
  for (;;) {
    size_t N = std::fread(Buf, 1, sizeof(Buf), F);
    Out.insert(Out.end(), Buf, Buf + N);
    if (N < sizeof(Buf))
      break;
  }
  const bool ReadError = std::ferror(F) != 0;
  const int ReadErrno = errno;
  std::fclose(F);
  if (ReadError) {
    Err = "read error on '" + Path + "': " + errnoText(ReadErrno);
    Out.clear();
    return false;
  }
  return true;
}

bool MappedFile::open(const std::string &Path, std::string &Err) {
  close();
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Err = "cannot open '" + Path + "' for reading: " + errnoText(errno);
    return false;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    Err = "cannot stat '" + Path + "': " + errnoText(errno);
    ::close(Fd);
    return false;
  }
  // A regular file is mapped; an empty one is an empty view (mmap
  // rejects zero-length maps).  A pipe or FIFO has no size to map and
  // is read to EOF through the same descriptor, so a FIFO's read end
  // is opened exactly once; so is a regular file on a mount that
  // refuses mmap.  A directory is read too, so the read reports
  // EISDIR.  Devices and sockets are refused: /dev/zero never reaches
  // EOF, and reading it would grow the buffer without bound.
  if (S_ISREG(St.st_mode)) {
    if (St.st_size == 0) {
      ::close(Fd);
      return true;
    }
    const size_t Len = static_cast<size_t>(St.st_size);
    void *Map = ::mmap(nullptr, Len, PROT_READ, MAP_PRIVATE, Fd, 0);
    if (Map != MAP_FAILED) {
      ::close(Fd); // The mapping holds its own reference to the file.
      Data = static_cast<const uint8_t *>(Map);
      Size = Len;
      Mapped = true;
      // Parsers walk the file front to back; tell the kernel to read
      // ahead.
      ::madvise(Map, Size, MADV_SEQUENTIAL);
      return true;
    }
  } else if (!S_ISFIFO(St.st_mode) && !S_ISDIR(St.st_mode)) {
    Err = "cannot read '" + Path + "': not a regular file or pipe";
    ::close(Fd);
    return false;
  }
  if (!readWhole(Fd, Path, Buffer, Err))
    return false;
  Data = Buffer.empty() ? nullptr : Buffer.data();
  Size = Buffer.size();
  return true;
}
