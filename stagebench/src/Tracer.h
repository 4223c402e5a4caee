//===- Tracer.h - In-memory spans around public calls ------------*- C++ -*-===//
///
/// \file
/// The traced run's span recorder.  The benchmark wraps each public
/// PerfPlay call it makes (openSessionFromFile, ensureRecorded, ...,
/// a daemon request) in a span; spans of one op share the op's id and
/// nest under the op's own span.  Spans stay in memory and are written
/// out once the run ends, so recording one costs two clock reads and a
/// vector append.  Untraced runs pass a null Tracer and record nothing.
///
//===----------------------------------------------------------------------===//

#ifndef STAGEBENCH_TRACER_H
#define STAGEBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stagebench {

struct Span {
  /// Static string: a metric name such as "detect.detect_ms", or "op".
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span, -1 for an op's root span.
  int32_t Parent = -1;
  uint64_t Op = 0;
};

/// Monotonic nanoseconds (steady_clock).
int64_t nowNs();

class Tracer {
public:
  /// Opens a span nested in the innermost open one; returns its index.
  int32_t begin(const char *Name, uint64_t Op);
  /// Closes span \p Id (must be the innermost open span).
  void end(int32_t Id);

  /// Adds \p Value to the per-op counter \p Name.
  void count(const char *Name, double Value) { Counts[Name] += Value; }

  const std::vector<Span> &spans() const { return Spans; }

  /// Total duration of spans named \p Name, in milliseconds.
  double totalMs(const std::string &Name) const;
  /// Summed self time (duration minus the part covered by child
  /// spans) of spans named \p Name, in milliseconds.
  double selfMs(const std::string &Name) const;
  /// Accumulated value of counter \p Name (0 when never counted).
  double counter(const std::string &Name) const;

  /// Writes one tab-separated line per span (id, parent, op, name,
  /// start and end relative to the first span, self time).
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  std::map<std::string, double> Counts;
};

/// RAII span; a no-op when the tracer is null.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, uint64_t Op)
      : T(T), Id(T ? T->begin(Name, Op) : -1) {}
  ~SpanScope() {
    if (T)
      T->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
  int32_t Id;
};

} // namespace stagebench

#endif // STAGEBENCH_TRACER_H
