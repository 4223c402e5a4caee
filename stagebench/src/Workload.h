//===- Workload.h - One benchmark workload ------------------------*- C++ -*-===//
///
/// \file
/// A workload builds its inputs from the seed, then runs ops in a
/// closed loop: one client, the next op starts when the previous one
/// returned.  Every op checks its own outputs; an op that errors or
/// disagrees with the reference is a failed op, not an exception.
///
//===----------------------------------------------------------------------===//

#ifndef STAGEBENCH_WORKLOAD_H
#define STAGEBENCH_WORKLOAD_H

#include "Tracer.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

namespace stagebench {

/// The outcome of one timed op.
struct OpSample {
  double LatencyMs = 0;
  /// Why the op failed: a returned error or a failed correctness
  /// check.  Empty for an op that succeeded.
  std::string Error;
  /// True when a result cache answered the op (serve-zipf); latency
  /// metrics of such workloads are split on this flag.
  bool CacheHit = false;
  /// CPU time of the op (user + system, ms).  An op that runs child
  /// processes sets it from their wait4; for an in-process op it stays
  /// negative and the runner fills in this process's CPU across the op.
  double CpuMs = -1;
  /// Peak resident set of an op run as a child process, in MB;
  /// negative for in-process ops, whose peak the runner takes.
  double PeakRssMb = -1;

  bool ok() const { return Error.empty(); }
};

/// Per-layer values by metric name (see Runner.cpp for the full list).
using LayerValues = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  /// Writes the inputs under \p WorkDir (an existing, empty directory)
  /// from \p Seed, starts whatever must stay resident, and runs one
  /// warm-up op whose outputs become the reference for every later
  /// op's check.  Throws std::runtime_error when that is impossible.
  virtual void setup(const std::string &WorkDir, uint64_t Seed) = 0;

  /// Runs timed op number \p Op.  \p T is null in untraced runs.
  virtual OpSample runOp(uint64_t Op, Tracer *T) = 0;

  /// True when the ops are served by a process that stays resident
  /// across them (a daemon).  The runner then leaves its heap alone
  /// between ops and reports the peak resident set over the whole
  /// loop; otherwise each op starts from a trimmed heap and reports
  /// its own peak, as a fresh process per op would.
  virtual bool resident() const { return false; }

  /// The timed loop only stops after a multiple of this many ops, so
  /// every input of a round-robin workload appears equally often.
  virtual unsigned roundSize() const { return 1; }

  /// Adds the per-layer values only this workload can measure, after
  /// \p Ops timed ops traced by \p T.  \p Traced is false in untraced
  /// runs, where the values are only printed.
  virtual void layerValues(const Tracer &T, size_t Ops, bool Traced,
                           LayerValues &Out) {
    (void)T;
    (void)Ops;
    (void)Traced;
    (void)Out;
  }

  /// Prints workload-specific context lines (inputs, sample splits).
  virtual void describe(std::FILE *Out) const { (void)Out; }

  /// Stops resident parts (daemons) before the workload is destroyed.
  virtual void teardown() {}
};

/// Creates the workload called \p Name (one of workloadNames()).
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

std::unique_ptr<Workload> makeAnalyzePaper();
std::unique_ptr<Workload> makeAnalyzeRaces();
std::unique_ptr<Workload> makeDetectLarge();
std::unique_ptr<Workload> makeRecordLockheavy();
std::unique_ptr<Workload> makeServeZipf();

} // namespace stagebench

#endif // STAGEBENCH_WORKLOAD_H
