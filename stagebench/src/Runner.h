//===- Runner.h - Set-up, timed loop and report -------------------*- C++ -*-===//

#ifndef STAGEBENCH_RUNNER_H
#define STAGEBENCH_RUNNER_H

#include "Options.h"
#include "Stats.h"
#include "Workload.h"

#include <cstdio>
#include <string>
#include <vector>

namespace stagebench {

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupRepetitions = 3;

/// The end-to-end figures of one timed loop.
struct LoopSummary {
  size_t Attempted = 0;
  size_t Failed = 0;
  /// The first failed op's diagnostic.
  std::string FirstError;
  double ThroughputPerS = 0;
  double LatencyP50Ms = 0;
  /// Over the same samples as LatencyP50Ms.
  TailPick LatencyTail;
  /// Samples behind LatencyP50Ms / MissLatencyP50Ms.
  size_t LatencySamples = 0;
  size_t MissSamples = 0;
  double MissLatencyP50Ms = 0;
  double CpuMsPerOp = 0;
  /// The highest peak resident set the ops carried; 0 when none did.
  double PeakRssMb = 0;
};

/// Reduces the samples of one loop.  When any op was answered from a
/// cache, the latency figures cover those hits and the miss figure the
/// rest, so no percentile spans two cost modes; otherwise both cover
/// every op.  Throughput is ops per second of op time, which leaves
/// the benchmark's own checking out; CPU per op is the mean of the
/// ops' own CPU.  Peak memory is taken over the ops, not the process
/// lifetime: glibc keeps freed arena memory resident, so a lifetime
/// peak grows with the number of ops a run happens to fit.
LoopSummary summarizeLoop(const std::vector<OpSample> &Samples);

/// Multiplies every op's latency and CPU time by \p Factor: the
/// HostSpeed factor that turns times measured on this host into
/// reference-host times.
void scaleTimes(std::vector<OpSample> &Samples, double Factor);

/// Runs \p Opts.Workload end to end and prints the report; the last
/// line of \p Out is the one-line JSON result.  Returns the exit code:
/// 0 when the run completed (failed ops are reported, not fatal), 1
/// when set-up or an op could not run at all.
int runBenchmark(const Options &Opts, std::FILE *Out);

} // namespace stagebench

#endif // STAGEBENCH_RUNNER_H
