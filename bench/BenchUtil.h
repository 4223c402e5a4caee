//===- bench/BenchUtil.h - Shared bench helpers ------------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure regeneration binaries: paper
/// reference values (for side-by-side printing), app lookup, the
/// common detect/transform/replay pipeline invocation, and the spin
/// probe that measures how much parallelism the host really delivers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_BENCH_BENCHUTIL_H
#define PERFPLAY_BENCH_BENCHUTIL_H

#include "core/PerfPlay.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace perfplay {
namespace bench {

/// Table 1 reference row from the paper (unscaled).
struct Table1Row {
  const char *Name;
  uint64_t Locks;
  uint64_t NL;
  uint64_t RR;
  uint64_t DW;
  uint64_t Benign;
};

/// The paper's Table 1, in order.
inline const Table1Row PaperTable1[16] = {
    {"openldap", 1851, 75, 1414, 473, 15},
    {"mysql", 2109, 125, 9822, 2924, 194},
    {"pbzip2", 1281, 2, 1047, 838, 51},
    {"transmissionBT", 352, 15, 111, 123, 29},
    {"handbrake", 18316, 10, 1536, 1143, 189},
    {"blackscholes", 0, 0, 0, 0, 0},
    {"bodytrack", 32642, 0, 1322, 321, 43},
    {"canneal", 34, 0, 0, 0, 0},
    {"dedup", 19352, 231, 2421, 1952, 164},
    {"facesim", 14541, 102, 871, 819, 12},
    {"ferret", 6231, 11, 101, 231, 343},
    {"fluidanimate", 82142, 2, 10501, 6694, 197},
    {"streamcluster", 191, 0, 0, 0, 0},
    {"swaptions", 23, 0, 0, 0, 0},
    {"vips", 33586, 142, 4512, 1142, 26},
    {"x264", 16767, 941, 3841, 412, 84},
};

/// Table 2 reference (grouped ULCPs and best-group share).
struct Table2Row {
  const char *Name;
  unsigned GroupedUlcps;
  double BestP; // ULCP_1.P
};

inline const Table2Row PaperTable2[10] = {
    {"openldap", 18, 0.301},   {"mysql", 57, 0.125},
    {"pbzip2", 4, 0.594},      {"transmissionBT", 2, 0.535},
    {"handbrake", 29, 0.154},  {"blackscholes", 0, 0.0},
    {"bodytrack", 5, 0.209},   {"facesim", 11, 0.312},
    {"fluidanimate", 3, 0.265}, {"swaptions", 0, 0.0},
};

/// Table 3 reference (lockset overhead w/o and w/ DLS).
struct Table3Row {
  const char *Name;
  double WithoutDls;
  double WithDls;
};

inline const Table3Row PaperTable3[11] = {
    {"blackscholes", 0.0, 0.0}, {"bodytrack", 0.053, 0.005},
    {"canneal", 0.002, 0.002},  {"dedup", 0.046, 0.007},
    {"facesim", 0.078, 0.012},  {"ferret", 0.107, 0.036},
    {"fluidanimate", 0.141, 0.043}, {"streamcluster", 0.029, 0.006},
    {"swaptions", 0.004, 0.004}, {"vips", 0.076, 0.024},
    {"x264", 0.050, 0.019},
};

/// Finds an application model by name (the paper's sixteen plus the
/// synthetic corpora); returns nullptr if unknown.
inline const AppModel *findApp(const std::string &Name) {
  for (const AppModel &App : allApps())
    if (App.Name == Name)
      return &App;
  for (const AppModel &App : syntheticApps())
    if (App.Name == Name)
      return &App;
  return nullptr;
}

/// Runs the full pipeline over an app model.
inline PipelineResult runAppPipeline(const AppModel &App, unsigned Threads,
                                     double Scale,
                                     PairModeKind Mode =
                                         PairModeKind::AdjacentCrossThread) {
  Trace Tr = generateWorkload(App.Factory(Threads, Scale));
  PipelineOptions Opts;
  Opts.Detect.PairMode = Mode;
  return runPerfPlay(std::move(Tr), Opts);
}

/// \p Iters dependent xorshift steps: spin work the compiler cannot
/// fold or vectorize.
inline uint64_t spinSteps(uint64_t Iters) {
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  for (uint64_t I = 0; I != Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  return X;
}

/// How many threads this host actually runs at once, measured rather
/// than trusted: std::thread::hardware_concurrency() counts the CPUs
/// the OS exposes, not what a shared or throttled VM delivers.  The
/// probe calibrates a spin of about 20 ms on one thread, then
/// times N threads spinning that amount each at once, and returns
/// N x (one-thread time / N-thread time), the median of three rounds
/// (a quiet moment on a shared host must not pass for its capacity).
/// N is hardware_concurrency(), at most 64.  A parallel-speedup gate over
/// W workers is meaningful only when the result is at least W.  Costs
/// about 3 x (1 + N / result) x 20 ms of wall time.
inline double effectiveParallelism() {
  using Clock = std::chrono::steady_clock;
  const double SliceMs = 20.0;
  const unsigned N =
      std::clamp(std::thread::hardware_concurrency(), 1u, 64u);
  std::atomic<uint64_t> Sink{0};
  auto timeSpin = [&Sink](uint64_t Iters) {
    auto T0 = Clock::now();
    Sink.fetch_xor(spinSteps(Iters), std::memory_order_relaxed);
    return std::chrono::duration<double, std::milli>(Clock::now() - T0)
        .count();
  };
  uint64_t Iters = 1 << 16;
  while (timeSpin(Iters) < SliceMs)
    Iters *= 2;
  double Rounds[3];
  for (double &Round : Rounds) {
    const double One = timeSpin(Iters);
    auto T0 = Clock::now();
    std::vector<std::thread> Spinners;
    for (unsigned I = 0; I != N; ++I)
      Spinners.emplace_back([&] { timeSpin(Iters); });
    for (std::thread &T : Spinners)
      T.join();
    const double All =
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
    Round = N * One / All;
  }
  std::sort(std::begin(Rounds), std::end(Rounds));
  return std::min(Rounds[1], static_cast<double>(N));
}

} // namespace bench
} // namespace perfplay

#endif // PERFPLAY_BENCH_BENCHUTIL_H
