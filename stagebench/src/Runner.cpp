//===- Runner.cpp - Set-up, timed loop and report -------------------------===//

#include "Runner.h"

#include "HostSpeed.h"

#include <algorithm>
#include <cstring>
#include <fcntl.h>
#include <malloc.h>
#include <atomic>
#include <filesystem>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

namespace stagebench {

namespace fs = std::filesystem;

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "analyze-paper")
    return makeAnalyzePaper();
  if (Name == "analyze-races")
    return makeAnalyzeRaces();
  if (Name == "detect-large")
    return makeDetectLarge();
  if (Name == "record-lockheavy")
    return makeRecordLockheavy();
  if (Name == "serve-zipf")
    return makeServeZipf();
  return nullptr;
}

LoopSummary summarizeLoop(const std::vector<OpSample> &Samples) {
  LoopSummary L;
  L.Attempted = Samples.size();
  bool AnyHit = std::any_of(Samples.begin(), Samples.end(),
                            [](const OpSample &S) { return S.CacheHit; });
  std::vector<double> Lat, Miss;
  double BusyMs = 0, CpuMs = 0;
  for (const OpSample &S : Samples) {
    if (!S.ok() && L.Failed++ == 0)
      L.FirstError = S.Error;
    BusyMs += S.LatencyMs;
    CpuMs += std::max(0.0, S.CpuMs);
    L.PeakRssMb = std::max(L.PeakRssMb, S.PeakRssMb);
    if (!AnyHit || S.CacheHit)
      Lat.push_back(S.LatencyMs);
    if (!AnyHit || !S.CacheHit)
      Miss.push_back(S.LatencyMs);
  }
  if (Samples.empty())
    return L;
  L.ThroughputPerS = BusyMs > 0 ? Samples.size() / (BusyMs / 1e3) : 0;
  L.LatencySamples = Lat.size();
  L.LatencyP50Ms = median(Lat);
  L.LatencyTail = tailPercentile(Lat);
  L.MissSamples = Miss.size();
  L.MissLatencyP50Ms = median(Miss);
  L.CpuMsPerOp = CpuMs / Samples.size();
  return L;
}

void scaleTimes(std::vector<OpSample> &Samples, double Factor) {
  for (OpSample &S : Samples) {
    S.LatencyMs *= Factor;
    S.CpuMs *= Factor;
  }
}

static double cpuMs(const rusage &U) {
  return (U.ru_utime.tv_sec + U.ru_stime.tv_sec) * 1e3 +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e3;
}

static double selfCpuMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return cpuMs(U);
}

/// Resets this process's resident high-water mark (VmHWM) to its
/// current resident set.  False where the kernel does not support it.
static bool resetPeakRss() {
  int Fd = open("/proc/self/clear_refs", O_WRONLY);
  if (Fd < 0)
    return false;
  bool Ok = write(Fd, "5", 1) == 1;
  close(Fd);
  return Ok;
}

/// This process's resident high-water mark in MB (-1 if unknown).
static double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return -1;
  char Line[256];
  double Mb = -1;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Mb = std::strtod(Line + 6, nullptr) / 1024;
  std::fclose(F);
  return Mb;
}

/// Lifetime peak of this process or of any child it waited for; the
/// fallback where per-op peaks are unavailable.
static double lifetimePeakRssMb() {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  return std::max(Self.ru_maxrss, Kids.ru_maxrss) / 1024.0;
}

/// Effective parallelism the host delivers right now: N threads each
/// spin the same fixed loop; N x (one thread's time) / (N threads'
/// time).  Context for the reader, never a gated metric.  \p OneMs
/// receives the single thread's time.
static double spinProbe(unsigned Threads, double &OneMs) {
  auto Spin = [] {
    volatile uint64_t Sink = 0;
    uint64_t X = 1;
    for (uint64_t I = 0; I < 20'000'000; ++I)
      X = X * 6364136223846793005ull + 1442695040888963407ull;
    Sink = X;
    (void)Sink;
  };
  int64_t T0 = nowNs();
  Spin();
  int64_t One = nowNs() - T0;
  OneMs = One / 1e6;
  T0 = nowNs();
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < Threads; ++I)
    Pool.emplace_back(Spin);
  for (std::thread &T : Pool)
    T.join();
  int64_t All = nowNs() - T0;
  return All > 0 ? static_cast<double>(Threads) * One / All : 0;
}

namespace {

struct Metric {
  const char *Name;
  const char *Unit;
  double Value;
};

/// Per-layer metrics: name, unit, and how the traced run derives them:
/// mean span time per op, mean counter value per op, or a value the
/// runner or the workload computes.
enum class Source { SpanMs, CounterPerOp, Computed };
struct LayerDef {
  const char *Name;
  const char *Unit;
  Source From;
};

const LayerDef LayerDefs[] = {
    {"trace.load_ms", "ms", Source::SpanMs},
    {"trace.bytes", "bytes", Source::CounterPerOp},
    {"sim.record_ms", "ms", Source::SpanMs},
    {"detect.csindex_ms", "ms", Source::SpanMs},
    {"detect.detect_ms", "ms", Source::SpanMs},
    {"detect.windowed_ms", "ms", Source::SpanMs},
    {"detect.section_keys", "count", Source::CounterPerOp},
    {"detect.classified", "count", Source::CounterPerOp},
    {"detect.pairs", "count", Source::CounterPerOp},
    {"detect.classify_ratio", "ratio", Source::Computed},
    {"transform.transform_ms", "ms", Source::SpanMs},
    {"transform.aux_locks", "count", Source::CounterPerOp},
    {"transform.standalone", "count", Source::CounterPerOp},
    {"transform.races_ms", "ms", Source::SpanMs},
    {"transform.races", "count", Source::CounterPerOp},
    {"sim.replay_orig_ms", "ms", Source::SpanMs},
    {"sim.replay_free_ms", "ms", Source::SpanMs},
    {"debug.report_ms", "ms", Source::SpanMs},
    {"core.untimed_ms", "ms", Source::Computed},
    {"record.run_ms", "ms", Source::Computed},
    {"record.baseline_run_ms", "ms", Source::Computed},
    {"record.slowdown_x", "x", Source::Computed},
    {"record.ns_per_call", "ns", Source::Computed},
    {"record.finalize_ms", "ms", Source::Computed},
    {"record.attempts", "count", Source::Computed},
    {"record.records", "count", Source::Computed},
    {"record.drops", "count", Source::Computed},
    {"record.record_ratio", "ratio", Source::Computed},
    {"record.trace_bytes", "bytes", Source::Computed},
    {"record.saturated_drop_ratio", "ratio", Source::Computed},
    {"serve.hit_p50_ms", "ms", Source::Computed},
    {"serve.daemon_p50_us", "us", Source::Computed},
    {"serve.result_hit_ratio", "ratio", Source::Computed},
    {"serve.trace_hit_ratio", "ratio", Source::Computed},
    {"serve.evictions", "count", Source::Computed},
    {"serve.rejected", "count", Source::Computed},
};

/// Removes the run's scratch directory however the run ends.
struct WorkDirGuard {
  fs::path Dir;
  ~WorkDirGuard() {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
};

void printJson(std::FILE *Out, const LoopSummary &L,
               const std::vector<Metric> &Metrics) {
  std::fprintf(Out,
               "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
               "\"metrics\": {",
               L.Failed == 0 && L.Attempted > 0 ? "true" : "false",
               L.Attempted, L.Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::fprintf(Out, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                 I ? ", " : "", Metrics[I].Name, Metrics[I].Value,
                 Metrics[I].Unit);
  std::fprintf(Out, "}}\n");
}

} // namespace

/// Restricts this process, and every thread and child it starts
/// afterwards, to the lowest CPU it may run on; restores the previous
/// mask on destruction.  A shared virtual machine can deliver anywhere
/// between one and all of its cores' worth of parallel time from one
/// minute to the next (a 4-vCPU Xeon VM read between 1.0 and 4.0 on
/// the spin probe), so wall times of multi-threaded stages swing with
/// the neighbours' load.  On one CPU every figure measures the same
/// thing in either regime: the work of the whole op done by one core.
class CpuPin {
public:
  CpuPin() {
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved)) {
        cpu_set_t One;
        CPU_ZERO(&One);
        CPU_SET(C, &One);
        if (sched_setaffinity(0, sizeof(One), &One) == 0)
          Cpu = C;
        return;
      }
  }
  ~CpuPin() { restore(); }
  CpuPin(const CpuPin &) = delete;
  CpuPin &operator=(const CpuPin &) = delete;

  void restore() {
    if (Cpu >= 0)
      sched_setaffinity(0, sizeof(Saved), &Saved);
    Cpu = -1;
  }
  /// The CPU pinned to, or -1.
  int cpu() const { return Cpu; }

private:
  cpu_set_t Saved;
  int Cpu = -1;
};

namespace {

/// Calibration samples taken before each set-up and after the last one,
/// and before the timed loop.
constexpr unsigned CalibrationSamples = 3;
/// Least loop time between two calibration samples.  A sample (two
/// kernel runs, about 7 ms) then takes at most an eighth of the loop,
/// and it runs between ops, never inside one.
constexpr double LoopKernelIntervalMs = 50;

/// Runs SetupRepetitions complete set-ups of \p Name under \p Root,
/// timing each into \p SetupS and calibrating into \p Speed around
/// them, and returns the last one's workload, ready for the timed loop.
/// Throws when a set-up fails.
std::unique_ptr<Workload> setUp(const Options &Opts, const fs::path &Root,
                                std::vector<double> &SetupS,
                                HostSpeed &Speed) {
  std::unique_ptr<Workload> W;
  auto Calibrate = [&Speed] {
    for (unsigned I = 0; I < CalibrationSamples; ++I)
      Speed.sample();
  };
  try {
    for (unsigned Rep = 0; Rep < SetupRepetitions; ++Rep) {
      Calibrate();
      if (W) {
        W->teardown();
        W.reset();
      }
      fs::path Dir = Root / ("setup" + std::to_string(Rep));
      fs::create_directories(Dir);
      int64_t Start = nowNs();
      W = makeWorkload(Opts.Workload);
      W->setup(Dir.string(), Opts.Seed);
      SetupS.push_back((nowNs() - Start) / 1e9);
    }
    Calibrate();
  } catch (...) {
    if (W)
      W->teardown();
    throw;
  }
  return W;
}

struct LoopRun {
  std::vector<OpSample> Samples;
  double Seconds = 0;
};

/// The timed closed loop: ops back to back for \p Seconds, in whole
/// rounds, with calibration samples into \p Speed between them.
/// Throws when an op cannot run at all.
LoopRun runLoop(Workload &W, unsigned Seconds, Tracer *T, HostSpeed &Speed) {
  LoopRun R;
  const int64_t Budget = static_cast<int64_t>(Seconds) * 1'000'000'000;
  const unsigned Round = std::max(1u, W.roundSize());
  // Per-op peaks need the high-water mark reset before each op; a
  // resident workload's peak spans the loop, so it is reset once, after
  // dropping what set-up left behind.
  const bool PerOpRss = !W.resident() && resetPeakRss();
  if (W.resident())
    malloc_trim(0);
  const bool LoopRss = W.resident() && resetPeakRss();
  for (unsigned I = 0; I < CalibrationSamples; ++I)
    Speed.sample();
  int64_t Start = nowNs();
  for (uint64_t Op = 0;; ++Op) {
    int64_t Elapsed = nowNs() - Start;
    // Whole rounds only; the hard cap keeps a pathologically slow
    // build inside the harness's time limit.
    if ((Elapsed >= Budget && Op % Round == 0) || Elapsed >= 3 * Budget)
      break;
    Speed.sampleEvery(LoopKernelIntervalMs);
    if (PerOpRss) {
      // Hand memory freed by earlier ops back first, so each op starts
      // from what a fresh `perfplay analyze` process would hold.
      malloc_trim(0);
      resetPeakRss();
    }
    // CPU is taken around the op alone, leaving the trim, the peak
    // bookkeeping and the loop's own work out.
    double Cpu0 = selfCpuMs();
    OpSample S = W.runOp(Op + 1, T);
    double OpCpuMs = selfCpuMs() - Cpu0;
    if (S.CpuMs < 0)
      S.CpuMs = OpCpuMs;
    if (PerOpRss && S.PeakRssMb < 0)
      S.PeakRssMb = peakRssMb();
    R.Samples.push_back(S);
  }
  R.Seconds = (nowNs() - Start) / 1e9;
  if (LoopRss && !R.Samples.empty())
    R.Samples.back().PeakRssMb = peakRssMb();
  return R;
}

/// Prints every end-to-end figure with its unit and sample count, in
/// reference-host time, each time followed by the figure as timed here
/// (\p Raw, \p RawSetupS).
void printEndToEnd(std::FILE *Out, const LoopSummary &L, const LoopSummary &Raw,
                   const std::vector<double> &SetupS,
                   const std::vector<double> &RawSetupS, double RssMb) {
  std::fprintf(Out, "setup_s: %.4f s (median of %zu set-ups:", median(SetupS),
               SetupS.size());
  for (double S : SetupS)
    std::fprintf(Out, " %.4f", S);
  std::fprintf(Out, "; as timed %.4f s)\n", median(RawSetupS));
  std::fprintf(Out, "throughput_per_s: %.4f 1/s (%zu ops; as timed %.4f)\n",
               L.ThroughputPerS, L.Attempted, Raw.ThroughputPerS);
  std::fprintf(Out, "latency_p50_ms: %.4f ms (n=%zu; as timed %.4f)\n",
               L.LatencyP50Ms, L.LatencySamples, Raw.LatencyP50Ms);
  std::fprintf(Out,
               "latency_tail_ms: %.4f ms (p%.1f, n=%zu, %zu beyond%s; "
               "as timed %.4f)\n",
               L.LatencyTail.Value, L.LatencyTail.Percentile,
               L.LatencyTail.Count, L.LatencyTail.Beyond,
               L.LatencyTail.Valid ? "" : "; too few samples for a tail",
               Raw.LatencyTail.Value);
  std::fprintf(Out, "miss_latency_p50_ms: %.4f ms (n=%zu; as timed %.4f)\n",
               L.MissLatencyP50Ms, L.MissSamples, Raw.MissLatencyP50Ms);
  std::fprintf(Out, "cpu_ms_per_op: %.4f ms (%zu ops; as timed %.4f)\n",
               L.CpuMsPerOp, L.Attempted, Raw.CpuMsPerOp);
  std::fprintf(Out, "peak_rss_mb: %.2f MB (%s; process lifetime %.2f MB)\n",
               RssMb, L.PeakRssMb > 0 ? "peak over the ops" : "lifetime",
               lifetimePeakRssMb());
  std::fprintf(Out, "error_rate: %.6f (%zu of %zu ops failed)\n",
               L.Attempted ? static_cast<double>(L.Failed) / L.Attempted : 0.0,
               L.Failed, L.Attempted);
  if (L.Failed)
    std::fprintf(Out, "first failure: %s\n", L.FirstError.c_str());
}

bool isTimeUnit(const std::string &Unit) {
  return Unit == "ms" || Unit == "us" || Unit == "ns";
}

/// Derives every per-layer metric of a traced run from the spans and
/// counters of \p T over \p Ops ops plus the workload's own \p Layer
/// values, printing each, and checks that the stage spans account for
/// the op time.  Times are scaled by the loop's speed \p Factor, like
/// the end-to-end figures.
std::vector<Metric> layerMetrics(std::FILE *Out, const Tracer &T,
                                 LayerValues &Layer, size_t Ops,
                                 double Factor) {
  Ops = std::max<size_t>(1, Ops);
  for (const LayerDef &D : LayerDefs) {
    if (D.From == Source::SpanMs)
      Layer[D.Name] = T.totalMs(D.Name) / Ops;
    else if (D.From == Source::CounterPerOp)
      Layer[D.Name] = T.counter(D.Name) / Ops;
  }
  double Pairs = T.counter("detect.pairs");
  Layer["detect.classify_ratio"] =
      Pairs > 0 ? T.counter("detect.classified") / Pairs : 0;
  std::vector<Metric> Metrics;
  double StageMs = 0;
  for (const LayerDef &D : LayerDefs) {
    double V = Layer.count(D.Name) ? Layer[D.Name] : 0;
    if (D.From == Source::SpanMs)
      StageMs += V;
    if (!isTimeUnit(D.Unit)) {
      Metrics.push_back({D.Name, D.Unit, V});
      std::fprintf(Out, "%s: %.6g %s\n", D.Name, V, D.Unit);
      continue;
    }
    Metrics.push_back({D.Name, D.Unit, V * Factor});
    std::fprintf(Out, "%s: %.6g %s (as timed %.6g)\n", D.Name, V * Factor,
                 D.Unit, V);
  }
  if (T.totalMs("op") > 0)
    std::fprintf(Out, "accounting, as timed: mean op %.4f ms = stage spans "
                      "%.4f ms + untimed %.4f ms\n",
                 T.totalMs("op") / Ops, StageMs, Layer["core.untimed_ms"]);
  return Metrics;
}

} // namespace

int runBenchmark(const Options &Opts, std::FILE *Out) {
  CpuPin Pin;
  const int PinnedCpu = Pin.cpu();
  const fs::path Root = fs::path(".bench_work") /
                        (Opts.Workload + "-" + std::to_string(getpid()));
  WorkDirGuard Guard{Root};
  std::vector<double> RawSetupS;
  // Forked before set-up starts any thread; stopped on every way out.
  std::unique_ptr<KernelProcess> Kernel;
  std::unique_ptr<Workload> W;
  try {
    Kernel = std::make_unique<KernelProcess>();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "stagebench: %s\n", E.what());
    return 1;
  }
  HostSpeed SetupSpeed(*Kernel), LoopSpeed(*Kernel);
  try {
    W = setUp(Opts, Root, RawSetupS, SetupSpeed);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "stagebench: set-up of %s failed: %s\n",
                 Opts.Workload.c_str(), E.what());
    return 1;
  }
  Tracer T;
  LoopRun R;
  try {
    R = runLoop(*W, Opts.Seconds, Opts.Trace ? &T : nullptr, LoopSpeed);
  } catch (const std::exception &E) {
    // The harness itself broke (e.g. a child could not be spawned);
    // no result is printed.
    std::fprintf(stderr, "stagebench: %s op failed to run: %s\n",
                 Opts.Workload.c_str(), E.what());
    W->teardown();
    return 1;
  }
  LayerValues Layer;
  W->layerValues(T, R.Samples.size(), Opts.Trace, Layer);
  W->teardown();
  const LoopSummary Raw = summarizeLoop(R.Samples);
  scaleTimes(R.Samples, LoopSpeed.factor());
  const LoopSummary L = summarizeLoop(R.Samples);
  std::vector<double> SetupS = RawSetupS;
  for (double &S : SetupS)
    S *= SetupSpeed.factor();
  double RssMb = L.PeakRssMb > 0 ? L.PeakRssMb : lifetimePeakRssMb();
  Pin.restore();
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  double SpinOneMs = 0;
  double Parallelism = spinProbe(Nproc, SpinOneMs);

  std::fprintf(Out, "workload: %s seed=%llu seconds=%u trace=%d\n",
               Opts.Workload.c_str(),
               static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
               Opts.Trace ? 1 : 0);
  std::fprintf(Out, "host: nproc=%u effective_parallelism=%.2f "
                    "(spin probe, %u threads; one thread %.1f ms); "
                    "ran pinned to cpu %d\n",
               Nproc, Parallelism, Nproc, SpinOneMs, PinnedCpu);
  std::fprintf(Out,
               "calibration: kernel median %.4f ms over %zu samples in the "
               "loop, %.4f ms over %zu around the set-ups; times below are "
               "scaled by %.4f (loop) and %.4f (set-up) to a host where "
               "it takes %.1f ms\n",
               median(LoopSpeed.samples()), LoopSpeed.samples().size(),
               median(SetupSpeed.samples()), SetupSpeed.samples().size(),
               LoopSpeed.factor(), SetupSpeed.factor(), ReferenceKernelMs);
  W->describe(Out);
  std::fprintf(Out, "loop: %zu ops in %.3f s (%s)\n", L.Attempted, R.Seconds,
               Opts.Trace ? "traced" : "untraced");
  printEndToEnd(Out, L, Raw, SetupS, RawSetupS, RssMb);

  std::vector<Metric> Metrics;
  if (!Opts.Trace) {
    Metrics = {{"setup_s", "s", median(SetupS)},
               {"throughput_per_s", "1/s", L.ThroughputPerS},
               {"latency_p50_ms", "ms", L.LatencyP50Ms},
               {"latency_tail_ms", "ms", L.LatencyTail.Value},
               {"miss_latency_p50_ms", "ms", L.MissLatencyP50Ms},
               {"cpu_ms_per_op", "ms", L.CpuMsPerOp},
               {"peak_rss_mb", "MB", RssMb}};
    for (const auto &[Name, Value] : Layer)
      std::fprintf(Out, "%s: %.6g (as timed)\n", Name.c_str(), Value);
  } else {
    Metrics =
        layerMetrics(Out, T, Layer, R.Samples.size(), LoopSpeed.factor());
    fs::create_directories(".bench_out");
    std::string SpanPath = ".bench_out/" + Opts.Workload + "-seed" +
                           std::to_string(Opts.Seed) + ".spans.tsv";
    if (T.write(SpanPath))
      std::fprintf(Out, "spans: %zu written to %s (as timed)\n",
                   T.spans().size(), SpanPath.c_str());
  }
  std::fflush(Out);
  printJson(Out, L, Metrics);
  return 0;
}

} // namespace stagebench
