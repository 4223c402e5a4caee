//===- RecordWorkload.cpp - record-lockheavy ------------------------------===//
//
// Each op is one `perfplay record` run of the benchmark's own lock
// driver, the only path on which record/ does any work (and the v3
// write side of trace/).  Unrecorded runs of the same driver are
// interleaved with the recorded ones, alternating which goes first, so
// the recorder's slowdown is measured against a baseline taken under
// the same host conditions.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Stats.h"
#include "Workload.h"

#include "trace/TraceIO.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <spawn.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

extern char **environ;

using namespace perfplay;

namespace stagebench {

namespace {

/// The driver's fixed thread and lock counts (see lockdriver.cpp).
constexpr unsigned DriverThreads = 3;
constexpr unsigned DriverLocks = 4;

/// The driver's shape: iterations per thread and compute steps inside
/// and between its sections, plus the recorder's per-thread ring
/// (records; 0 keeps the recorder's default).
struct DriverShape {
  unsigned Iterations;
  unsigned Inner;
  unsigned Outer;
  unsigned Ring;

  std::vector<std::string> args(uint64_t Seed) const {
    return {STAGEBENCH_LOCKDRIVER, std::to_string(Iterations),
            std::to_string(Inner), std::to_string(Outer),
            std::to_string(Seed)};
  }
  uint64_t lockOps() const { return uint64_t(DriverThreads) * Iterations; }
};

/// Little compute per section, so interposition and the flusher's
/// work are over half of an op's wall time (on one core: the driver
/// alone runs about 11 ms, recorded about 46 ms, and start-up plus
/// finalize add about 10 ms).  Each thread makes 2 x 32000 + 1 record
/// attempts, which the ring holds whole, so a run records every call
/// however the host schedules the flusher thread.
constexpr DriverShape Steady{32000, 20, 80, 1u << 16};
static_assert(2 * Steady.Iterations + 1 <= Steady.Ring,
              "a thread's records must fit its ring");
/// Back-to-back lock ops, no compute, default ring: the recorder's
/// drop limit.
constexpr DriverShape Saturated{100000, 0, 0, 0};

struct ChildRun {
  double WallMs = 0;
  double CpuMs = 0;
  bool ExitedZero = false;
  /// The driver's own `run_ns` and `rss_kb` reports, in ms and MB (0
  /// when missing).
  double DriverRunMs = 0;
  double DriverPeakRssMb = 0;
};

/// Runs \p Argv to completion with its stdout captured; times it and
/// collects its CPU (and that of the processes it waited for) through
/// wait4.  Peak memory comes from the driver's own report instead:
/// wait4's ru_maxrss would include the benchmark's resident set, which
/// the kernel charges to a child at exec.
ChildRun runChild(const std::vector<std::string> &Argv) {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  ChildRun R;
  int64_t Start = nowNs();
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  if (Rc != 0) {
    close(Pipe[0]);
    throw std::runtime_error("spawn " + Argv[0] + ": " + std::strerror(Rc));
  }
  std::string Out;
  char Buf[512];
  for (ssize_t N; (N = read(Pipe[0], Buf, sizeof(Buf))) != 0;) {
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      break;
    Out.append(Buf, N);
  }
  close(Pipe[0]);
  int Status = 0;
  rusage Use{};
  while (wait4(Pid, &Status, 0, &Use) < 0 && errno == EINTR) {
  }
  R.WallMs = (nowNs() - Start) / 1e6;
  R.CpuMs = (Use.ru_utime.tv_sec + Use.ru_stime.tv_sec) * 1e3 +
            (Use.ru_utime.tv_usec + Use.ru_stime.tv_usec) / 1e3;
  R.ExitedZero = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  size_t At = Out.find("run_ns ");
  if (At != std::string::npos)
    R.DriverRunMs = std::strtoll(Out.c_str() + At + 7, nullptr, 10) / 1e6;
  At = Out.find("rss_kb ");
  if (At != std::string::npos)
    R.DriverPeakRssMb = std::strtoul(Out.c_str() + At + 7, nullptr, 10) / 1024.0;
  return R;
}

/// Reads the recorder's `key value` stats sidecar (one pair a line).
std::map<std::string, uint64_t> readStats(const std::string &Path) {
  std::map<std::string, uint64_t> Stats;
  std::ifstream In(Path);
  for (std::string Line; std::getline(In, Line);) {
    size_t Space = Line.find(' ');
    if (Space != std::string::npos)
      Stats[Line.substr(0, Space)] =
          std::strtoull(Line.c_str() + Space + 1, nullptr, 10);
  }
  return Stats;
}

class RecordLockheavy : public Workload {
public:
  void setup(const std::string &WorkDir, uint64_t Seed) override {
    Dir = WorkDir;
    DriverSeed = Seed;
    FirstRecorded = Seed % 2 == 0;
    RecordingFacts F;
    ChildRun R = record(Steady, F);
    std::string Err = R.ExitedZero ? checkRecording(F) : "record failed";
    if (!Err.empty())
      throw std::runtime_error("warm-up recording: " + Err);
    if (!runChild(Steady.args(DriverSeed)).ExitedZero)
      throw std::runtime_error("warm-up run of the driver failed");
  }

  OpSample runOp(uint64_t Op, Tracer *T) override {
    bool RecordFirst = (Op % 2 == 0) == FirstRecorded;
    if (!RecordFirst)
      baseline();
    RecordingFacts F;
    ChildRun R;
    {
      SpanScope _(T, "record.op", Op);
      R = record(Steady, F);
    }
    if (RecordFirst)
      baseline();
    OpSample S;
    S.LatencyMs = R.WallMs;
    S.CpuMs = R.CpuMs;
    S.PeakRssMb = R.DriverPeakRssMb;
    S.Error = R.ExitedZero ? checkRecording(F)
                           : "perfplay record exited non-zero";
    RunMs.push_back(R.DriverRunMs);
    FinalizeMs.push_back(R.WallMs - R.DriverRunMs);
    Attempts.push_back(F.Attempts);
    Records.push_back(F.Records);
    Drops.push_back(F.Drops);
    TraceBytes.push_back(LastTraceBytes);
    return S;
  }

  void layerValues(const Tracer &, size_t, bool Traced,
                   LayerValues &Out) override {
    double Run = median(RunMs), Base = median(BaselineMs);
    double Att = mean(Attempts);
    Out["record.run_ms"] = Run;
    Out["record.baseline_run_ms"] = Base;
    Out["record.slowdown_x"] = Base > 0 ? Run / Base : 0;
    Out["record.ns_per_call"] = Att > 0 ? (Run - Base) * 1e6 / Att : 0;
    Out["record.finalize_ms"] = median(FinalizeMs);
    Out["record.attempts"] = Att;
    Out["record.records"] = mean(Records);
    Out["record.drops"] = mean(Drops);
    Out["record.record_ratio"] = Att > 0 ? mean(Records) / Att : 0;
    Out["record.trace_bytes"] = mean(TraceBytes);
    if (Traced) {
      RecordingFacts F;
      record(Saturated, F);
      SaturatedAttempts = F.Attempts;
      SaturatedDrops = F.Drops;
      Out["record.saturated_drop_ratio"] =
          F.Attempts ? static_cast<double>(F.Drops) / F.Attempts : 0;
    }
  }

  void describe(std::FILE *Out) const override {
    std::fprintf(Out,
                 "driver: %u threads x %u iterations over %u locks, "
                 "inner=%u outer=%u, ring %u; %zu recorded and %zu baseline "
                 "runs\n",
                 DriverThreads, Steady.Iterations, DriverLocks, Steady.Inner,
                 Steady.Outer, Steady.Ring, RunMs.size(), BaselineMs.size());
    if (SaturatedAttempts)
      std::fprintf(Out,
                   "saturated probe: %u threads x %u back-to-back lock ops: "
                   "%llu of %llu records dropped\n",
                   DriverThreads, Saturated.Iterations,
                   static_cast<unsigned long long>(SaturatedDrops),
                   static_cast<unsigned long long>(SaturatedAttempts));
  }

private:
  /// One `perfplay record` run of \p Shape; fills \p F from the stats
  /// sidecar and the recorded trace.
  ChildRun record(const DriverShape &Shape, RecordingFacts &F) {
    const std::string Out = Dir + "/rec.v3", Stats = Dir + "/rec.stats";
    std::remove(Out.c_str());
    std::vector<std::string> Argv = {STAGEBENCH_PERFPLAY, "record", "-o",
                                     Out, "--stats", Stats, "--quiet"};
    if (Shape.Ring) {
      Argv.push_back("--ring");
      Argv.push_back(std::to_string(Shape.Ring));
    }
    Argv.push_back("--");
    for (const std::string &A : Shape.args(DriverSeed))
      Argv.push_back(A);
    ChildRun R = runChild(Argv);
    std::map<std::string, uint64_t> S = readStats(Stats);
    F.Attempts = S["attempts"];
    F.Records = S["records"];
    F.Drops = S["drops"];
    F.ExpectedAcquires = Shape.lockOps();
    struct stat St;
    LastTraceBytes = stat(Out.c_str(), &St) == 0 ? St.st_size : 0;
    Expected<Trace> Tr = readTraceFile(Out);
    if (!Tr) {
      F.LoadError = Tr.message();
      return R;
    }
    F.LoadError = Tr->validate();
    for (const ThreadTrace &Th : Tr->Threads)
      for (const Event &E : Th.Events)
        F.Acquires += E.Kind == EventKind::LockAcquire;
    return R;
  }

  void baseline() {
    BaselineMs.push_back(runChild(Steady.args(DriverSeed)).DriverRunMs);
  }

  std::string Dir;
  uint64_t DriverSeed = 0;
  /// Which run kind opens the interleaved pair of even-numbered ops.
  bool FirstRecorded = true;
  std::vector<double> RunMs, BaselineMs, FinalizeMs;
  std::vector<double> Attempts, Records, Drops, TraceBytes;
  uint64_t LastTraceBytes = 0;
  uint64_t SaturatedAttempts = 0, SaturatedDrops = 0;
};

} // namespace

std::unique_ptr<Workload> makeRecordLockheavy() {
  return std::make_unique<RecordLockheavy>();
}

} // namespace stagebench
