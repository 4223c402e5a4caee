//===- core/AnalysisSession.h - Staged pipeline over one trace ---*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged PERFPLAY API.  An AnalysisSession owns one trace and
/// exposes each stage of the Figure 5 pipeline as an explicit,
/// lazily-computed, memoized step:
///
///   ensureRecorded() — validate, index, and install a grant schedule
///                      (one ORIG-S recording run) if the trace lacks
///                      one,
///   detect()         — Algorithm 1 + reversed replay ULCP detection,
///   transform()      — the RULE 1-4 ULCP-free transformation,
///   replay(K, Seed)  — a timing replay of the recorded trace under
///                      scheme K; results are cached per {K, Seed},
///   replayTransformed(K, Seed)
///                    — ditto for the ULCP-free trace,
///   report()         — Equation 1 / Algorithm 2 / Equation 2 ranking,
///   races()          — the Theorem-1 race check.
///
/// Expensive intermediates (the critical-section index, solo arrival
/// times, the recording run, per-{scheme, seed} ReplayResults) are
/// computed once and reused across stages, so e.g. sweeping all four
/// replay schemes over one trace records and detects only once.
/// Every stage returns Expected<T> (support/Expected.h): a reference
/// to the session-owned cached value, or a typed PipelineError.
///
/// The legacy single-shot entry point runPerfPlay() (core/PerfPlay.h)
/// is a thin wrapper over run() and produces identical results.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_CORE_ANALYSISSESSION_H
#define PERFPLAY_CORE_ANALYSISSESSION_H

#include "debug/Report.h"
#include "detect/CriticalSection.h"
#include "detect/Detector.h"
#include "sim/Replayer.h"
#include "support/Expected.h"
#include "trace/Trace.h"
#include "transform/RaceCheck.h"
#include "transform/Transform.h"

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfplay {

/// Pipeline configuration.
struct PipelineOptions {
  /// Detection options.  The default pairs only sections adjacent in
  /// the per-lock grant order (the contentions that actually serialized
  /// the run); counting studies switch to AllCrossThread.
  DetectOptions Detect = [] {
    DetectOptions D;
    D.PairMode = PairModeKind::AdjacentCrossThread;
    return D;
  }();
  /// Replay options for both timing replays.  ELSC is the default: the
  /// paper shows it is the only scheme that is simultaneously stable
  /// and faithful (Section 6.2).
  ReplayOptions Replay;
  /// Seed for the ORIG-S recording run when the input trace lacks a
  /// grant schedule.
  uint64_t RecordSeed = 42;
  /// Run the Theorem-1 race check over the transformed trace.
  bool CheckRaces = false;
  /// Window size, in events, for out-of-core windowed detection
  /// (Engine::detectWindowed): each decoded v3 chunk is handed to the
  /// WindowedDetector in slices of at most this many events, bounding
  /// the in-flight span independently of the chunk size.  0 = one
  /// whole chunk per window.  Verdicts are identical for every value
  /// (gated by tests/WindowedDetectTest); whole-trace stages ignore
  /// this knob.
  uint64_t WindowEvents = 0;
};

/// Everything the pipeline produced.  Part of the frozen back-compat
/// surface (see README "API stability"): fields may be appended, never
/// changed or removed.
struct PipelineResult {
  /// Empty on success; otherwise the first failing stage's diagnostic
  /// (the staged API returns the same failure as a typed
  /// PipelineError).
  std::string Error;

  /// Stage 2 output: classified ULCP pairs / per-category counts.
  DetectResult Detection;
  /// Stage 3 output: the ULCP-free transformed trace and its topology.
  /// Self-contained — the transformed trace owns all of its storage,
  /// including pooled names, and never references the session's trace
  /// or a backing file mapping.
  TransformResult Transformation;
  /// Stage 4 output: the timing replay of the recorded trace.
  ReplayResult Original;
  /// Stage 4 output: the timing replay of the transformed trace.
  ReplayResult UlcpFree;
  /// Stage 5 output: Equation 1 / Algorithm 2 / Equation 2 ranking.
  PerfDebugReport Report;
  /// Theorem-1 race check findings (empty unless
  /// PipelineOptions::CheckRaces).
  std::vector<RaceReport> Races;

  /// True when every requested stage completed.
  bool ok() const { return Error.empty(); }
};

/// The five pipeline stages of Figure 5 plus the optional Theorem-1
/// race check, for progress reporting.
enum class StageKind : uint8_t {
  Record,
  Detect,
  Transform,
  Replay,
  Report,
  RaceCheck,
};

/// Returns the Figure 5 name of \p Stage ("record", "detect", ...).
const char *stageKindName(StageKind Stage);

/// One progress notification: a stage finished (or was served from the
/// session's cache).
struct StageEvent {
  StageKind Stage = StageKind::Record;
  /// Position of the session's trace in an Engine::analyzeBatch()
  /// call; 0 for standalone sessions.
  size_t TraceIndex = 0;
  /// True when the stage's result was already memoized and no work ran.
  bool FromCache = false;
  /// Wall time of the stage's own work, in microseconds: prerequisite
  /// stages it ran on demand report their own events and are not
  /// counted.  0 when FromCache.
  uint64_t Micros = 0;
};

/// Per-stage progress callback.  Engine::analyzeBatch() serializes
/// invocations across its worker threads, so callbacks need no
/// internal locking.
using ProgressCallback = std::function<void(const StageEvent &)>;

/// A staged analysis of one trace.  Construct it (or ask an Engine for
/// one), then call any stage in any order: prerequisites run on
/// demand, every result is cached, and repeated calls — including
/// repeated replay(K, Seed) requests — return references to the same
/// session-owned object.
///
/// Sessions are movable but not copyable; references returned by stage
/// accessors are invalidated by moving the session.
///
/// Threading model: a session is externally synchronized — it takes no
/// locks of its own, and all of its cached intermediates (including
/// the replay LRU cache) are confined to whichever thread is currently
/// driving it.  One thread per session at a time; handing a session to
/// another thread is safe exactly when the handoff itself synchronizes
/// (thread join, mutex, task queue).  Engine::analyzeBatch* follows
/// this rule: each worker owns its session outright and only the
/// finished results cross threads, under the batch mutex.  Detection
/// inside a session may spin up its own ThreadPool; that parallelism
/// is internal to the detect() call and invisible to the caller.
class AnalysisSession {
public:
  explicit AnalysisSession(Trace Tr, PipelineOptions Opts = PipelineOptions(),
                           ProgressCallback Progress = nullptr);

  AnalysisSession(AnalysisSession &&) = default;
  AnalysisSession &operator=(AnalysisSession &&) = default;
  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  /// The session's trace.  After a successful ensureRecorded() this
  /// carries the installed grant schedule.
  const Trace &trace() const { return Tr; }

  const PipelineOptions &options() const { return Opts; }

  /// Tags this session's progress events with \p Index (the trace's
  /// position in a batch).
  void setTraceIndex(size_t Index) { TraceIndex = Index; }

  /// Stage 1 (record): validates the trace, builds the global
  /// critical-section numbering, and — when the trace has critical
  /// sections but no grant schedule — runs one ORIG-S recording replay
  /// to install Trace::LockSchedule.  Idempotent; the outcome
  /// (including failure) is memoized.
  Expected<void> ensureRecorded();

  /// The ORIG-S recording run's result, when ensureRecorded() had to
  /// perform one; nullptr when the input trace already carried a
  /// schedule (or had no critical sections).
  const ReplayResult *recordingRun() const {
    return RecordingRun ? &*RecordingRun : nullptr;
  }

  /// The per-lock grant schedule the replays enforce (installed by
  /// ensureRecorded() when absent).
  Expected<const std::vector<std::vector<CsRef>> &> grantSchedule();

  /// The memoized critical-section index shared by every stage.
  Expected<const CsIndex &> csIndex();

  /// Per-critical-section no-contention arrival times (the SYNC-S
  /// ordering key), memoized.
  Expected<const std::vector<TimeNs> &> soloArrivals();

  /// Stage 2 (detect): classify every same-lock cross-thread pair.
  Expected<const DetectResult &> detect();

  /// Stage 3 (transform): the RULE 1-4 ULCP-free transformation.
  Expected<const TransformResult &> transform();

  /// Stage 4 (replay): a timing replay of the recorded trace under
  /// \p Kind.  \p Seed defaults to the session's ReplayOptions seed;
  /// results are memoized per {Kind, Seed} and repeated requests
  /// return the same object.  The cache holds at most
  /// ReplayOptions::ReplayCacheCapacity results (LRU eviction), so long
  /// seed sweeps run in bounded memory; a returned reference stays
  /// valid until its entry is evicted.
  Expected<const ReplayResult &> replay(ScheduleKind Kind,
                                        std::optional<uint64_t> Seed = {});

  /// Stage 4 for the ULCP-free trace (runs transform() on demand).
  Expected<const ReplayResult &>
  replayTransformed(ScheduleKind Kind, std::optional<uint64_t> Seed = {});

  /// Stage 5 (report): Equation 1 per pair, Algorithm 2 fusion,
  /// Equation 2 ranking, using the session's configured replay scheme
  /// and seed for both timing replays.
  Expected<const PerfDebugReport &> report();

  /// Theorem-1 race check over the transformed trace.
  Expected<const std::vector<RaceReport> &> races();

  /// Runs every stage (plus races() when options().CheckRaces) and
  /// assembles the legacy PipelineResult, reusing anything already
  /// cached.  On failure the result carries the legacy Error string
  /// and whatever stages completed; when \p ErrOut is non-null it
  /// receives the typed error.  With streaming detection
  /// (DetectOptions::Sink/CountsOnly) the report stage — which needs
  /// the discarded pair list — is skipped and Result.Report stays
  /// default-constructed; all other stages run normally.
  PipelineResult run(PipelineError *ErrOut = nullptr);

  /// Consuming run(): moves the cached intermediates into the result
  /// instead of copying them, emptying the stage caches.  For
  /// sessions about to be discarded (runPerfPlay uses this); prefer
  /// run() when the session lives on.
  PipelineResult takeRun(PipelineError *ErrOut = nullptr);

  /// Typed-result variant of run(): the complete PipelineResult, or
  /// the first stage failure as a PipelineError.
  Expected<PipelineResult> analyze();

  /// Number of ReplayResults currently cached (bounded by the
  /// ReplayCacheCapacity budget).
  size_t cachedReplayCount() const { return Replays.size(); }

private:
  /// Replay-cache key: {transformed?, scheme, seed}.
  using ReplayKey = std::tuple<bool, ScheduleKind, uint64_t>;

  struct ReplayCacheEntry {
    ReplayResult Result;
    /// Position in LruOrder (most-recent at front).
    std::list<ReplayKey>::iterator LruIt;
  };

  /// ensureRecorded() minus the cache-hit progress event — the form
  /// internal prerequisite checks use, so a single detect() call does
  /// not spam Record events for every dependency edge.
  Expected<void> setup();

  /// Shared body of run()/takeRun(); \p Consume moves caches out.
  PipelineResult runImpl(bool Consume, PipelineError *ErrOut);

  /// Runs (or fetches) the {Transformed, Kind, Seed} replay and
  /// returns the cache entry even when the replay failed — run()
  /// needs failed ReplayResults for legacy assembly.
  const ReplayResult &replayEntry(bool Transformed, ScheduleKind Kind,
                                  uint64_t Seed);

  void emit(StageKind Stage, bool FromCache, uint64_t Micros = 0);

  Trace Tr;
  PipelineOptions Opts;
  ProgressCallback Progress;
  size_t TraceIndex = 0;

  /// Stage 1 state.
  bool SetupDone = false;
  PipelineError SetupError;
  std::optional<ReplayResult> RecordingRun;

  std::optional<CsIndex> Index;
  std::optional<std::vector<TimeNs>> SoloArrivals;
  std::optional<DetectResult> Detection;
  std::optional<TransformResult> Transformation;
  /// std::map: node-stable, so handed-out references survive cache
  /// growth (they die only with their entry's LRU eviction).
  std::map<ReplayKey, ReplayCacheEntry> Replays;
  /// LRU recency order over Replays' keys; front = most recent.
  std::list<ReplayKey> LruOrder;
  std::optional<PerfDebugReport> Rpt;
  std::optional<std::vector<RaceReport>> Races;
};

} // namespace perfplay

#endif // PERFPLAY_CORE_ANALYSISSESSION_H
