//===- PipelineWorkloads.cpp - Session-driven workloads -------------------===//

#include "PipelineWorkloads.h"

#include "trace/TraceIO.h"
#include "workloads/Apps.h"

#include <map>
#include <stdexcept>
#include <sys/stat.h>

using namespace perfplay;

namespace stagebench {

/// splitmix64: derives one generator seed per input from the run seed.
static uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

PipelineWorkload::PipelineWorkload(Mode M, std::vector<InputSpec> Specs)
    : M(M) {
  Eng.options().CheckRaces = M == Mode::AnalyzeRaces;
  for (const InputSpec &S : Specs)
    Inputs.push_back(Input{S, "", "", 0, {}});
}

void PipelineWorkload::setup(const std::string &WorkDir, uint64_t Seed) {
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Input &In = Inputs[I];
    WorkloadSpec Spec = In.Spec.Factory(In.Spec.Threads, In.Spec.Scale);
    Spec.Seed = mixSeed(Seed, I);
    const std::string Stem = WorkDir + "/" + In.Spec.App + std::to_string(I);
    In.Path = Stem + ".v3";
    std::string Err;
    if (!saveTrace(generateWorkload(Spec), In.Path, Err, TraceFormat::V3))
      throw std::runtime_error("writing " + In.Path + ": " + Err);
    struct stat St;
    In.Bytes = stat(In.Path.c_str(), &St) == 0 ? St.st_size : 0;
    if (M == Mode::Detect) {
      // Windowed detection pairs sections in the file's grant order, so
      // it reads the same trace with the schedule the session's ORIG-S
      // recording installs (deterministic: fixed RecordSeed).  Both
      // engines then see one order, and their counts must agree.
      Expected<AnalysisSession> S = Eng.openSessionFromFile(In.Path);
      if (!S || !S->ensureRecorded())
        throw std::runtime_error("recording " + In.Path);
      In.RecordedPath = Stem + ".recorded.v3";
      if (!saveTrace(S->trace(), In.RecordedPath, Err, TraceFormat::V3))
        throw std::runtime_error("writing " + In.RecordedPath + ": " + Err);
    }
  }
  // Warm-up: one op per input; its outputs are the reference.
  for (Input &In : Inputs) {
    std::string Err = analyze(In, 0, nullptr, In.Ref);
    if (!Err.empty())
      throw std::runtime_error("warm-up op on " + In.Path + ": " + Err);
  }
}

std::string PipelineWorkload::analyze(const Input &In, uint64_t Op,
                                      Tracer *T, PipelineOutcome &Out) {
  SpanScope OpSpan(T, "op", Op);
  Expected<AnalysisSession> S = [&] {
    SpanScope _(T, "trace.load_ms", Op);
    return Eng.openSessionFromFile(In.Path);
  }();
  if (!S)
    return "openSessionFromFile: " + S.message();
  {
    SpanScope _(T, "sim.record_ms", Op);
    if (Expected<void> R = S->ensureRecorded(); !R)
      return "ensureRecorded: " + R.message();
  }
  {
    SpanScope _(T, "detect.csindex_ms", Op);
    if (auto R = S->csIndex(); !R)
      return "csIndex: " + R.message();
  }
  {
    SpanScope _(T, "detect.detect_ms", Op);
    auto R = S->detect();
    if (!R)
      return "detect: " + R.message();
    Out.Counts = R->Counts;
    if (T) {
      T->count("detect.section_keys", R->Stats.NumSectionKeys);
      T->count("detect.classified", R->Stats.NumClassified);
      T->count("detect.pairs", R->Counts.total());
      T->count("trace.bytes", In.Bytes);
    }
  }
  if (M == Mode::Detect) {
    SpanScope _(T, "detect.windowed_ms", Op);
    Expected<DetectResult> W = Eng.detectWindowed(In.RecordedPath);
    if (!W)
      return "detectWindowed: " + W.message();
    std::string D = diffCounts(Out.Counts, W->Counts);
    return D.empty() ? "" : "windowed detection disagrees: " + D;
  }
  {
    SpanScope _(T, "transform.transform_ms", Op);
    auto R = S->transform();
    if (!R)
      return "transform: " + R.message();
    Out.AuxLocks = R->NumAuxLocks;
    Out.Standalone = R->NumStandalone;
    if (T) {
      T->count("transform.aux_locks", R->NumAuxLocks);
      T->count("transform.standalone", R->NumStandalone);
    }
  }
  {
    SpanScope _(T, "sim.replay_orig_ms", Op);
    auto R = S->replay(ScheduleKind::ElscS);
    if (!R)
      return "replay: " + R.message();
    Out.OrigTimeNs = R->TotalTime;
  }
  {
    SpanScope _(T, "sim.replay_free_ms", Op);
    auto R = S->replayTransformed(ScheduleKind::ElscS);
    if (!R)
      return "replayTransformed: " + R.message();
    Out.FreeTimeNs = R->TotalTime;
  }
  {
    SpanScope _(T, "debug.report_ms", Op);
    if (auto R = S->report(); !R)
      return "report: " + R.message();
  }
  if (M == Mode::AnalyzeRaces) {
    SpanScope _(T, "transform.races_ms", Op);
    auto R = S->races();
    if (!R)
      return "races: " + R.message();
    Out.Races = R->size();
    if (T)
      T->count("transform.races", static_cast<double>(R->size()));
  }
  return "";
}

OpSample PipelineWorkload::runOp(uint64_t Op, Tracer *T) {
  const Input &In = Inputs[Op % Inputs.size()];
  PipelineOutcome Got;
  int64_t Start = nowNs();
  std::string Err = analyze(In, Op, T, Got);
  OpSample S;
  S.LatencyMs = (nowNs() - Start) / 1e6;
  if (Err.empty())
    Err = diffOutcome(In.Ref, Got);
  if (!Err.empty())
    S.Error = In.Path + ": " + Err;
  return S;
}

void PipelineWorkload::layerValues(const Tracer &T, size_t Ops, bool Traced,
                                   LayerValues &Out) {
  if (!Traced || Ops == 0)
    return;
  // Self time of the op span: everything the stage spans leave out
  // (session construction and teardown, argument marshalling).
  Out["core.untimed_ms"] = T.selfMs("op") / Ops;
}

void PipelineWorkload::describe(std::FILE *Out) const {
  std::map<std::string, std::vector<const Input *>> ByModel;
  for (const Input &In : Inputs)
    ByModel[In.Spec.App].push_back(&In);
  for (const auto &[App, Ins] : ByModel) {
    uint64_t Bytes = 0;
    for (const Input *In : Ins)
      Bytes += In->Bytes;
    std::fprintf(Out,
                 "inputs: %zu %s traces, threads=%u scale=%g, "
                 "mean v3 size %llu bytes\n",
                 Ins.size(), App.c_str(), Ins[0]->Spec.Threads,
                 Ins[0]->Spec.Scale,
                 static_cast<unsigned long long>(Bytes / Ins.size()));
  }
}

/// \p Models repeated \p Times times, in round-robin order, each input
/// generated from its own seed.  One trace's cost depends on its
/// generator seed (an rwmix op's by up to 2x, a small mysql race
/// check's by +-10 %), and a median is an order statistic over the
/// traces of a run: with one trace per model the median moved 10 % from
/// one run seed to the next, with seven to nine it moves a few %.
static std::vector<InputSpec> repeated(const std::vector<InputSpec> &Models,
                                       unsigned Times) {
  std::vector<InputSpec> Out;
  for (unsigned K = 0; K < Times; ++K)
    Out.insert(Out.end(), Models.begin(), Models.end());
  return Out;
}

std::unique_ptr<Workload> makeAnalyzePaper() {
  // Transform and the two replays dominate.  Per op, pbzip2 costs about
  // a quarter of mysql, and rwmix a little more than mysql, with the
  // two overlapping.  Two mysql ops per pbzip2 and rwmix op give the
  // sorted latencies blocks of a quarter (pbzip2), a half (mysql) and a
  // quarter (rwmix), so the median lies mid-block in mysql and p90 in
  // rwmix, a tenth or more of the ops away from any block boundary.
  // With equal counts the median sat on the mysql/rwmix overlap and
  // moved twice as much as the throughput from run to run.
  return std::make_unique<PipelineWorkload>(
      PipelineWorkload::Mode::Analyze,
      repeated({{"mysql", makeMysql, 16, 4},
                {"mysql", makeMysql, 16, 4},
                {"pbzip2", makePbzip2, 16, 4},
                {"rwmix", makeRwMix, 16, 4}},
               7));
}

std::unique_ptr<Workload> makeAnalyzeRaces() {
  // The race check is quadratic in sections: at 16 threads / scale 4
  // one op takes about a minute, so this stays small.
  return std::make_unique<PipelineWorkload>(
      PipelineWorkload::Mode::AnalyzeRaces,
      repeated({{"mysql", makeMysql, 8, 1}}, 9));
}

std::unique_ptr<Workload> makeDetectLarge() {
  return std::make_unique<PipelineWorkload>(
      PipelineWorkload::Mode::Detect,
      std::vector<InputSpec>{{"mysql", makeMysql, 16, 32}});
}

} // namespace stagebench
