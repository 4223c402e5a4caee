//===- tests/SessionTest.cpp - staged Engine/AnalysisSession API -------------===//
//
// The staged API's own mechanics: stage-by-stage results are identical
// to a single runPerfPlay() call, memoization returns the same object
// for repeated requests, typed errors propagate through every
// downstream stage, and Engine::analyzeBatch fans out correctly.

#include "core/Engine.h"
#include "core/PerfPlay.h"

#include "trace/TraceBuilder.h"
#include "workloads/Apps.h"
#include "workloads/CaseStudies.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

using namespace perfplay;

namespace {

/// The Figure 1 mysql scenario (same shape as PipelineTest's).
Trace figure1Trace() {
  TraceBuilder B;
  LockId Mu = B.addLock("fil_system->mutex");
  CodeSiteId S1 = B.addSite("fil0fil.cc", "fil_flush_file_spaces", 5609,
                            5614);
  CodeSiteId S2 = B.addSite("fil0fil.cc", "fil_flush", 5473, 5503);
  ThreadId T1 = B.addThread();
  ThreadId T2 = B.addThread();
  for (int I = 0; I != 5; ++I) {
    B.compute(T1, 200);
    B.beginCs(T1, Mu, S1);
    B.read(T1, 1, 3);
    B.compute(T1, 700);
    B.endCs(T1);

    B.compute(T2, 250);
    B.beginCs(T2, Mu, S2);
    B.read(T2, 2, 9);
    B.compute(T2, 700);
    B.endCs(T2);
  }
  return B.finish();
}

/// A structurally invalid trace (missing ThreadEnd).
Trace invalidTrace() {
  Trace Tr = figure1Trace();
  Tr.Threads[0].Events.pop_back();
  return Tr;
}

void expectSameReplay(const ReplayResult &A, const ReplayResult &B) {
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.TotalTime, B.TotalTime);
  EXPECT_EQ(A.ThreadFinish, B.ThreadFinish);
  EXPECT_EQ(A.SpinWaitNs, B.SpinWaitNs);
  EXPECT_EQ(A.IdleWaitNs, B.IdleWaitNs);
  EXPECT_EQ(A.LocksetOverheadNs, B.LocksetOverheadNs);
  ASSERT_EQ(A.Sections.size(), B.Sections.size());
  for (size_t I = 0; I != A.Sections.size(); ++I) {
    EXPECT_EQ(A.Sections[I].Arrival, B.Sections[I].Arrival);
    EXPECT_EQ(A.Sections[I].Granted, B.Sections[I].Granted);
    EXPECT_EQ(A.Sections[I].Released, B.Sections[I].Released);
  }
}

/// Field-by-field equality of two pipeline outcomes.
void expectSameResult(const PipelineResult &A, const PipelineResult &B) {
  EXPECT_EQ(A.Error, B.Error);
  ASSERT_EQ(A.Detection.Pairs.size(), B.Detection.Pairs.size());
  for (size_t I = 0; I != A.Detection.Pairs.size(); ++I) {
    EXPECT_EQ(A.Detection.Pairs[I].First, B.Detection.Pairs[I].First);
    EXPECT_EQ(A.Detection.Pairs[I].Second, B.Detection.Pairs[I].Second);
    EXPECT_EQ(A.Detection.Pairs[I].Kind, B.Detection.Pairs[I].Kind);
  }
  EXPECT_EQ(A.Detection.Counts.total(), B.Detection.Counts.total());
  EXPECT_EQ(A.Transformation.NumAuxLocks, B.Transformation.NumAuxLocks);
  EXPECT_EQ(A.Transformation.NumStandalone,
            B.Transformation.NumStandalone);
  EXPECT_EQ(A.Transformation.Topology.numEdges(),
            B.Transformation.Topology.numEdges());
  expectSameReplay(A.Original, B.Original);
  expectSameReplay(A.UlcpFree, B.UlcpFree);
  EXPECT_EQ(A.Report.Tpd, B.Report.Tpd);
  EXPECT_EQ(A.Report.SumDelta, B.Report.SumDelta);
  EXPECT_EQ(A.Report.Trw, B.Report.Trw);
  ASSERT_EQ(A.Report.Groups.size(), B.Report.Groups.size());
  for (size_t I = 0; I != A.Report.Groups.size(); ++I) {
    EXPECT_EQ(A.Report.Groups[I].DeltaNs, B.Report.Groups[I].DeltaNs);
    EXPECT_DOUBLE_EQ(A.Report.Groups[I].P, B.Report.Groups[I].P);
  }
  EXPECT_EQ(A.Races.size(), B.Races.size());
}

} // namespace

//===----------------------------------------------------------------------===//
// Parity with the monolithic pipeline
//===----------------------------------------------------------------------===//

TEST(SessionTest, StagedRunMatchesRunPerfPlay) {
  PipelineOptions Opts;
  Opts.CheckRaces = true;
  PipelineResult Mono = runPerfPlay(figure1Trace(), Opts);
  AnalysisSession Session{figure1Trace(), Opts};
  PipelineResult Staged = Session.run();
  ASSERT_TRUE(Mono.ok() && Staged.ok());
  expectSameResult(Mono, Staged);
}

TEST(SessionTest, OutOfOrderStagesMatchRunPerfPlay) {
  // Ask for the last stage first: prerequisites run on demand, and the
  // assembled result is still identical to the monolithic pipeline.
  PipelineResult Mono = runPerfPlay(figure1Trace());
  AnalysisSession Session{figure1Trace()};
  ASSERT_TRUE(Session.report().ok());
  ASSERT_TRUE(Session.races().ok());
  ASSERT_TRUE(Session.detect().ok());
  PipelineResult Staged = Session.run();
  ASSERT_TRUE(Mono.ok() && Staged.ok());
  expectSameResult(Mono, Staged);
}

TEST(SessionTest, WorkloadParityAcrossSchemes) {
  // Heavier workload, non-default options.
  PipelineOptions Opts;
  Opts.Detect.PairMode = PairModeKind::AllCrossThread;
  Opts.Replay.Schedule = ScheduleKind::SyncS;
  Trace Tr = generateWorkload(makeOpenldap(4, 0.5));
  PipelineResult Mono = runPerfPlay(Tr, Opts);
  AnalysisSession Session{std::move(Tr), Opts};
  PipelineResult Staged = Session.run();
  ASSERT_TRUE(Mono.ok() && Staged.ok());
  expectSameResult(Mono, Staged);
}

TEST(SessionTest, TakeRunMatchesRun) {
  AnalysisSession A{figure1Trace()};
  PipelineResult Copied = A.run();
  AnalysisSession B{figure1Trace()};
  PipelineResult Moved = B.takeRun(); // runPerfPlay's consuming path.
  ASSERT_TRUE(Copied.ok() && Moved.ok());
  expectSameResult(Copied, Moved);
}

TEST(SessionTest, RepeatedRunsReturnIdenticalResults) {
  AnalysisSession Session{figure1Trace()};
  PipelineResult First = Session.run();
  PipelineResult Second = Session.run(); // Fully served from cache.
  ASSERT_TRUE(First.ok() && Second.ok());
  expectSameResult(First, Second);
}

//===----------------------------------------------------------------------===//
// Memoization
//===----------------------------------------------------------------------===//

TEST(SessionTest, ReplayMemoizedPerSchemeAndSeed) {
  AnalysisSession Session{figure1Trace()};
  auto A = Session.replay(ScheduleKind::ElscS, 7);
  auto B = Session.replay(ScheduleKind::ElscS, 7);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(&*A, &*B) << "same {scheme, seed} must hit the cache";

  auto C = Session.replay(ScheduleKind::ElscS, 8);
  auto D = Session.replay(ScheduleKind::OrigS, 7);
  ASSERT_TRUE(C.ok() && D.ok());
  EXPECT_NE(&*A, &*C) << "different seed, different entry";
  EXPECT_NE(&*A, &*D) << "different scheme, different entry";

  // Transformed replays live in their own cache slots.
  auto E = Session.replayTransformed(ScheduleKind::ElscS, 7);
  auto F = Session.replayTransformed(ScheduleKind::ElscS, 7);
  ASSERT_TRUE(E.ok() && F.ok());
  EXPECT_EQ(&*E, &*F);
  EXPECT_NE(&*A, &*E);
}

TEST(SessionTest, ReplayCacheEvictsLeastRecentlyUsed) {
  PipelineOptions Opts;
  Opts.Replay.ReplayCacheCapacity = 4;
  AnalysisSession Session{figure1Trace(), Opts};
  // A seed sweep larger than the budget stays bounded.
  for (uint64_t Seed = 0; Seed != 20; ++Seed)
    ASSERT_TRUE(Session.replay(ScheduleKind::ElscS, Seed).ok());
  EXPECT_EQ(Session.cachedReplayCount(), 4u);

  // Seeds 16..19 are resident; re-requesting them is a cache hit
  // (same object back), while an evicted seed recomputes into a fresh
  // entry with identical contents.
  auto Hit1 = Session.replay(ScheduleKind::ElscS, 19);
  auto Hit2 = Session.replay(ScheduleKind::ElscS, 19);
  ASSERT_TRUE(Hit1.ok() && Hit2.ok());
  EXPECT_EQ(&*Hit1, &*Hit2);
  auto Evicted = Session.replay(ScheduleKind::ElscS, 0);
  ASSERT_TRUE(Evicted.ok());
  EXPECT_EQ(Session.cachedReplayCount(), 4u);

  // LRU order: touching an old entry protects it from the next insert.
  ASSERT_TRUE(Session.replay(ScheduleKind::ElscS, 19).ok());
  ASSERT_TRUE(Session.replay(ScheduleKind::ElscS, 100).ok());
  auto Touched = Session.replay(ScheduleKind::ElscS, 19);
  auto Again = Session.replay(ScheduleKind::ElscS, 19);
  ASSERT_TRUE(Touched.ok() && Again.ok());
  EXPECT_EQ(&*Touched, &*Again);
}

TEST(SessionTest, ReplayCacheCapacityZeroIsUnbounded) {
  PipelineOptions Opts;
  Opts.Replay.ReplayCacheCapacity = 0;
  AnalysisSession Session{figure1Trace(), Opts};
  for (uint64_t Seed = 0; Seed != 10; ++Seed)
    ASSERT_TRUE(Session.replay(ScheduleKind::ElscS, Seed).ok());
  EXPECT_EQ(Session.cachedReplayCount(), 10u);
}

TEST(SessionTest, TinyReplayCacheStillRunsFullPipeline) {
  // The clamp to two entries keeps run()'s original + transformed
  // replays resident even under an absurd budget.
  PipelineOptions Opts;
  Opts.Replay.ReplayCacheCapacity = 1;
  PipelineResult Mono = runPerfPlay(figure1Trace(), PipelineOptions());
  AnalysisSession Session{figure1Trace(), Opts};
  PipelineResult Budgeted = Session.run();
  ASSERT_TRUE(Budgeted.ok()) << Budgeted.Error;
  expectSameResult(Mono, Budgeted);
}

TEST(SessionTest, DetectKnobsPreserveSessionResults) {
  // Parallel + dedup detection inside a session matches the default.
  PipelineOptions Fast;
  Fast.Detect.NumThreads = 4;
  Fast.Detect.DedupPairs = true;
  PipelineResult Base = runPerfPlay(figure1Trace(), PipelineOptions());
  AnalysisSession Session{figure1Trace(), Fast};
  PipelineResult Tuned = Session.run();
  ASSERT_TRUE(Tuned.ok()) << Tuned.Error;
  expectSameResult(Base, Tuned);
}

TEST(SessionTest, StageResultsMemoized) {
  AnalysisSession Session{figure1Trace()};
  auto D1 = Session.detect();
  auto D2 = Session.detect();
  ASSERT_TRUE(D1.ok() && D2.ok());
  EXPECT_EQ(&*D1, &*D2);
  auto T1 = Session.transform();
  auto T2 = Session.transform();
  ASSERT_TRUE(T1.ok() && T2.ok());
  EXPECT_EQ(&*T1, &*T2);
  auto R1 = Session.report();
  auto R2 = Session.report();
  ASSERT_TRUE(R1.ok() && R2.ok());
  EXPECT_EQ(&*R1, &*R2);
  auto S1 = Session.soloArrivals();
  auto S2 = Session.soloArrivals();
  ASSERT_TRUE(S1.ok() && S2.ok());
  EXPECT_EQ(&*S1, &*S2);
}

TEST(SessionTest, ProgressEventsDistinguishCacheHits) {
  Engine Eng;
  std::vector<StageEvent> Events;
  Eng.setProgressCallback(
      [&Events](const StageEvent &E) { Events.push_back(E); });
  AnalysisSession Session = Eng.openSession(figure1Trace());
  ASSERT_TRUE(Session.report().ok());

  // First pass computed everything: record, detect, transform, two
  // replays, report — none from cache.
  size_t FreshReplays = 0;
  for (const StageEvent &E : Events)
    if (E.Stage == StageKind::Replay && !E.FromCache)
      ++FreshReplays;
  EXPECT_EQ(FreshReplays, 2u);
  for (const StageEvent &E : Events)
    EXPECT_FALSE(E.FromCache);

  Events.clear();
  ASSERT_TRUE(Session.report().ok());
  ASSERT_FALSE(Events.empty());
  for (const StageEvent &E : Events)
    EXPECT_TRUE(E.FromCache) << stageKindName(E.Stage);
}

TEST(SessionTest, ProgressEventsCarryStageTime) {
  Engine Eng;
  std::vector<StageEvent> Events;
  Eng.setProgressCallback(
      [&Events](const StageEvent &E) { Events.push_back(E); });
  const AppModel &App = realWorldApps().front();
  AnalysisSession Session = Eng.openSession(
      generateWorkload(App.Factory(4, 1.0)));

  ASSERT_TRUE(Session.transform().ok());
  auto Transform = [&Events] {
    for (const StageEvent &E : Events)
      if (E.Stage == StageKind::Transform)
        return E;
    ADD_FAILURE() << "no transform event";
    return StageEvent();
  };
  StageEvent Fresh = Transform();
  EXPECT_FALSE(Fresh.FromCache);
  EXPECT_GT(Fresh.Micros, 0u);
  for (const StageEvent &E : Events)
    EXPECT_FALSE(E.FromCache) << stageKindName(E.Stage);

  Events.clear();
  ASSERT_TRUE(Session.transform().ok());
  StageEvent Cached = Transform();
  EXPECT_TRUE(Cached.FromCache);
  EXPECT_EQ(Cached.Micros, 0u);
}

//===----------------------------------------------------------------------===//
// Typed errors
//===----------------------------------------------------------------------===//

TEST(SessionTest, InvalidTracePropagatesToEveryStage) {
  AnalysisSession Session{invalidTrace()};
  EXPECT_EQ(Session.ensureRecorded().code(), ErrorCode::InvalidTrace);
  EXPECT_EQ(Session.detect().code(), ErrorCode::InvalidTrace);
  EXPECT_EQ(Session.transform().code(), ErrorCode::InvalidTrace);
  EXPECT_EQ(Session.replay(ScheduleKind::ElscS).code(),
            ErrorCode::InvalidTrace);
  EXPECT_EQ(Session.replayTransformed(ScheduleKind::ElscS).code(),
            ErrorCode::InvalidTrace);
  EXPECT_EQ(Session.report().code(), ErrorCode::InvalidTrace);
  EXPECT_EQ(Session.races().code(), ErrorCode::InvalidTrace);
  EXPECT_EQ(Session.grantSchedule().code(), ErrorCode::InvalidTrace);
  EXPECT_EQ(Session.soloArrivals().code(), ErrorCode::InvalidTrace);
}

TEST(SessionTest, TypedErrorMatchesLegacyString) {
  PipelineResult Legacy = runPerfPlay(invalidTrace());
  AnalysisSession Session{invalidTrace()};
  PipelineError Err;
  PipelineResult Staged = Session.run(&Err);
  EXPECT_FALSE(Legacy.ok());
  EXPECT_FALSE(Staged.ok());
  EXPECT_EQ(Legacy.Error, Staged.Error);
  EXPECT_EQ(Err.Code, ErrorCode::InvalidTrace);
  EXPECT_EQ(Err.Message, Staged.Error);
}

TEST(SessionTest, AnalyzeReturnsTypedError) {
  AnalysisSession Good{figure1Trace()};
  Expected<PipelineResult> R = Good.analyze();
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_GT(R->Detection.Counts.ReadRead, 0u);

  AnalysisSession Bad{invalidTrace()};
  Expected<PipelineResult> E = Bad.analyze();
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.code(), ErrorCode::InvalidTrace);
  EXPECT_NE(E.message().find("invalid input trace"), std::string::npos);
}

TEST(SessionTest, ReplayDeadlockYieldsReplayErrorCode) {
  // Cross-inverted per-lock grant orders are unsatisfiable: the replay
  // engine reports an enforced-order deadlock, which the session
  // surfaces as OriginalReplayFailed (and run() preserves the legacy
  // partial result exactly like runPerfPlay).
  auto makeDeadlocked = [] {
    TraceBuilder B;
    LockId A = B.addLock("a");
    LockId C = B.addLock("c");
    (void)A;
    (void)C;
    ThreadId T0 = B.addThread();
    ThreadId T1 = B.addThread();
    B.compute(T1, 100);
    B.beginCs(T1, C);
    B.compute(T1, 200);
    B.beginCs(T1, A);
    B.compute(T1, 50);
    B.endCs(T1);
    B.endCs(T1);
    B.compute(T0, 5000);
    B.beginCs(T0, A);
    B.compute(T0, 200);
    B.beginCs(T0, C);
    B.compute(T0, 50);
    B.endCs(T0);
    B.endCs(T0);
    Trace Tr = B.finish();
    Tr.LockSchedule.assign(Tr.Locks.size(), {});
    Tr.LockSchedule[0] = {CsRef{0, 0}, CsRef{1, 1}};
    Tr.LockSchedule[1] = {CsRef{1, 0}, CsRef{0, 1}};
    return Tr;
  };

  AnalysisSession Session{makeDeadlocked()};
  auto R = Session.replay(ScheduleKind::ElscS);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.code(), ErrorCode::OriginalReplayFailed);
  EXPECT_NE(R.message().find("deadlock"), std::string::npos);
  // Detection and transformation still work on the same session.
  EXPECT_TRUE(Session.detect().ok());
  EXPECT_TRUE(Session.transform().ok());

  PipelineError Err;
  PipelineResult Staged = Session.run(&Err);
  EXPECT_EQ(Err.Code, ErrorCode::OriginalReplayFailed);
  PipelineResult Legacy = runPerfPlay(makeDeadlocked());
  EXPECT_EQ(Legacy.Error, Staged.Error);
  EXPECT_EQ(Legacy.Original.Error, Staged.Original.Error);
}

TEST(SessionTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(errorCodeName(ErrorCode::Success), "success");
  EXPECT_STREQ(errorCodeName(ErrorCode::InvalidTrace), "invalid-trace");
  EXPECT_STREQ(errorCodeName(ErrorCode::OriginalReplayFailed),
               "original-replay-failed");
  EXPECT_STREQ(errorCodeName(ErrorCode::BatchItemFailed),
               "batch-item-failed");
  EXPECT_STREQ(errorCodeName(ErrorCode::IncompatibleOptions),
               "incompatible-options");
}

TEST(SessionTest, ReportRejectsCountsOnlyDetection) {
  // A Sink/CountsOnly detection has no pair list for report() to rank;
  // the stage must fail typed instead of silently reporting "no
  // contention".
  PipelineOptions Opts;
  Opts.Detect.CountsOnly = true;
  AnalysisSession Session{figure1Trace(), Opts};
  ASSERT_TRUE(Session.detect().ok());
  auto Report = Session.report();
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.code(), ErrorCode::IncompatibleOptions);

  PipelineOptions SinkOpts;
  SinkOpts.Detect.Sink = [](const UlcpPair &) {};
  AnalysisSession SinkSession{figure1Trace(), SinkOpts};
  EXPECT_EQ(SinkSession.report().code(), ErrorCode::IncompatibleOptions);
  // Stages that do not need the pair list still work.
  EXPECT_TRUE(SinkSession.transform().ok());
  EXPECT_TRUE(SinkSession.races().ok());
}

TEST(SessionTest, StreamingDetectionRunSkipsReportOnly) {
  // run()/analyze()/analyzeBatch stay usable with streaming detection:
  // every stage but the (impossible) report runs, and the counts match
  // a materialized run.
  PipelineResult Full = runPerfPlay(figure1Trace(), PipelineOptions());

  PipelineOptions Opts;
  Opts.Detect.CountsOnly = true;
  AnalysisSession Session{figure1Trace(), Opts};
  PipelineResult Streamed = Session.run();
  ASSERT_TRUE(Streamed.ok()) << Streamed.Error;
  EXPECT_TRUE(Streamed.Detection.Pairs.empty());
  EXPECT_EQ(Streamed.Detection.Counts.total(),
            Full.Detection.Counts.total());
  EXPECT_EQ(Streamed.Original.TotalTime, Full.Original.TotalTime);
  EXPECT_EQ(Streamed.UlcpFree.TotalTime, Full.UlcpFree.TotalTime);
  EXPECT_TRUE(Streamed.Report.Groups.empty()) << "report stage skipped";

  Engine Eng;
  Eng.options().Detect.CountsOnly = true;
  std::vector<Trace> Traces;
  Traces.push_back(figure1Trace());
  Traces.push_back(figure1Trace());
  std::vector<Expected<PipelineResult>> Batch =
      Eng.analyzeBatch(std::move(Traces), 2);
  for (const Expected<PipelineResult> &Item : Batch) {
    ASSERT_TRUE(Item.ok());
    EXPECT_EQ(Item->Detection.Counts.total(),
              Full.Detection.Counts.total());
    EXPECT_TRUE(Item->Detection.Pairs.empty());
  }
}

//===----------------------------------------------------------------------===//
// Batch analysis
//===----------------------------------------------------------------------===//

TEST(SessionTest, BatchMatchesIndividualRuns) {
  CaseStudyParams P;
  P.NumThreads = 4;
  std::vector<Trace> Traces;
  Traces.push_back(figure1Trace());
  Traces.push_back(makePbzip2Consumer(P));
  Traces.push_back(generateWorkload(makeOpenldap(2, 0.5)));

  Engine Eng;
  std::vector<Expected<PipelineResult>> Batch =
      Eng.analyzeBatch(std::move(Traces), 3);
  ASSERT_EQ(Batch.size(), 3u);
  for (const auto &Item : Batch)
    ASSERT_TRUE(Item.ok()) << Item.message();

  expectSameResult(*Batch[0], runPerfPlay(figure1Trace()));
  expectSameResult(*Batch[1], runPerfPlay(makePbzip2Consumer(P)));
  expectSameResult(*Batch[2],
                   runPerfPlay(generateWorkload(makeOpenldap(2, 0.5))));
}

TEST(SessionTest, BatchIsolatesFailures) {
  std::vector<Trace> Traces;
  Traces.push_back(figure1Trace());
  Traces.push_back(invalidTrace());
  Traces.push_back(figure1Trace());

  Engine Eng;
  std::vector<Expected<PipelineResult>> Batch =
      Eng.analyzeBatch(std::move(Traces), 2);
  ASSERT_EQ(Batch.size(), 3u);
  EXPECT_TRUE(Batch[0].ok());
  ASSERT_FALSE(Batch[1].ok());
  EXPECT_EQ(Batch[1].code(), ErrorCode::InvalidTrace);
  EXPECT_TRUE(Batch[2].ok());

  AggregatedReport Agg = aggregateBatch(Batch);
  EXPECT_EQ(Agg.NumRuns, 2u);
  EXPECT_EQ(Agg.NumFailed, 1u);
}

TEST(SessionTest, BatchEmptyAndSingleThread) {
  Engine Eng;
  EXPECT_TRUE(Eng.analyzeBatch({}, 4).empty());
  std::vector<Trace> One;
  One.push_back(figure1Trace());
  std::vector<Expected<PipelineResult>> Batch =
      Eng.analyzeBatch(std::move(One), 1);
  ASSERT_EQ(Batch.size(), 1u);
  EXPECT_TRUE(Batch[0].ok());
}

TEST(SessionTest, BatchTagsProgressWithTraceIndex) {
  Engine Eng;
  std::set<size_t> SeenIndices;
  Eng.setProgressCallback([&SeenIndices](const StageEvent &E) {
    SeenIndices.insert(E.TraceIndex);
  });
  std::vector<Trace> Traces;
  for (int I = 0; I != 4; ++I)
    Traces.push_back(figure1Trace());
  std::vector<Expected<PipelineResult>> Batch =
      Eng.analyzeBatch(std::move(Traces), 2);
  for (const auto &Item : Batch)
    EXPECT_TRUE(Item.ok());
  EXPECT_EQ(SeenIndices, (std::set<size_t>{0, 1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// Streaming batch analysis
//===----------------------------------------------------------------------===//

TEST(SessionTest, StreamingBatchMatchesMaterializedBatch) {
  CaseStudyParams P;
  P.NumThreads = 4;
  auto MakeTraces = [&] {
    std::vector<Trace> Traces;
    Traces.push_back(figure1Trace());
    Traces.push_back(makePbzip2Consumer(P));
    Traces.push_back(generateWorkload(makeOpenldap(2, 0.5)));
    return Traces;
  };

  Engine Eng;
  std::vector<Expected<PipelineResult>> Batch =
      Eng.analyzeBatch(MakeTraces(), 3);

  // Each result streams through the consumer exactly once with the
  // right index, carrying the same values the materialized batch has.
  std::set<size_t> Delivered;
  AggregatedReport Agg = Eng.analyzeBatchStreaming(
      MakeTraces(),
      [&](size_t I, Expected<PipelineResult> Item) {
        EXPECT_TRUE(Delivered.insert(I).second) << "duplicate " << I;
        ASSERT_LT(I, Batch.size());
        ASSERT_TRUE(Item.ok()) << Item.message();
        expectSameResult(*Item, *Batch[I]);
      },
      3);
  EXPECT_EQ(Delivered, (std::set<size_t>{0, 1, 2}));

  // The aggregate is assembled in trace order, so it is identical to
  // aggregating the materialized batch — regardless of which worker
  // finished first.
  AggregatedReport Materialized = aggregateBatch(Batch);
  EXPECT_EQ(Agg.NumRuns, Materialized.NumRuns);
  EXPECT_EQ(Agg.NumFailed, Materialized.NumFailed);
  EXPECT_DOUBLE_EQ(Agg.MeanDegradation, Materialized.MeanDegradation);
  EXPECT_EQ(renderAggregatedReport(Agg),
            renderAggregatedReport(Materialized));
}

TEST(SessionTest, StreamingBatchIsolatesFailures) {
  std::vector<Trace> Traces;
  Traces.push_back(figure1Trace());
  Traces.push_back(invalidTrace());
  Traces.push_back(figure1Trace());

  Engine Eng;
  unsigned NumOk = 0, NumFailed = 0;
  AggregatedReport Agg = Eng.analyzeBatchStreaming(
      std::move(Traces),
      [&](size_t I, Expected<PipelineResult> Item) {
        if (I == 1) {
          ASSERT_FALSE(Item.ok());
          EXPECT_EQ(Item.code(), ErrorCode::InvalidTrace);
          ++NumFailed;
        } else {
          EXPECT_TRUE(Item.ok()) << Item.message();
          ++NumOk;
        }
      },
      2);
  EXPECT_EQ(NumOk, 2u);
  EXPECT_EQ(NumFailed, 1u);
  EXPECT_EQ(Agg.NumRuns, 2u);
  EXPECT_EQ(Agg.NumFailed, 1u);
}

TEST(SessionTest, StreamingBatchToleratesNullConsumerAndEmptyBatch) {
  Engine Eng;
  AggregatedReport Empty =
      Eng.analyzeBatchStreaming({}, Engine::BatchResultConsumer());
  EXPECT_EQ(Empty.NumRuns, 0u);
  std::vector<Trace> One;
  One.push_back(figure1Trace());
  AggregatedReport Agg = Eng.analyzeBatchStreaming(
      std::move(One), Engine::BatchResultConsumer(), 1);
  EXPECT_EQ(Agg.NumRuns, 1u);
  EXPECT_EQ(Agg.NumFailed, 0u);
}

// Batch workers multiplied by per-session detection threads must never
// oversubscribe the machine (the nested-pool fix).
TEST(SessionTest, CappedDetectThreadsBoundsTheProduct) {
  unsigned Hardware = std::thread::hardware_concurrency();
  if (Hardware == 0)
    Hardware = 1;
  Hardware = std::min(Hardware, 256u);
  for (unsigned Requested : {0u, 1u, 2u, 8u, 64u})
    for (unsigned Workers : {1u, 2u, 4u, 16u, 300u}) {
      unsigned Capped = Engine::cappedDetectThreads(Requested, Workers);
      EXPECT_GE(Capped, 1u);
      EXPECT_LE(static_cast<uint64_t>(Capped) * Workers,
                static_cast<uint64_t>(std::max(Hardware, Workers)))
          << "req " << Requested << " workers " << Workers;
      if (Requested == 1)
        EXPECT_EQ(Capped, 1u);
    }
  // A lone session keeps its full requested width.
  EXPECT_EQ(Engine::cappedDetectThreads(0, 1), Hardware);
}

//===----------------------------------------------------------------------===//
// File-backed sessions
//===----------------------------------------------------------------------===//

TEST(SessionTest, OpenSessionFromFileMatchesInMemorySession) {
  Engine Eng;
  std::string Err;
  for (TraceFormat Format :
       {TraceFormat::Text, TraceFormat::Binary, TraceFormat::V3}) {
    std::string Path = testing::TempDir() + "perfplay_session.trace";
    ASSERT_TRUE(saveTrace(figure1Trace(), Path, Err, Format)) << Err;
    Expected<AnalysisSession> FromFile = Eng.openSessionFromFile(Path);
    ASSERT_TRUE(FromFile.ok()) << FromFile.message();
    PipelineResult FileRun = FromFile->run();
    ASSERT_TRUE(FileRun.ok()) << FileRun.Error;
    expectSameResult(FileRun, runPerfPlay(figure1Trace()));
    std::remove(Path.c_str());

    Expected<AnalysisSession> Missing = Eng.openSessionFromFile(Path);
    ASSERT_FALSE(Missing.ok());
    EXPECT_EQ(Missing.code(), ErrorCode::TraceIOFailed);
  }
}

// A session owns every byte of its trace: the file it was opened from
// may be rewritten in place — here with different lock names and a
// shorter length — without the session seeing the new bytes.  (A
// session that kept names pointing into a live file mapping would
// read the new names, or take SIGBUS past the shortened end.)
TEST(SessionTest, SessionOutlivesInPlaceRewriteOfItsFile) {
  auto namedTrace = [](const std::string &Prefix, int Sections) {
    TraceBuilder B;
    LockId Mu = B.addLock(Prefix + "_mutex");
    CodeSiteId Site = B.addSite(Prefix + ".cc", Prefix + "_fn", 1, 9);
    ThreadId T1 = B.addThread();
    ThreadId T2 = B.addThread();
    for (int I = 0; I != Sections; ++I)
      for (ThreadId T : {T1, T2}) {
        B.compute(T, 100);
        B.beginCs(T, Mu, Site);
        B.read(T, 1, 0);
        B.endCs(T);
      }
    return B.finish();
  };
  std::string Path = testing::TempDir() + "perfplay_session_rewrite.v3";
  std::string Err;
  ASSERT_TRUE(saveTrace(namedTrace("original_lock_name", 64), Path, Err,
                        TraceFormat::V3))
      << Err;

  Engine Eng;
  Expected<AnalysisSession> Session = Eng.openSessionFromFile(Path);
  ASSERT_TRUE(Session.ok()) << Session.message();

  // saveTrace opens with "wb": the same inode, truncated and rewritten.
  ASSERT_TRUE(saveTrace(namedTrace("REWRITTEN", 1), Path, Err,
                        TraceFormat::V3))
      << Err;

  EXPECT_EQ(Session->trace().lockName(0), "original_lock_name_mutex");
  EXPECT_EQ(Session->trace().siteFile(0), "original_lock_name.cc");
  Expected<const PerfDebugReport &> Report = Session->report();
  ASSERT_TRUE(Report.ok()) << Report.message();
  ASSERT_FALSE(Report->Groups.empty());
  const std::string Rendered = renderReport(*Report);
  EXPECT_NE(Rendered.find("original_lock_name.cc"), std::string::npos)
      << Rendered;
  EXPECT_EQ(Rendered.find("REWRITTEN"), std::string::npos) << Rendered;
  std::remove(Path.c_str());
}

TEST(SessionTest, FileStreamingBatchLoadsLazilyAndIsolatesLoadFailures) {
  std::string Dir = testing::TempDir();
  std::string Good1 = Dir + "perfplay_batch1.btrace";
  std::string Good2 = Dir + "perfplay_batch2.trace";
  std::string Missing = Dir + "perfplay_batch_missing.trace";
  std::string Err;
  ASSERT_TRUE(saveTrace(figure1Trace(), Good1, Err, TraceFormat::Binary))
      << Err;
  ASSERT_TRUE(saveTrace(figure1Trace(), Good2, Err, TraceFormat::Text))
      << Err;
  std::remove(Missing.c_str());

  Engine Eng;
  PipelineResult Reference = runPerfPlay(figure1Trace());
  std::set<size_t> Delivered;
  AggregatedReport Agg = Eng.analyzeBatchFilesStreaming(
      {Good1, Missing, Good2},
      [&](size_t I, Expected<PipelineResult> Item) {
        EXPECT_TRUE(Delivered.insert(I).second);
        if (I == 1) {
          ASSERT_FALSE(Item.ok());
          EXPECT_EQ(Item.code(), ErrorCode::TraceIOFailed);
        } else {
          ASSERT_TRUE(Item.ok()) << Item.message();
          expectSameResult(*Item, Reference);
        }
      },
      2);
  EXPECT_EQ(Delivered, (std::set<size_t>{0, 1, 2}));
  EXPECT_EQ(Agg.NumRuns, 2u);
  EXPECT_EQ(Agg.NumFailed, 1u);
  std::remove(Good1.c_str());
  std::remove(Good2.c_str());
}
