//===- tests/AppPropertyTest.cpp - whole-application properties --------------===//
//
// Cross-module invariants checked over every one of the sixteen
// application models: the full pipeline must uphold the paper's
// guarantees (determinism, semantic preservation, Equation 2
// normalization, Theorem 1) regardless of the workload.
//
//===----------------------------------------------------------------------===//

#include "core/PerfPlay.h"
#include "detect/CriticalSection.h"
#include "sim/Replayer.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

using namespace perfplay;

namespace {

class AppPipelineTest : public testing::TestWithParam<size_t> {
protected:
  const AppModel &app() const { return allApps()[GetParam()]; }

  PipelineResult run(double Scale = 0.5) {
    Trace Tr = generateWorkload(app().Factory(2, Scale));
    PipelineResult R = runPerfPlay(std::move(Tr));
    EXPECT_TRUE(R.ok()) << app().Name << ": " << R.Error;
    return R;
  }
};

} // namespace

TEST_P(AppPipelineTest, PipelineSucceeds) {
  PipelineResult R = run();
  EXPECT_TRUE(R.Original.ok());
  EXPECT_TRUE(R.UlcpFree.ok());
}

TEST_P(AppPipelineTest, TransformedTraceValid) {
  PipelineResult R = run();
  EXPECT_EQ(R.Transformation.Transformed.validate(), "") << app().Name;
}

TEST_P(AppPipelineTest, BothReplaysDeterministic) {
  PipelineResult A = run();
  PipelineResult B = run();
  EXPECT_EQ(A.Original.TotalTime, B.Original.TotalTime) << app().Name;
  EXPECT_EQ(A.UlcpFree.TotalTime, B.UlcpFree.TotalTime) << app().Name;
  EXPECT_EQ(A.Report.SumDelta, B.Report.SumDelta) << app().Name;
}

TEST_P(AppPipelineTest, EquationTwoNormalized) {
  PipelineResult R = run();
  double Sum = 0.0;
  for (const FusedUlcp &G : R.Report.Groups)
    Sum += G.P;
  if (R.Report.SumDelta > 0)
    EXPECT_NEAR(Sum, 1.0, 1e-9) << app().Name;
  // Ranked descending.
  for (size_t I = 1; I < R.Report.Groups.size(); ++I)
    EXPECT_GE(R.Report.Groups[I - 1].P, R.Report.Groups[I].P)
        << app().Name;
}

TEST_P(AppPipelineTest, FusionReachesFixpoint) {
  PipelineResult R = run();
  // No two reported groups can be fused further (Algorithm 2's final
  // state).
  for (size_t I = 0; I != R.Report.Groups.size(); ++I)
    for (size_t J = I + 1; J != R.Report.Groups.size(); ++J) {
      FusedUlcp A = R.Report.Groups[I];
      FusedUlcp B = R.Report.Groups[J];
      EXPECT_FALSE(fuseUlcpGroups(A, B))
          << app().Name << ": groups " << I << " and " << J;
    }
}

TEST_P(AppPipelineTest, CausalPairsStayOrdered) {
  PipelineResult R = run();
  for (const TopologyEdge &E : R.Transformation.Topology.edges()) {
    EXPECT_GE(R.UlcpFree.Sections[E.To].Granted,
              R.UlcpFree.Sections[E.From].Released)
        << app().Name << ": edge " << E.From << "->" << E.To;
  }
}

TEST_P(AppPipelineTest, UlcpFreeTimeNeverWorseThanFivePercent) {
  PipelineResult R = run();
  // Lockset bookkeeping may cost a little, but the transformation must
  // never make the replay materially slower.
  EXPECT_LE(R.UlcpFree.TotalTime,
            R.Original.TotalTime + R.Original.TotalTime / 20)
      << app().Name;
}

TEST_P(AppPipelineTest, SectionTimingsWellFormed) {
  PipelineResult R = run();
  for (const ReplayResult *Replay : {&R.Original, &R.UlcpFree})
    for (const CsTiming &S : Replay->Sections) {
      ASSERT_NE(S.Granted, NeverNs) << app().Name;
      ASSERT_NE(S.Released, NeverNs) << app().Name;
      EXPECT_LE(S.PrecursorStart, S.Arrival) << app().Name;
      EXPECT_LE(S.Arrival, S.Granted) << app().Name;
      EXPECT_LE(S.Granted, S.Released) << app().Name;
      if (S.SuccessorEnd != NeverNs)
        EXPECT_LE(S.Released, S.SuccessorEnd) << app().Name;
    }
}

TEST_P(AppPipelineTest, MutualExclusionInOriginalReplay) {
  Trace Tr = generateWorkload(app().Factory(2, 0.25));
  recordGrantSchedule(Tr, 42);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok()) << app().Name << ": " << R.Error;
  CsIndex Index = CsIndex::build(Tr);
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    const auto &Order = Index.sectionsOfLock(L);
    for (size_t I = 0; I + 1 < Order.size(); ++I) {
      const CsTiming &Prev = R.Sections[Order[I]];
      const CsTiming &Next = R.Sections[Order[I + 1]];
      EXPECT_LE(Prev.Released, Next.Granted)
          << app().Name << ": lock " << L;
    }
  }
}

TEST_P(AppPipelineTest, NoRacesExposedByTransformation) {
  // Theorem 1: for these models (no deliberate races) the transformed
  // trace must be race-free.
  Trace Tr = generateWorkload(app().Factory(8, 1.0));
  PipelineOptions Opts;
  Opts.CheckRaces = true;
  PipelineResult R = runPerfPlay(std::move(Tr), Opts);
  ASSERT_TRUE(R.ok()) << app().Name << ": " << R.Error;
  EXPECT_TRUE(R.Races.empty()) << app().Name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppPipelineTest,
                         testing::Range<size_t>(0, 16),
                         [](const testing::TestParamInfo<size_t> &Info) {
                           return allApps()[Info.param].Name;
                         });

//===----------------------------------------------------------------------===//
// Scheme invariants across the PARSEC models (Figure 13's claims)
//===----------------------------------------------------------------------===//

namespace {

class SchemeInvariantTest : public testing::TestWithParam<size_t> {};

} // namespace

TEST_P(SchemeInvariantTest, EnforcedSchemesAreSeedInvariant) {
  const AppModel &App = parsecApps()[GetParam()];
  Trace Tr = generateWorkload(App.Factory(2, 0.25));
  recordGrantSchedule(Tr, 42);
  for (ScheduleKind Kind :
       {ScheduleKind::ElscS, ScheduleKind::SyncS, ScheduleKind::MemS}) {
    ReplayOptions A;
    A.Schedule = Kind;
    A.Seed = 1;
    ReplayOptions B = A;
    B.Seed = 123456;
    ReplayResult RA = replayTrace(Tr, A);
    ReplayResult RB = replayTrace(Tr, B);
    ASSERT_TRUE(RA.ok() && RB.ok())
        << App.Name << "/" << scheduleKindName(Kind);
    EXPECT_EQ(RA.TotalTime, RB.TotalTime)
        << App.Name << "/" << scheduleKindName(Kind);
  }
}

TEST_P(SchemeInvariantTest, MemSNeverFasterThanElsc) {
  const AppModel &App = parsecApps()[GetParam()];
  Trace Tr = generateWorkload(App.Factory(2, 0.25));
  recordGrantSchedule(Tr, 42);
  ReplayOptions Elsc;
  Elsc.Schedule = ScheduleKind::ElscS;
  ReplayOptions Mem;
  Mem.Schedule = ScheduleKind::MemS;
  ReplayResult RE = replayTrace(Tr, Elsc);
  ReplayResult RM = replayTrace(Tr, Mem);
  ASSERT_TRUE(RE.ok() && RM.ok()) << App.Name;
  EXPECT_GE(RM.TotalTime, RE.TotalTime) << App.Name;
}

TEST_P(SchemeInvariantTest, ElscMatchesRecordedSchedule) {
  const AppModel &App = parsecApps()[GetParam()];
  Trace Tr = generateWorkload(App.Factory(2, 0.25));
  recordGrantSchedule(Tr, 42);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok()) << App.Name;
  for (size_t L = 0; L != Tr.LockSchedule.size(); ++L) {
    ASSERT_EQ(R.GrantSchedule[L].size(), Tr.LockSchedule[L].size())
        << App.Name;
    for (size_t I = 0; I != Tr.LockSchedule[L].size(); ++I)
      EXPECT_TRUE(R.GrantSchedule[L][I] == Tr.LockSchedule[L][I])
          << App.Name << ": lock " << L << " position " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Parsec, SchemeInvariantTest,
                         testing::Range<size_t>(0, 11),
                         [](const testing::TestParamInfo<size_t> &Info) {
                           return parsecApps()[Info.param].Name;
                         });
