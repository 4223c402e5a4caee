//===- tests/TransformTest.cpp - RULE 1-4 transformation tests --------------===//

#include "transform/Transform.h"

#include "detect/Detector.h"
#include "sim/Replayer.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "transform/RaceCheck.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace perfplay;

namespace {

/// The Figure 7 example.  Shared data: addr 1 ("data 1") and addr 2
/// ("data 2").  Sections in recorded order:
///   R1(T1) < R2(T2) < W1st(T3) < R2(T1) < W1(T2) < W2nd(T3)
/// Global ids by thread-major numbering:
///   0 = R1(T1), 1 = R2(T1), 2 = R2(T2), 3 = W1(T2),
///   4 = W1st(T3), 5 = W2nd(T3).
struct Figure7 {
  Trace Tr;
  static constexpr uint32_t R1T1 = 0, R2T1 = 1, R2T2 = 2, W1T2 = 3,
                            W1T3a = 4, W1T3b = 5;

  Figure7() {
    TraceBuilder B;
    LockId L = B.addLock("L");
    CodeSiteId Site = B.addSite("fig7.cc", "f", 1, 10);
    ThreadId T1 = B.addThread();
    ThreadId T2 = B.addThread();
    ThreadId T3 = B.addThread();

    auto cs = [&](ThreadId T, bool IsWrite, AddrId Addr, uint64_t V) {
      B.compute(T, 50);
      B.beginCs(T, L, Site);
      if (IsWrite)
        B.write(T, Addr, V);
      else
        B.read(T, Addr, 0);
      B.compute(T, 100);
      B.endCs(T);
    };

    cs(T1, false, 1, 0); // R1 (reads data 1)
    cs(T1, false, 2, 0); // R2
    cs(T2, false, 2, 0); // R2
    cs(T2, true, 1, 2);  // W1 (stores 2)
    cs(T3, true, 1, 1);  // W1 first (stores 1)
    cs(T3, true, 1, 3);  // W1 second (stores 3)

    Tr = B.finish();
    Tr.LockSchedule.assign(Tr.Locks.size(), {});
    Tr.LockSchedule[L] = {CsRef{0, 0}, CsRef{1, 0}, CsRef{2, 0},
                          CsRef{0, 1}, CsRef{1, 1}, CsRef{2, 1}};
  }
};

bool hasEdge(const TopologyGraph &G, uint32_t From, uint32_t To) {
  const auto &Succ = G.successors(From);
  return std::find(Succ.begin(), Succ.end(), To) != Succ.end();
}

} // namespace

//===----------------------------------------------------------------------===//
// RULE 1: topology of the Figure 7 example
//===----------------------------------------------------------------------===//

TEST(TopologyTest, Figure7CausalEdges) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TopologyGraph G = buildTopology(F.Tr, Index);

  // The four causal edges of Figure 7(b).
  EXPECT_TRUE(hasEdge(G, Figure7::R1T1, Figure7::W1T2));
  EXPECT_TRUE(hasEdge(G, Figure7::R1T1, Figure7::W1T3a));
  EXPECT_TRUE(hasEdge(G, Figure7::W1T3a, Figure7::W1T2));
  EXPECT_TRUE(hasEdge(G, Figure7::W1T2, Figure7::W1T3b));
  EXPECT_EQ(G.numEdges(), 4u);
}

TEST(TopologyTest, Figure7StandaloneNodes) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TopologyGraph G = buildTopology(F.Tr, Index);
  EXPECT_TRUE(G.isStandalone(Figure7::R2T1));
  EXPECT_TRUE(G.isStandalone(Figure7::R2T2));
  EXPECT_FALSE(G.isStandalone(Figure7::R1T1));
  EXPECT_FALSE(G.isStandalone(Figure7::W1T3b));
}

TEST(TopologyTest, FirstMatchOnlyPerThread) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TopologyGraph G = buildTopology(F.Tr, Index);
  // R1 must NOT also edge to the second W1 in T3 (first-match rule).
  EXPECT_FALSE(hasEdge(G, Figure7::R1T1, Figure7::W1T3b));
}

TEST(TopologyTest, NoEdgesWithoutContention) {
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (int I = 0; I != 3; ++I) {
    B.beginCs(T0, L);
    B.read(T0, 1, 0);
    B.endCs(T0);
    B.beginCs(T1, L);
    B.read(T1, 1, 0);
    B.endCs(T1);
  }
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  EXPECT_EQ(G.numEdges(), 0u);
}

//===----------------------------------------------------------------------===//
// RULE 3: lockset assignment of the Figure 8 example
//===----------------------------------------------------------------------===//

namespace {

std::set<LockId> locksetOf(const TransformResult &R, uint32_t Cs) {
  std::set<LockId> Out;
  const Trace &Tr = R.Transformed;
  CsRef Ref = Tr.csRefOf(Cs);
  uint32_t Index = 0;
  for (const Event &E : Tr.Threads[Ref.Thread].Events)
    if (E.Kind == EventKind::LockAcquire) {
      if (Index++ != Ref.Index)
        continue;
      if (E.Lockset != InvalidId)
        for (const LocksetEntry &Entry : Tr.Locksets[E.Lockset].Entries)
          Out.insert(Entry.Lock);
      break;
    }
  return Out;
}

} // namespace

TEST(TransformTest, Figure8AuxiliaryLocks) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);

  // Nodes with outdegree get their own auxiliary lock.
  EXPECT_NE(R.AuxLockOfCs[Figure7::R1T1], InvalidId);
  EXPECT_NE(R.AuxLockOfCs[Figure7::W1T2], InvalidId);
  EXPECT_NE(R.AuxLockOfCs[Figure7::W1T3a], InvalidId);
  // Pure-indegree and standalone nodes get none.
  EXPECT_EQ(R.AuxLockOfCs[Figure7::W1T3b], InvalidId);
  EXPECT_EQ(R.AuxLockOfCs[Figure7::R2T1], InvalidId);
  EXPECT_EQ(R.NumAuxLocks, 3u);
  EXPECT_EQ(R.NumStandalone, 2u);

  // Auxiliary lock names carry the @L prefix for discrimination.
  for (uint32_t Cs : {Figure7::R1T1, Figure7::W1T2, Figure7::W1T3a}) {
    std::string_view Name = R.Transformed.lockName(R.AuxLockOfCs[Cs]);
    EXPECT_EQ(Name.substr(0, 2), "@L");
  }
}

TEST(TransformTest, Figure8Locksets) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  LockId L11 = R.AuxLockOfCs[Figure7::R1T1];
  LockId L21 = R.AuxLockOfCs[Figure7::W1T2];
  LockId L31 = R.AuxLockOfCs[Figure7::W1T3a];

  // The paper's example: the first W1 in T3 ends with LS={@L11,@L31}.
  EXPECT_EQ(locksetOf(R, Figure7::W1T3a), (std::set<LockId>{L11, L31}));
  EXPECT_EQ(locksetOf(R, Figure7::R1T1), (std::set<LockId>{L11}));
  EXPECT_EQ(locksetOf(R, Figure7::W1T2),
            (std::set<LockId>{L21, L11, L31}));
  EXPECT_EQ(locksetOf(R, Figure7::W1T3b), (std::set<LockId>{L21}));
  // Standalone nodes: empty lockset (lock removed).
  EXPECT_TRUE(locksetOf(R, Figure7::R2T1).empty());
  EXPECT_TRUE(locksetOf(R, Figure7::R2T2).empty());
}

TEST(TransformTest, Rule2ConstraintsPreservePartialOrder) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  std::set<std::pair<uint32_t, uint32_t>> Cons;
  for (const OrderConstraint &C : R.Transformed.Constraints)
    Cons.insert({C.Before, C.After});
  // The chain R1(T1) < W1st(T3) < W1(T2) < W2nd(T3) must be present.
  EXPECT_TRUE(Cons.count({Figure7::R1T1, Figure7::W1T3a}));
  EXPECT_TRUE(Cons.count({Figure7::W1T3a, Figure7::W1T2}));
  EXPECT_TRUE(Cons.count({Figure7::W1T2, Figure7::W1T3b}));
  // Standalone nodes appear in no constraint.
  for (const auto &[Before, After] : Cons) {
    EXPECT_NE(Before, Figure7::R2T1);
    EXPECT_NE(After, Figure7::R2T2);
  }
}

TEST(TransformTest, TransformedTraceValidates) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  EXPECT_EQ(R.Transformed.validate(), "");
  EXPECT_EQ(R.Transformed.numCriticalSections(),
            F.Tr.numCriticalSections());
}

TEST(TransformTest, ReplayPreservesCausalOrder) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  ReplayOptions Opts;
  ReplayResult Replay = replayTrace(R.Transformed, Opts);
  ASSERT_TRUE(Replay.ok()) << Replay.Error;
  // Causal (true-contention) pairs remain mutually exclusive and
  // ordered: each edge's target is granted at/after the source grant
  // and never overlaps it.
  for (const TopologyEdge &E : R.Topology.edges()) {
    EXPECT_GE(Replay.Sections[E.To].Granted,
              Replay.Sections[E.From].Granted);
    EXPECT_GE(Replay.Sections[E.To].Granted,
              Replay.Sections[E.From].Released);
  }
}

TEST(TransformTest, UlcpFreeReplayNoSlowerThanOriginal) {
  Figure7 F;
  recordGrantSchedule(F.Tr, 3);
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  ReplayOptions Opts;
  Opts.Costs.LocksetMaintain = 0; // Compare pure ordering effect.
  ReplayResult Orig = replayTrace(F.Tr, Opts);
  ReplayResult Free = replayTrace(R.Transformed, Opts);
  ASSERT_TRUE(Orig.ok() && Free.ok());
  EXPECT_LE(Free.TotalTime, Orig.TotalTime);
}

//===----------------------------------------------------------------------===//
// Properties over generated traces
//===----------------------------------------------------------------------===//

namespace {

Trace propertyTrace(uint64_t Seed) {
  TraceBuilder B;
  LockId L0 = B.addLock("a");
  LockId L1 = B.addLock("b");
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread(),
                               B.addThread()};
  uint64_t State = Seed;
  auto next = [&State] { return State = splitMix64(State); };
  for (ThreadId T : Ids)
    for (int S = 0; S != 5; ++S) {
      LockId L = next() % 2 ? L0 : L1;
      B.compute(T, next() % 400 + 1);
      B.beginCs(T, L);
      switch (next() % 4) {
      case 0:
        break; // Null body.
      case 1:
        B.read(T, L * 100, 0);
        break;
      case 2:
        B.write(T, L * 100 + T + 1, next() % 50);
        break;
      case 3:
        B.read(T, L * 100, 0);
        B.write(T, L * 100, next() % 50);
        break;
      }
      B.compute(T, next() % 200 + 1);
      B.endCs(T);
    }
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, Seed);
  return Tr;
}

class TransformPropertyTest : public testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(TransformPropertyTest, TransformedAlwaysValid) {
  Trace Tr = propertyTrace(GetParam());
  CsIndex Index = CsIndex::build(Tr);
  TransformResult R = transformTrace(Tr, Index);
  EXPECT_EQ(R.Transformed.validate(), "");
}

TEST_P(TransformPropertyTest, TransformedReplayDeterministic) {
  Trace Tr = propertyTrace(GetParam());
  CsIndex Index = CsIndex::build(Tr);
  TransformResult R = transformTrace(Tr, Index);
  ReplayOptions A;
  A.Seed = 1;
  ReplayOptions B;
  B.Seed = 999;
  ReplayResult RA = replayTrace(R.Transformed, A);
  ReplayResult RB = replayTrace(R.Transformed, B);
  ASSERT_TRUE(RA.ok() && RB.ok()) << RA.Error << RB.Error;
  EXPECT_EQ(RA.TotalTime, RB.TotalTime);
}

TEST_P(TransformPropertyTest, TrueContentionStaysExclusive) {
  Trace Tr = propertyTrace(GetParam());
  CsIndex Index = CsIndex::build(Tr);
  TransformResult R = transformTrace(Tr, Index);
  ReplayResult Replay = replayTrace(R.Transformed, ReplayOptions());
  ASSERT_TRUE(Replay.ok()) << Replay.Error;
  for (const TopologyEdge &E : R.Topology.edges())
    EXPECT_GE(Replay.Sections[E.To].Granted,
              Replay.Sections[E.From].Released)
        << "edge " << E.From << "->" << E.To;
}

TEST_P(TransformPropertyTest, DlsEquivalentToFullLocksets) {
  Trace Tr = propertyTrace(GetParam());
  CsIndex Index = CsIndex::build(Tr);
  TransformResult R = transformTrace(Tr, Index);
  ReplayOptions WithDls;
  WithDls.UseDynamicLocking = true;
  // Zero per-lock costs so the only observable difference DLS could
  // introduce is an ordering one — which there must not be.
  WithDls.Costs.LocksetMaintain = 0;
  WithDls.Costs.LocksetMaintainDls = 0;
  WithDls.Costs.LocksetEndCheck = 0;
  WithDls.Costs.LockAcquire = 0;
  WithDls.Costs.LockRelease = 0;
  ReplayOptions NoDls = WithDls;
  NoDls.UseDynamicLocking = false;
  ReplayResult RDls = replayTrace(R.Transformed, WithDls);
  ReplayResult RFull = replayTrace(R.Transformed, NoDls);
  ASSERT_TRUE(RDls.ok() && RFull.ok());
  // DLS may only skip locks whose source finished: ordering of causal
  // pairs is unchanged, and with zero maintenance cost so is the time.
  EXPECT_EQ(RDls.TotalTime, RFull.TotalTime);
  EXPECT_LE(RDls.LocksetLocksAcquired, RFull.LocksetLocksAcquired);
  for (const TopologyEdge &E : R.Topology.edges())
    EXPECT_GE(RDls.Sections[E.To].Granted,
              RDls.Sections[E.From].Released);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformPropertyTest,
                         testing::Values(101, 202, 303, 404, 505, 606,
                                         707, 808));

//===----------------------------------------------------------------------===//
// Theorem 1: race reporting
//===----------------------------------------------------------------------===//

TEST(RaceCheckTest, CleanTransformReportsNoRaces) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  Expected<std::vector<RaceReport>> Races =
      checkRaces(R.Transformed, Index, R.Topology);
  ASSERT_TRUE(Races.ok()) << Races.message();
  EXPECT_TRUE(Races->empty());
}

TEST(RaceCheckTest, ExposedConflictIsReported) {
  // Two sections that conflict on addr 9 but were (wrongly) given
  // empty locksets and no ordering: the race check must flag them.
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, L);
  B.write(T0, 9, 1);
  B.endCs(T0);
  B.beginCs(T1, L);
  B.write(T1, 9, 2);
  B.endCs(T1);
  Trace Tr = B.finish();
  Tr.Locksets.push_back(Lockset());
  for (auto &Thread : Tr.Threads)
    for (auto &E : Thread.Events)
      if (E.Kind == EventKind::LockAcquire)
        E.Lockset = 0;
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(Tr.numCriticalSections());
  Expected<std::vector<RaceReport>> Races = checkRaces(Tr, Index, EmptyTopo);
  ASSERT_TRUE(Races.ok()) << Races.message();
  ASSERT_EQ(Races->size(), 1u);
  EXPECT_EQ((*Races)[0].Addr, 9u);
}

TEST(RaceCheckTest, SharedLockSuppressesRace) {
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, L);
  B.write(T0, 9, 1);
  B.endCs(T0);
  B.beginCs(T1, L);
  B.write(T1, 9, 2);
  B.endCs(T1);
  Trace Tr = B.finish(); // Untransformed: plain {L} locksets.
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(Tr.numCriticalSections());
  EXPECT_TRUE(checkRaces(Tr, Index, EmptyTopo).value().empty());
}

TEST(RaceCheckTest, UnlockedConflictingAccessesReported) {
  TraceBuilder B;
  B.addLock("unused");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.write(T0, 5, 1, WriteOpKind::Store, /*AllowUnlocked=*/true);
  B.read(T1, 5, 0, /*AllowUnlocked=*/true);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(0);
  Expected<std::vector<RaceReport>> Races = checkRaces(Tr, Index, EmptyTopo);
  ASSERT_TRUE(Races.ok()) << Races.message();
  ASSERT_EQ(Races->size(), 1u);
  EXPECT_EQ((*Races)[0].CsA, InvalidId);
}

TEST(RaceCheckTest, ReadOnlySharingIsNotARace) {
  TraceBuilder B;
  B.addLock("unused");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.read(T0, 5, 0, /*AllowUnlocked=*/true);
  B.read(T1, 5, 0, /*AllowUnlocked=*/true);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(0);
  EXPECT_TRUE(checkRaces(Tr, Index, EmptyTopo).value().empty());
}
