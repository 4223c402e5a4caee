//===- tests/RaceCheckParityTest.cpp - vector-clock race check parity -------===//
//
// checkRaces computes happens-before with per-section vector clocks and
// pairs accesses within address buckets.  This test keeps the original
// implementation — a Floyd-Warshall closure over an N x N reachability
// matrix and an all-pairs access scan — as the reference, and requires
// identical RaceReport vectors (order included) on every application
// model, both as transformed and after mutations that expose races.
// The reference's only change is word-packed matrix rows, which keep
// its closure affordable at the corpus's 1.5k sections.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/PerfPlay.h"
#include "detect/Classify.h"
#include "detect/ReversedReplay.h"
#include "support/AddrSet.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "transform/RaceCheck.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <set>
#include <tuple>

using namespace perfplay;

namespace {

//===----------------------------------------------------------------------===//
// Reference implementation (the pre-vector-clock checkRaces)
//===----------------------------------------------------------------------===//

namespace oracle {

/// One shared access with its protection context.
struct AccessRecord {
  ThreadId Thread;
  AddrId Addr;
  bool IsWrite;
  /// Enclosing critical sections, outermost first (empty if unlocked).
  std::vector<uint32_t> Enclosing;
};

/// Reachability over program order + causal edges + constraints,
/// computed as a Floyd-Warshall transitive closure over an N x N bit
/// matrix.  The rows are packed into 64-bit words so the closure's
/// innermost loop ORs whole words; the matrix it computes is the
/// original's bit for bit.
class ReachMatrix {
public:
  explicit ReachMatrix(size_t N) : Words((N + 63) / 64), Bits(N * Words) {}

  void set(size_t I, size_t J) { Bits[I * Words + J / 64] |= bit(J); }
  bool test(size_t I, size_t J) const {
    return Bits[I * Words + J / 64] & bit(J);
  }
  /// Row I |= row K.
  void orRow(size_t I, size_t K) {
    for (size_t W = 0; W != Words; ++W)
      Bits[I * Words + W] |= Bits[K * Words + W];
  }

private:
  static uint64_t bit(size_t J) { return uint64_t(1) << (J % 64); }
  size_t Words;
  std::vector<uint64_t> Bits;
};

ReachMatrix computeHappensBefore(const Trace &Tr, const TopologyGraph &Topo) {
  size_t N = Tr.numCriticalSections();
  ReachMatrix Reach(N);

  // Program order within each thread.
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    uint32_t Count = Tr.numCriticalSections(T);
    for (uint32_t I = 0; I + 1 < Count; ++I)
      Reach.set(Tr.globalCsId(CsRef{T, I}), Tr.globalCsId(CsRef{T, I + 1}));
  }
  for (const TopologyEdge &E : Topo.edges())
    Reach.set(E.From, E.To);
  for (const OrderConstraint &C : Tr.Constraints)
    Reach.set(C.Before, C.After);

  for (size_t K = 0; K != N; ++K)
    for (size_t I = 0; I != N; ++I)
      if (Reach.test(I, K))
        Reach.orRow(I, K);
  return Reach;
}

/// Sorted lock ids of a section's lockset in the transformed trace.
std::vector<LockId> locksetLocks(const Trace &Tr, uint32_t Cs) {
  std::vector<LockId> Out;
  CsRef Ref = Tr.csRefOf(Cs);
  uint32_t Index = 0;
  for (const Event &E : Tr.Threads[Ref.Thread].Events)
    if (isSectionOpen(E)) {
      if (Index++ != Ref.Index)
        continue;
      if (E.Lockset == InvalidId) {
        Out.push_back(E.Lock);
      } else {
        for (const LocksetEntry &Entry : Tr.Locksets[E.Lockset].Entries)
          Out.push_back(Entry.Lock);
      }
      break;
    }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<RaceReport> checkRaces(const Trace &Tr, const CsIndex &Index,
                                   const TopologyGraph &Topology) {
  // Collect every shared access with its enclosing sections.
  std::vector<AccessRecord> Accesses;
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    std::vector<uint32_t> Open;
    uint32_t NextIndex = 0;
    for (const Event &E : Tr.Threads[T].Events) {
      switch (E.Kind) {
      case EventKind::LockAcquire:
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
      case EventKind::TryAcquire:
        // A failed trylock opens no section.
        if (isSectionOpen(E))
          Open.push_back(Tr.globalCsId(CsRef{T, NextIndex++}));
        break;
      case EventKind::LockRelease:
        assert(!Open.empty() && "unbalanced release");
        Open.pop_back();
        break;
      case EventKind::Read:
      case EventKind::Write:
        Accesses.push_back(
            AccessRecord{T, E.Addr, E.Kind == EventKind::Write, Open});
        break;
      default:
        break;
      }
    }
  }

  ReachMatrix Reach = computeHappensBefore(Tr, Topology);

  size_t NumCs = Tr.numCriticalSections();
  std::vector<AddrSet> Locksets(NumCs);
  std::vector<bool> LocksetKnown(NumCs, false);
  auto locksOf = [&](uint32_t Cs) -> const AddrSet & {
    if (!LocksetKnown[Cs]) {
      for (LockId L : locksetLocks(Tr, Cs))
        Locksets[Cs].insert(L);
      LocksetKnown[Cs] = true;
    }
    return Locksets[Cs];
  };

  auto ordered = [&](const AccessRecord &A, const AccessRecord &B) {
    for (uint32_t CsA : A.Enclosing)
      for (uint32_t CsB : B.Enclosing)
        if (Reach.test(CsA, CsB) || Reach.test(CsB, CsA))
          return true;
    return false;
  };

  auto protectedPair = [&](const AccessRecord &A, const AccessRecord &B) {
    for (uint32_t CsA : A.Enclosing)
      for (uint32_t CsB : B.Enclosing)
        if (locksOf(CsA).intersects(locksOf(CsB)))
          return true;
    return false;
  };

  MemoryImage Initial = MemoryImage::initialOf(Tr);
  auto benignSections = [&](uint32_t CsA, uint32_t CsB) {
    if (CsA == InvalidId || CsB == InvalidId)
      return false;
    return classifyPair(Tr, Initial, Index.byGlobalId(CsA),
                        Index.byGlobalId(CsB)) != UlcpKind::TrueContention;
  };

  std::vector<RaceReport> Races;
  std::set<std::tuple<uint32_t, uint32_t, AddrId>> Seen;
  for (size_t I = 0; I != Accesses.size(); ++I) {
    const AccessRecord &A = Accesses[I];
    for (size_t J = I + 1; J != Accesses.size(); ++J) {
      const AccessRecord &B = Accesses[J];
      if (A.Thread == B.Thread || A.Addr != B.Addr)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      if (protectedPair(A, B) || ordered(A, B))
        continue;
      uint32_t CsA = A.Enclosing.empty() ? InvalidId : A.Enclosing.back();
      uint32_t CsB = B.Enclosing.empty() ? InvalidId : B.Enclosing.back();
      uint32_t Lo = std::min(CsA, CsB), Hi = std::max(CsA, CsB);
      if (!Seen.insert({Lo, Hi, A.Addr}).second)
        continue;
      if (benignSections(CsA, CsB))
        continue;
      Races.push_back(RaceReport{A.Addr, A.Thread, B.Thread, CsA, CsB});
    }
  }
  return Races;
}

} // namespace oracle

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

std::string describe(const RaceReport &R) {
  return "{addr " + std::to_string(R.Addr) + ", t" +
         std::to_string(R.ThreadA) + "/t" + std::to_string(R.ThreadB) +
         ", cs " + std::to_string(R.CsA) + "/" + std::to_string(R.CsB) + "}";
}

/// Runs both implementations; returns the number of races reported.
size_t expectParity(const Trace &Tr, const CsIndex &Index,
                    const TopologyGraph &Topo, const std::string &Label) {
  std::vector<RaceReport> Want = oracle::checkRaces(Tr, Index, Topo);
  Expected<std::vector<RaceReport>> Got = checkRaces(Tr, Index, Topo);
  EXPECT_TRUE(Got.ok()) << Label << ": " << Got.message();
  if (!Got)
    return 0;
  EXPECT_EQ(Got->size(), Want.size()) << Label;
  for (size_t I = 0; I != std::min(Got->size(), Want.size()); ++I) {
    const RaceReport &G = (*Got)[I];
    const RaceReport &W = Want[I];
    bool Same = G.Addr == W.Addr && G.ThreadA == W.ThreadA &&
                G.ThreadB == W.ThreadB && G.CsA == W.CsA && G.CsB == W.CsB;
    EXPECT_TRUE(Same) << Label << ": report " << I << " is " << describe(G)
                      << ", reference " << describe(W);
    if (!Same)
      break;
  }
  return Want.size();
}

/// Makes races: each section-opening event keeps its lockset or, at
/// random, gets the empty one; a random third of the causal edges and
/// constraints is dropped.
TopologyGraph mutate(Trace &Tr, const TopologyGraph &Topo, Rng &R) {
  LocksetId Empty = static_cast<LocksetId>(Tr.Locksets.size());
  Tr.Locksets.push_back(Lockset());
  for (ThreadTrace &Thread : Tr.Threads)
    for (Event &E : Thread.Events)
      if (isSectionOpen(E) && R.nextBool(0.5))
        E.Lockset = Empty;
  TopologyGraph Kept(Topo.numNodes());
  for (const TopologyEdge &E : Topo.edges())
    if (R.nextBelow(3) != 0)
      Kept.addEdge(E.From, E.To);
  std::vector<OrderConstraint> Constraints;
  for (const OrderConstraint &C : Tr.Constraints)
    if (R.nextBelow(3) != 0)
      Constraints.push_back(C);
  Tr.Constraints = std::move(Constraints);
  return Kept;
}

struct ParityTotals {
  size_t Cases = 0;
  size_t Races = 0;
};

/// Every application model (paper + synthetic) at 3 threads, scale 0.1,
/// over three seeds: parity on the transformed trace, then on a
/// race-exposing mutation of it.
ParityTotals runCorpus(bool Mutate) {
  std::vector<AppModel> Apps = allApps();
  Apps.insert(Apps.end(), syntheticApps().begin(), syntheticApps().end());
  ParityTotals Totals;
  Engine E;
  for (const AppModel &App : Apps)
    for (uint64_t Seed : {1u, 2u, 3u}) {
      WorkloadSpec Spec = App.Factory(3, 0.1);
      Spec.Seed = Seed;
      AnalysisSession S = E.openSession(generateWorkload(Spec));
      Expected<const CsIndex &> Index = S.csIndex();
      Expected<const TransformResult &> Tx = S.transform();
      EXPECT_TRUE(Index.ok() && Tx.ok()) << App.Name;
      if (!Index || !Tx)
        continue;
      std::string Label = App.Name + " seed " + std::to_string(Seed);
      ++Totals.Cases;
      if (!Mutate) {
        Totals.Races +=
            expectParity(Tx->Transformed, *Index, Tx->Topology, Label);
        continue;
      }
      Trace Mutated = Tx->Transformed;
      Rng R(Seed * 7919 + Totals.Cases);
      TopologyGraph Topo = mutate(Mutated, Tx->Topology, R);
      Totals.Races +=
          expectParity(Mutated, *Index, Topo, Label + " (mutated)");
    }
  return Totals;
}

/// Two threads, one section each, both writing address 9.
Trace twoWriters() {
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
  return B.finish();
}

} // namespace

TEST(RaceCheckParityTest, TransformedModelsMatchReference) {
  ParityTotals T = runCorpus(/*Mutate=*/false);
  EXPECT_EQ(T.Cases, 3 * (allApps().size() + syntheticApps().size()));
}

TEST(RaceCheckParityTest, MutatedModelsMatchReference) {
  ParityTotals T = runCorpus(/*Mutate=*/true);
  EXPECT_EQ(T.Cases, 3 * (allApps().size() + syntheticApps().size()));
  // The mutation must actually expose races, or parity proves little.
  RecordProperty("races", static_cast<int>(T.Races));
  EXPECT_GT(T.Races, 50u);
}

TEST(RaceCheckParityTest, NestedSectionsMatchReference) {
  // Both threads nest a private inner lock inside a shared outer one
  // and write address 4 unlocked.  With the locks, only the outer
  // section protects the inner accesses; without them, one causal edge
  // between the inner sections orders some pairs only through an
  // enclosing section (T0's outer section reaches T1's inner one).
  TraceBuilder B;
  LockId Outer = B.addLock("outer");
  LockId InnerA = B.addLock("innerA");
  LockId InnerB = B.addLock("innerB");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1}) {
    B.beginCs(T, Outer);
    B.write(T, 1, T);
    B.beginCs(T, T == T0 ? InnerA : InnerB);
    B.write(T, 2, T);
    B.read(T, 3, 0);
    B.endCs(T);
    B.write(T, 3, T);
    B.endCs(T);
    B.write(T, 4, T, WriteOpKind::Store, /*AllowUnlocked=*/true);
  }
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph Topo(Tr.numCriticalSections());
  // Nothing shares a lock once every section's lockset is emptied.
  Trace Bare = Tr;
  Bare.Locksets.push_back(Lockset());
  for (ThreadTrace &Thread : Bare.Threads)
    for (Event &E : Thread.Events)
      if (isSectionOpen(E))
        E.Lockset = 0;
  EXPECT_GT(expectParity(Bare, Index, Topo, "bare"), 0u);
  EXPECT_GT(expectParity(Tr, Index, Topo, "locked"), 0u);
  Topo.addEdge(1, 3); // T0's inner section before T1's inner section.
  expectParity(Bare, Index, Topo, "bare + edge");
}

TEST(RaceCheckParityTest, CyclicOrderIsTypedFailure) {
  Trace Tr = twoWriters();
  Tr.Constraints.push_back(OrderConstraint{0, 1});
  Tr.Constraints.push_back(OrderConstraint{1, 0});
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph Topo(Tr.numCriticalSections());
  Expected<std::vector<RaceReport>> Races = checkRaces(Tr, Index, Topo);
  ASSERT_FALSE(Races.ok());
  EXPECT_EQ(Races.code(), ErrorCode::InvalidTrace);
  EXPECT_NE(Races.message().find("cycle"), std::string::npos)
      << Races.message();
}

TEST(RaceCheckParityTest, CycleThroughProgramOrderIsTypedFailure) {
  // T0 runs sections 0 then 1; the causal edge 1 -> 2 and the
  // constraint 2 -> 0 close a cycle only through program order.
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (int I = 0; I != 2; ++I) {
    B.beginCs(T0, L);
    B.write(T0, 9, 1);
    B.endCs(T0);
  }
  B.beginCs(T1, L);
  B.write(T1, 9, 2);
  B.endCs(T1);
  Trace Tr = B.finish();
  Tr.Constraints.push_back(OrderConstraint{2, 0});
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph Topo(Tr.numCriticalSections());
  Topo.addEdge(1, 2);
  EXPECT_EQ(checkRaces(Tr, Index, Topo).code(), ErrorCode::InvalidTrace);
}

TEST(RaceCheckParityTest, EdgeToMissingSectionIsTypedFailure) {
  Trace Tr = twoWriters();
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph Topo(8);
  Topo.addEdge(0, 7);
  EXPECT_EQ(checkRaces(Tr, Index, Topo).code(), ErrorCode::InvalidTrace);
}

TEST(RaceCheckParityTest, SessionRejectsCyclicConstraintsBeforeRaceCheck) {
  // Through the session a cyclic constraint set never reaches
  // checkRaces: the ORIG-S recording run cannot satisfy it.
  Trace Tr = twoWriters();
  Tr.Constraints.push_back(OrderConstraint{0, 1});
  Tr.Constraints.push_back(OrderConstraint{1, 0});
  PipelineOptions Opts;
  Opts.CheckRaces = true;
  Engine E(Opts);
  AnalysisSession S = E.openSession(std::move(Tr));
  Expected<PipelineResult> R = S.analyze();
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.code(), ErrorCode::RecordingFailed) << R.message();
  EXPECT_EQ(S.races().code(), ErrorCode::RecordingFailed);
}
