//===- tests/TopologyParityTest.cpp - indexed RULE 1 search parity ----------===//
//
// buildTopology finds each section's first true-contention partner per
// thread through a per-lock index of conflicting positions, memoizing
// reversed-replay verdicts per section-key pair.  This test keeps the
// original implementation — a forward scan that classifies every later
// same-lock section of every other thread until one truly contends —
// as the reference, together with the transformTrace that deduplicated
// RULE 2 constraints through a std::set.  It requires identical edge
// lists (order included) and byte-identical transformed traces on every
// application model and on hand-built traces for the corner cases.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "detect/Classify.h"
#include "detect/ReversedReplay.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "transform/Transform.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <cassert>
#include <set>
#include <string>

using namespace perfplay;

namespace {

//===----------------------------------------------------------------------===//
// Reference implementation (the sequential-scan buildTopology)
//===----------------------------------------------------------------------===//

namespace oracle {

TopologyGraph buildTopology(const Trace &Tr, const CsIndex &Index) {
  TopologyGraph Graph(Index.size());
  MemoryImage Initial = MemoryImage::initialOf(Tr);

  for (LockId L = 0; L != Index.numLocks(); ++L) {
    const std::vector<uint32_t> &Order = Index.sectionsOfLock(L);
    for (size_t I = 0; I != Order.size(); ++I) {
      const CriticalSection &A = Index.byGlobalId(Order[I]);
      std::set<ThreadId> Matched;
      for (size_t J = I + 1; J != Order.size(); ++J) {
        const CriticalSection &B = Index.byGlobalId(Order[J]);
        if (B.Ref.Thread == A.Ref.Thread)
          continue;
        if (Matched.count(B.Ref.Thread))
          continue;
        if (classifyPair(Tr, Initial, A, B) == UlcpKind::TrueContention) {
          Graph.addEdge(A.GlobalId, B.GlobalId);
          Matched.insert(B.Ref.Thread);
        }
      }
    }
  }
  return Graph;
}

TransformResult transformTrace(const Trace &Tr, const CsIndex &Index) {
  TransformResult Result;
  Result.Transformed = Tr;
  Trace &Out = Result.Transformed;
  Result.Topology = oracle::buildTopology(Tr, Index);
  const TopologyGraph &Topo = Result.Topology;
  size_t NumCs = Index.size();

  Result.AuxLockOfCs.assign(NumCs, InvalidId);
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs) {
    if (Topo.outDegree(Cs) == 0)
      continue;
    const CriticalSection &Section = Index.byGlobalId(Cs);
    LockInfo Aux;
    Aux.Name = Out.intern("@L" + std::to_string(Section.Ref.Thread) + "_" +
                          std::to_string(Section.Ref.Index));
    Aux.IsSpin = Tr.Locks[Section.Lock].IsSpin;
    Out.Locks.push_back(Aux);
    Result.AuxLockOfCs[Cs] = static_cast<LockId>(Out.Locks.size() - 1);
    ++Result.NumAuxLocks;
  }

  std::vector<LocksetId> LocksetOfCs(NumCs, InvalidId);
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs) {
    Lockset LS;
    if (Result.AuxLockOfCs[Cs] != InvalidId)
      LS.Entries.push_back(LocksetEntry{Result.AuxLockOfCs[Cs], InvalidId});
    for (uint32_t Pred : Topo.predecessors(Cs)) {
      assert(Result.AuxLockOfCs[Pred] != InvalidId);
      LS.Entries.push_back(LocksetEntry{Result.AuxLockOfCs[Pred], Pred});
    }
    if (LS.Entries.empty())
      ++Result.NumStandalone;
    Out.Locksets.push_back(std::move(LS));
    LocksetOfCs[Cs] = static_cast<LocksetId>(Out.Locksets.size() - 1);
  }

  for (ThreadId T = 0; T != Out.Threads.size(); ++T) {
    uint32_t NextIndex = 0;
    for (Event &E : Out.Threads[T].Events)
      if (isSectionOpen(E)) {
        uint32_t Cs = Tr.globalCsId(CsRef{T, NextIndex++});
        E.Lockset = LocksetOfCs[Cs];
      }
  }

  std::set<std::pair<uint32_t, uint32_t>> Emitted;
  auto addConstraint = [&](uint32_t Before, uint32_t After) {
    if (Before == After)
      return;
    if (Emitted.insert({Before, After}).second)
      Out.Constraints.push_back(OrderConstraint{Before, After});
  };
  for (const TopologyEdge &E : Topo.edges())
    addConstraint(E.From, E.To);
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    uint32_t PrevCausal = InvalidId;
    for (uint32_t Cs : Index.sectionsOfLock(L)) {
      if (Topo.isStandalone(Cs))
        continue;
      if (PrevCausal != InvalidId)
        addConstraint(PrevCausal, Cs);
      PrevCausal = Cs;
    }
  }

  if (!Out.LockSchedule.empty())
    Out.LockSchedule.resize(Out.Locks.size());
  Out.buildCsIndex();
  return Result;
}

} // namespace oracle

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

std::string describe(const TopologyEdge &E) {
  return std::to_string(E.From) + "->" + std::to_string(E.To);
}

/// Runs both implementations over \p Tr; returns the number of edges.
size_t expectParity(const Trace &Tr, const CsIndex &Index,
                    const std::string &Label) {
  TransformResult Want = oracle::transformTrace(Tr, Index);
  TransformResult Got = transformTrace(Tr, Index);

  const std::vector<TopologyEdge> &WE = Want.Topology.edges();
  const std::vector<TopologyEdge> &GE = Got.Topology.edges();
  EXPECT_EQ(GE.size(), WE.size()) << Label;
  for (size_t I = 0; I != std::min(GE.size(), WE.size()); ++I)
    if (!(GE[I] == WE[I])) {
      ADD_FAILURE() << Label << ": edge " << I << " is " << describe(GE[I])
                    << ", reference " << describe(WE[I]);
      break;
    }
  for (uint32_t N = 0; N != Want.Topology.numNodes(); ++N) {
    EXPECT_EQ(Got.Topology.successors(N), Want.Topology.successors(N))
        << Label << ": successors of " << N;
    EXPECT_EQ(Got.Topology.predecessors(N), Want.Topology.predecessors(N))
        << Label << ": predecessors of " << N;
  }

  EXPECT_EQ(Got.AuxLockOfCs, Want.AuxLockOfCs) << Label;
  EXPECT_EQ(Got.NumAuxLocks, Want.NumAuxLocks) << Label;
  EXPECT_EQ(Got.NumStandalone, Want.NumStandalone) << Label;
  EXPECT_EQ(Got.Transformed.Constraints.size(),
            Want.Transformed.Constraints.size())
      << Label;
  // The text form carries the lock table (aux names included), every
  // lockset, every constraint in order, each acquire's lockset
  // annotation and the schedule.
  EXPECT_TRUE(writeTraceText(Got.Transformed) ==
              writeTraceText(Want.Transformed))
      << Label << ": transformed traces differ";
  return WE.size();
}

size_t expectParity(const Trace &Tr, const std::string &Label) {
  return expectParity(Tr, CsIndex::build(Tr), Label);
}

/// The recorded grant order of \p Sections (per lock), installed as
/// \p Tr's LockSchedule.
void setSchedule(Trace &Tr, LockId L, std::vector<CsRef> Sections) {
  Tr.LockSchedule.resize(Tr.Locks.size());
  Tr.LockSchedule[L] = std::move(Sections);
}

/// A random small trace: a few threads, locks and addresses, so pairs
/// conflict often, with benign updates (redundant stores, commuting
/// adds), reader sections, condvar operations, nesting and empty
/// sections; the schedule is a random interleaving of the threads'
/// per-lock program orders.
Trace randomTrace(uint64_t Seed) {
  Rng R(Seed);
  TraceBuilder B;
  unsigned NumLocks = 1 + static_cast<unsigned>(R.nextBelow(3));
  std::vector<LockId> Locks;
  for (unsigned L = 0; L != NumLocks; ++L)
    Locks.push_back(B.addLock("L" + std::to_string(L)));
  LockId Cond = B.addLock("cv");
  unsigned NumThreads = 2 + static_cast<unsigned>(R.nextBelow(4));
  for (unsigned T = 0; T != NumThreads; ++T)
    B.addThread();

  auto body = [&](ThreadId T) {
    unsigned Ops = static_cast<unsigned>(R.nextBelow(4));
    for (unsigned I = 0; I != Ops; ++I) {
      AddrId Addr = 1 + R.nextBelow(4);
      switch (R.nextBelow(6)) {
      case 0:
      case 1:
        B.read(T, Addr, R.nextBelow(3));
        break;
      case 2:
        B.write(T, Addr, 1 + R.nextBelow(2));
        break;
      case 3:
        B.write(T, Addr, 1 + R.nextBelow(2), WriteOpKind::Add);
        break;
      case 4:
        B.write(T, Addr, 1, WriteOpKind::Or);
        break;
      case 5:
        if (R.nextBool(0.5))
          B.condWait(T, Cond);
        else
          B.condSignal(T, Cond);
        break;
      }
    }
  };

  for (unsigned T = 0; T != NumThreads; ++T) {
    unsigned NumSections = 2 + static_cast<unsigned>(R.nextBelow(6));
    for (unsigned S = 0; S != NumSections; ++S) {
      LockId L = Locks[R.nextBelow(NumLocks)];
      bool Shared = R.nextBool(0.25);
      if (Shared)
        B.beginCsShared(T, L);
      else
        B.beginCs(T, L);
      body(T);
      if (NumLocks > 1 && R.nextBool(0.2)) {
        LockId Inner = Locks[(L + 1) % NumLocks];
        B.beginCs(T, Inner);
        body(T);
        B.endCs(T);
        body(T);
      }
      B.endCs(T);
      B.compute(T, 10);
    }
  }
  Trace Tr = B.finish();
  if (R.nextBool(0.2))
    return Tr; // No recorded schedule: pairing falls back to id order.

  // Per lock, each thread's sections in program order, interleaved at
  // random.
  CsIndex Index = CsIndex::build(Tr);
  std::vector<std::vector<std::vector<CsRef>>> Queues(
      Tr.Locks.size(), std::vector<std::vector<CsRef>>(NumThreads));
  for (const CriticalSection &Cs : Index.all())
    Queues[Cs.Lock][Cs.Ref.Thread].push_back(Cs.Ref);
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  for (LockId L = 0; L != Tr.Locks.size(); ++L) {
    std::vector<size_t> Next(NumThreads, 0);
    for (;;) {
      std::vector<ThreadId> Ready;
      for (ThreadId T = 0; T != NumThreads; ++T)
        if (Next[T] != Queues[L][T].size())
          Ready.push_back(T);
      if (Ready.empty())
        break;
      ThreadId T = Ready[R.nextBelow(Ready.size())];
      Tr.LockSchedule[L].push_back(Queues[L][T][Next[T]++]);
    }
  }
  return Tr;
}

} // namespace

/// Every application model (paper + synthetic) at 4 threads, scale
/// 0.25, over three seeds, with the grant schedule the session records.
TEST(TopologyParityTest, ApplicationModelsMatchReference) {
  std::vector<AppModel> Apps = allApps();
  Apps.insert(Apps.end(), syntheticApps().begin(), syntheticApps().end());
  Engine E;
  size_t Cases = 0, Edges = 0;
  for (const AppModel &App : Apps)
    for (uint64_t Seed : {1u, 2u, 3u}) {
      WorkloadSpec Spec = App.Factory(4, 0.25);
      Spec.Seed = Seed;
      AnalysisSession S = E.openSession(generateWorkload(Spec));
      Expected<const CsIndex &> Index = S.csIndex();
      ASSERT_TRUE(Index.ok()) << App.Name << ": " << Index.message();
      Edges += expectParity(S.trace(), *Index,
                            App.Name + " seed " + std::to_string(Seed));
      ++Cases;
    }
  EXPECT_EQ(Cases, 3 * Apps.size());
  RecordProperty("edges", static_cast<int>(Edges));
  EXPECT_GT(Edges, 1000u);
}

TEST(TopologyParityTest, RandomTracesMatchReference) {
  size_t Edges = 0;
  for (uint64_t Seed = 1; Seed != 301; ++Seed)
    Edges += expectParity(randomTrace(Seed), "seed " + std::to_string(Seed));
  EXPECT_GT(Edges, 300u);
}

TEST(TopologyParityTest, BenignFirstConflictIsSkipped) {
  // T0's store of 5 conflicts first with T1's redundant store of 5
  // (benign: both orders leave 5), then with T1's read (true
  // contention).  A disjoint section sits between them.
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, L);
  B.write(T0, 1, 5);
  B.endCs(T0);
  B.beginCs(T1, L);
  B.write(T1, 1, 5);
  B.endCs(T1);
  B.beginCs(T1, L);
  B.write(T1, 2, 7);
  B.endCs(T1);
  B.beginCs(T1, L);
  B.read(T1, 1, 5);
  B.endCs(T1);
  Trace Tr = B.finish();
  setSchedule(Tr, L, {{0, 0}, {1, 0}, {1, 1}, {1, 2}});
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  ASSERT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.edges()[0], (TopologyEdge{0, 3}));
  expectParity(Tr, Index, "benign first");
}

TEST(TopologyParityTest, CondvarOrderedPairWithDisjointMemory) {
  // T0 signals, T1 waits; their memory is disjoint, so only the condvar
  // orders them.  T1's earlier condvar-free section is passed over.
  TraceBuilder B;
  LockId L = B.addLock("L");
  LockId Cv = B.addLock("cv");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, L);
  B.write(T0, 1, 1);
  B.condSignal(T0, Cv);
  B.endCs(T0);
  B.beginCs(T1, L);
  B.write(T1, 3, 1);
  B.endCs(T1);
  B.beginCs(T1, L);
  B.condWait(T1, Cv);
  B.write(T1, 2, 1);
  B.endCs(T1);
  Trace Tr = B.finish();
  setSchedule(Tr, L, {{0, 0}, {1, 0}, {1, 1}});
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  ASSERT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.edges()[0], (TopologyEdge{0, 2}));
  expectParity(Tr, Index, "condvar");
}

TEST(TopologyParityTest, ReaderReaderSectionsNeverContend) {
  // Two reader sections that even write the same address stay
  // unordered; the writer after them is ordered after both.
  TraceBuilder B;
  LockId L = B.addLock("rw");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  ThreadId T2 = B.addThread();
  B.beginCsShared(T0, L);
  B.read(T0, 1, 0);
  B.write(T0, 2, 1);
  B.endCs(T0);
  B.beginCsShared(T1, L);
  B.read(T1, 1, 0);
  B.write(T1, 2, 2);
  B.endCs(T1);
  B.beginCsWrite(T2, L);
  B.write(T2, 1, 9);
  B.endCs(T2);
  Trace Tr = B.finish();
  setSchedule(Tr, L, {{0, 0}, {1, 0}, {2, 0}});
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  ASSERT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.edges()[0], (TopologyEdge{0, 2}));
  EXPECT_EQ(G.edges()[1], (TopologyEdge{1, 2}));
  expectParity(Tr, Index, "reader-reader");
}

TEST(TopologyParityTest, NullLockSectionsGetNoEdges) {
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1}) {
    B.beginCs(T, L);
    B.compute(T, 5);
    B.endCs(T);
    B.beginCs(T, L);
    B.write(T, 1, T);
    B.endCs(T);
  }
  Trace Tr = B.finish();
  setSchedule(Tr, L, {{0, 0}, {1, 0}, {0, 1}, {1, 1}});
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  EXPECT_TRUE(G.isStandalone(0));
  EXPECT_TRUE(G.isStandalone(2));
  ASSERT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.edges()[0], (TopologyEdge{1, 3}));
  expectParity(Tr, Index, "null-lock");
}

TEST(TopologyParityTest, NestedSectionsMatchReference) {
  // The inner sections' accesses belong to the outer sections too.
  TraceBuilder B;
  LockId Outer = B.addLock("outer");
  LockId Inner = B.addLock("inner");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1}) {
    B.beginCs(T, Outer);
    B.read(T, 1, 0);
    B.beginCs(T, Inner);
    B.write(T, 2, T + 1);
    B.endCs(T);
    B.endCs(T);
  }
  Trace Tr = B.finish();
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  Tr.LockSchedule[Outer] = {{0, 0}, {1, 0}};
  Tr.LockSchedule[Inner] = {{0, 1}, {1, 1}};
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  ASSERT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.edges()[0], (TopologyEdge{0, 2}));
  EXPECT_EQ(G.edges()[1], (TopologyEdge{1, 3}));
  expectParity(Tr, Index, "nested");
}

TEST(TopologyParityTest, ThreadThatNeverContends) {
  // T2 touches only its own address; T0 and T1 contend on address 1.
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  ThreadId T2 = B.addThread();
  for (int Round = 0; Round != 3; ++Round)
    for (ThreadId T : {T0, T1, T2}) {
      B.beginCs(T, L);
      if (T == T2)
        B.write(T, 9, static_cast<uint64_t>(Round));
      else
        B.write(T, 1, T + 1, WriteOpKind::Store);
      B.endCs(T);
    }
  Trace Tr = B.finish();
  std::vector<CsRef> Order;
  for (uint32_t Round = 0; Round != 3; ++Round)
    for (ThreadId T : {T0, T1, T2})
      Order.push_back(CsRef{T, Round});
  setSchedule(Tr, L, Order);
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  for (uint32_t Cs = 6; Cs != 9; ++Cs)
    EXPECT_TRUE(G.isStandalone(Cs)) << Cs;
  EXPECT_GT(G.numEdges(), 0u);
  expectParity(Tr, Index, "never contends");
}

TEST(TopologyParityTest, TraceWithoutLockSchedule) {
  // Pairing follows global-id order when no schedule was recorded.
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1})
    for (int I = 0; I != 2; ++I) {
      B.beginCs(T, L);
      B.read(T, 1, 0);
      B.write(T, 1, T * 2 + static_cast<uint64_t>(I) + 1);
      B.endCs(T);
    }
  Trace Tr = B.finish();
  ASSERT_TRUE(Tr.LockSchedule.empty());
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  ASSERT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.edges()[0], (TopologyEdge{0, 2}));
  EXPECT_EQ(G.edges()[1], (TopologyEdge{1, 2}));
  expectParity(Tr, Index, "no schedule");
}
