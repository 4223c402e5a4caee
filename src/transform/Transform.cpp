//===- transform/Transform.cpp - ULCP trace transformation -----------------===//

#include "transform/Transform.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace perfplay;

TransformResult perfplay::transformTrace(const Trace &Tr,
                                         const CsIndex &Index) {
  TransformResult Result;
  // RULE 1 first: the search's scratch memory is released before the
  // trace is copied, so the two never add up.
  Result.Topology = buildTopology(Tr, Index);
  Result.Transformed = Tr;
  Trace &Out = Result.Transformed;
  const TopologyGraph &Topo = Result.Topology;
  size_t NumCs = Index.size();

  // RULE 3, part 1: a fresh auxiliary lock per node with outdegree.
  // Auxiliary locks inherit the spin-ness of the original lock so the
  // resource-wasting accounting stays comparable.
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

  // RULE 3, part 2: build each node's lockset — its own auxiliary lock
  // plus the auxiliary lock of every causal source.  Standalone nodes
  // (which subsumes all null-locks: a section with empty read/write
  // sets can never truly contend) get an empty lockset, i.e. their
  // lock/unlock pair is removed.
  std::vector<LocksetId> LocksetOfCs(NumCs, InvalidId);
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs) {
    Lockset LS;
    if (Result.AuxLockOfCs[Cs] != InvalidId)
      LS.Entries.push_back(LocksetEntry{Result.AuxLockOfCs[Cs], InvalidId});
    for (uint32_t Pred : Topo.predecessors(Cs)) {
      assert(Result.AuxLockOfCs[Pred] != InvalidId &&
             "causal source must have an auxiliary lock");
      LS.Entries.push_back(LocksetEntry{Result.AuxLockOfCs[Pred], Pred});
    }
    if (LS.Entries.empty())
      ++Result.NumStandalone;
    Out.Locksets.push_back(std::move(LS));
    LocksetOfCs[Cs] = static_cast<LocksetId>(Out.Locksets.size() - 1);
  }

  // Annotate every section-opening acquire (mutex, rwlock, successful
  // trylock) with its lockset.
  for (ThreadId T = 0; T != Out.Threads.size(); ++T) {
    uint32_t NextIndex = 0;
    for (Event &E : Out.Threads[T].Events)
      if (isSectionOpen(E)) {
        uint32_t Cs = Tr.globalCsId(CsRef{T, NextIndex++});
        E.Lockset = LocksetOfCs[Cs];
      }
  }

  // RULE 2: preserve the original partial order.  Two sources feed the
  // constraint set: (a) every causal edge itself (the true-contention
  // order must survive, and the dynamic locking strategy relies on a
  // source being granted before its targets); (b) for each original
  // lock, the chain of causal-edge nodes in the recorded grant order.
  // Topology edges are unique, and a chain link can only repeat the
  // edge between the same two nodes, so no constraint is emitted twice.
  for (const TopologyEdge &E : Topo.edges())
    Out.Constraints.push_back(OrderConstraint{E.From, E.To});
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    const std::vector<uint32_t> &Order = Index.sectionsOfLock(L);
    uint32_t PrevCausal = InvalidId;
    for (uint32_t Cs : Order) {
      if (Topo.isStandalone(Cs))
        continue;
      if (PrevCausal != InvalidId) {
        const std::vector<uint32_t> &Succ = Topo.successors(PrevCausal);
        if (std::find(Succ.begin(), Succ.end(), Cs) == Succ.end())
          Out.Constraints.push_back(OrderConstraint{PrevCausal, Cs});
      }
      PrevCausal = Cs;
    }
  }

  // Keep the recorded schedule aligned with the (grown) lock table;
  // auxiliary locks have no recorded order — RULE 2 constraints carry
  // the ordering for the transformed replay.
  if (!Out.LockSchedule.empty())
    Out.LockSchedule.resize(Out.Locks.size());

  Out.buildCsIndex();
  return Result;
}
