//===- transform/Topology.cpp - Causal-order topology (RULE 1) -------------===//

#include "transform/Topology.h"

#include "detect/Classify.h"
#include "detect/SectionKey.h"
#include "support/FlatMap.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace perfplay;

void TopologyGraph::addEdge(uint32_t From, uint32_t To) {
  assert(From < NumNodes && To < NumNodes && "edge endpoint out of range");
  assert(From != To && "self edge");
  Edges.push_back(TopologyEdge{From, To});
  OutEdges[From].push_back(To);
  InEdges[To].push_back(From);
}

namespace {

/// No position: positions index one lock's sectionsOfLock() order.
constexpr uint32_t NoPos = InvalidId;

/// First element of the ascending \p Positions range greater than
/// \p From, or NoPos.
uint32_t nextAfter(const uint32_t *Begin, const uint32_t *End,
                   uint32_t From) {
  const uint32_t *It = std::upper_bound(Begin, End, From);
  return It == End ? NoPos : *It;
}

/// The RULE 1 search index over one lock's sections, in flat sorted
/// arrays.  Every address a section of the lock reads or writes has a
/// group of slots, one per thread touching it; a slot names the
/// ascending positions of that thread's sections that access the
/// address and, as a sub-list, of those that write it.  Sections with
/// condvar operations are listed as (thread, position) keys.
class LockSearchIndex {
public:
  /// A's side of a search: the address groups whose accesses conflict
  /// with A (the addresses A writes) and those whose writes conflict
  /// with A (the addresses A only reads).
  struct Query {
    std::vector<uint32_t> AccessGroups;
    std::vector<uint32_t> WriteGroups;
    bool Cond = false;
  };

  /// Rebuilds the index over \p Order, one lock's sections.
  void build(const CsIndex &Index, const std::vector<uint32_t> &Order);

  /// Fills \p Q for \p A, a section of the indexed lock.
  void prepare(const CriticalSection &A, Query &Q) const;

  /// Calls F(Thread, Position) with every thread other than
  /// \p Skip and its first candidate position after \p From; a thread
  /// may be reported more than once (the caller keeps the minimum).
  /// \p From must not decrease from one call to the next: each list
  /// keeps a cursor past the positions at or before it, so the scan
  /// over one lock costs the index's size once, not a search per call.
  template <typename Fn>
  void forEachFirstCandidate(const Query &Q, ThreadId Skip, uint32_t From,
                             Fn F);

  /// First position after \p From of a thread-\p U section that can
  /// statically conflict with the query's section, or NoPos.  \p From
  /// is at least the last forEachFirstCandidate position.
  uint32_t nextCandidate(const Query &Q, ThreadId U, uint32_t From) const;

private:
  struct Entry {
    AddrId Addr;
    ThreadId Thread;
    uint32_t Pos;
    bool Write;
  };
  /// One (address, thread) list: positions [AccessBegin, next slot's
  /// AccessBegin) of AccessPos and likewise of WritePos.
  struct Slot {
    ThreadId Thread;
    uint32_t AccessBegin;
    uint32_t WriteBegin;
  };

  uint32_t groupOf(AddrId Addr) const {
    auto It = std::lower_bound(Addrs.begin(), Addrs.end(), Addr);
    assert(It != Addrs.end() && *It == Addr && "address not on this lock");
    return static_cast<uint32_t>(It - Addrs.begin());
  }
  uint32_t nextAccess(uint32_t S, uint32_t From) const {
    return nextAfter(AccessPos.data() + AccessCursor[S],
                     AccessPos.data() + Slots[S + 1].AccessBegin, From);
  }
  uint32_t nextWrite(uint32_t S, uint32_t From) const {
    return nextAfter(WritePos.data() + WriteCursor[S],
                     WritePos.data() + Slots[S + 1].WriteBegin, From);
  }
  /// Moves \p Cursor past the positions at or before \p From in
  /// [Cursor, End) of \p Positions; returns the position it stops at.
  static uint32_t advance(const std::vector<uint32_t> &Positions,
                          uint32_t &Cursor, uint32_t End, uint32_t From) {
    while (Cursor != End && Positions[Cursor] <= From)
      ++Cursor;
    return Cursor == End ? NoPos : Positions[Cursor];
  }
  /// Slot of thread \p U in \p Group, or NoPos.
  uint32_t slotOf(uint32_t Group, ThreadId U) const {
    auto Begin = Slots.begin() + GroupBegin[Group];
    auto End = Slots.begin() + GroupBegin[Group + 1];
    auto It = std::lower_bound(
        Begin, End, U,
        [](const Slot &S, ThreadId T) { return S.Thread < T; });
    return It != End && It->Thread == U
               ? static_cast<uint32_t>(It - Slots.begin())
               : NoPos;
  }
  static uint64_t condKey(ThreadId T, uint32_t Pos) {
    return (static_cast<uint64_t>(T) << 32) | Pos;
  }

  std::vector<Entry> Entries;
  std::vector<AddrId> Addrs;
  /// Group G's slots are [GroupBegin[G], GroupBegin[G + 1]).
  std::vector<uint32_t> GroupBegin;
  /// Ends with a sentinel slot closing the last range.
  std::vector<Slot> Slots;
  std::vector<uint32_t> AccessPos;
  std::vector<uint32_t> WritePos;
  /// Per slot: index of its first access / write position after the
  /// last forEachFirstCandidate position.
  std::vector<uint32_t> AccessCursor;
  std::vector<uint32_t> WriteCursor;
  std::vector<uint64_t> CondKeys;
};

void LockSearchIndex::build(const CsIndex &Index,
                            const std::vector<uint32_t> &Order) {
  Entries.clear();
  Addrs.clear();
  GroupBegin.clear();
  Slots.clear();
  AccessPos.clear();
  WritePos.clear();
  CondKeys.clear();

  for (uint32_t P = 0; P != Order.size(); ++P) {
    const CriticalSection &S = Index.byGlobalId(Order[P]);
    ThreadId T = S.Ref.Thread;
    // One entry per address of Reads ∪ Writes (both sorted).
    size_t R = 0, W = 0;
    while (R != S.Reads.size() || W != S.Writes.size()) {
      if (W == S.Writes.size() ||
          (R != S.Reads.size() && S.Reads[R] < S.Writes[W])) {
        Entries.push_back(Entry{S.Reads[R++], T, P, false});
        continue;
      }
      if (R != S.Reads.size() && S.Reads[R] == S.Writes[W])
        ++R;
      Entries.push_back(Entry{S.Writes[W++], T, P, true});
    }
    if (!S.CondWaits.empty() || !S.CondSignals.empty())
      CondKeys.push_back(condKey(T, P));
  }
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) {
              if (A.Addr != B.Addr)
                return A.Addr < B.Addr;
              if (A.Thread != B.Thread)
                return A.Thread < B.Thread;
              return A.Pos < B.Pos;
            });
  std::sort(CondKeys.begin(), CondKeys.end());

  auto pos = [](const std::vector<uint32_t> &V) {
    return static_cast<uint32_t>(V.size());
  };
  for (size_t I = 0; I != Entries.size(); ++I) {
    const Entry &E = Entries[I];
    bool NewAddr = I == 0 || Entries[I - 1].Addr != E.Addr;
    if (NewAddr) {
      Addrs.push_back(E.Addr);
      GroupBegin.push_back(static_cast<uint32_t>(Slots.size()));
    }
    if (NewAddr || Entries[I - 1].Thread != E.Thread)
      Slots.push_back(Slot{E.Thread, pos(AccessPos), pos(WritePos)});
    AccessPos.push_back(E.Pos);
    if (E.Write)
      WritePos.push_back(E.Pos);
  }
  GroupBegin.push_back(static_cast<uint32_t>(Slots.size()));
  AccessCursor.clear();
  WriteCursor.clear();
  for (const Slot &S : Slots) {
    AccessCursor.push_back(S.AccessBegin);
    WriteCursor.push_back(S.WriteBegin);
  }
  Slots.push_back(Slot{InvalidId, pos(AccessPos), pos(WritePos)});
}

void LockSearchIndex::prepare(const CriticalSection &A, Query &Q) const {
  Q.AccessGroups.clear();
  Q.WriteGroups.clear();
  // Any access to an address A writes conflicts with A; of the
  // addresses A only reads, only writes do.
  for (AddrId Addr : A.Writes)
    Q.AccessGroups.push_back(groupOf(Addr));
  size_t W = 0;
  for (AddrId Addr : A.Reads) {
    while (W != A.Writes.size() && A.Writes[W] < Addr)
      ++W;
    if (W == A.Writes.size() || A.Writes[W] != Addr)
      Q.WriteGroups.push_back(groupOf(Addr));
  }
  Q.Cond = !A.CondWaits.empty() || !A.CondSignals.empty();
}

template <typename Fn>
void LockSearchIndex::forEachFirstCandidate(const Query &Q, ThreadId Skip,
                                            uint32_t From, Fn F) {
  for (uint32_t G : Q.AccessGroups)
    for (uint32_t S = GroupBegin[G]; S != GroupBegin[G + 1]; ++S)
      if (uint32_t P = advance(AccessPos, AccessCursor[S],
                               Slots[S + 1].AccessBegin, From);
          P != NoPos && Slots[S].Thread != Skip)
        F(Slots[S].Thread, P);
  for (uint32_t G : Q.WriteGroups)
    for (uint32_t S = GroupBegin[G]; S != GroupBegin[G + 1]; ++S)
      if (uint32_t P = advance(WritePos, WriteCursor[S],
                               Slots[S + 1].WriteBegin, From);
          P != NoPos && Slots[S].Thread != Skip)
        F(Slots[S].Thread, P);
  if (!Q.Cond)
    return;
  // Each thread's first condvar section after From.
  for (auto It = CondKeys.begin(); It != CondKeys.end();) {
    ThreadId T = static_cast<ThreadId>(*It >> 32);
    auto Next = std::upper_bound(It, CondKeys.end(), condKey(T, From));
    if (T != Skip && Next != CondKeys.end() && (*Next >> 32) == T)
      F(T, static_cast<uint32_t>(*Next));
    It = std::upper_bound(Next, CondKeys.end(), condKey(T, NoPos));
  }
}

uint32_t LockSearchIndex::nextCandidate(const Query &Q, ThreadId U,
                                        uint32_t From) const {
  uint32_t Best = NoPos;
  for (uint32_t G : Q.AccessGroups)
    if (uint32_t S = slotOf(G, U); S != NoPos)
      Best = std::min(Best, nextAccess(S, From));
  for (uint32_t G : Q.WriteGroups)
    if (uint32_t S = slotOf(G, U); S != NoPos)
      Best = std::min(Best, nextWrite(S, From));
  if (Q.Cond) {
    auto It = std::upper_bound(CondKeys.begin(), CondKeys.end(),
                               condKey(U, From));
    if (It != CondKeys.end() && (*It >> 32) == U)
      Best = std::min(Best, static_cast<uint32_t>(*It));
  }
  return Best;
}

/// classifyPair(...) == TrueContention, with the reversed replay's
/// verdict memoized per section-key pair: sections with equal keys
/// classify identically (detect/SectionKey.h), so the replay of a
/// statically conflicting pair runs once per key pair.
class ContentionOracle {
public:
  ContentionOracle(const Trace &Tr, const CsIndex &Index)
      : Tr(Tr), Initial(MemoryImage::initialOf(Tr)),
        Keys(internSectionKeys(Tr, Index)) {}

  bool trulyContends(const CriticalSection &A, const CriticalSection &B) {
    if (classifyPairStatic(A, B) != UlcpKind::TrueContention)
      return false;
    uint64_t Key = SectionKeyTable::pairKey(Keys.KeyOf[A.GlobalId],
                                            Keys.KeyOf[B.GlobalId]);
    if (const bool *Known = Memo.find(Key))
      return *Known;
    bool True = classifyPair(Tr, Initial, A, B) == UlcpKind::TrueContention;
    Memo.insert(Key, True);
    return True;
  }

private:
  const Trace &Tr;
  const MemoryImage Initial;
  const SectionKeyTable Keys;
  FlatMap<uint64_t, bool> Memo;
};

} // namespace

TopologyGraph perfplay::buildTopology(const Trace &Tr,
                                      const CsIndex &Index) {
  TopologyGraph Graph(Index.size());
  ContentionOracle Oracle(Tr, Index);
  LockSearchIndex Search;
  LockSearchIndex::Query Q;
  // Per thread: its current candidate position for the section being
  // matched (NoPos when none); Threads lists the threads set.
  std::vector<uint32_t> Candidate(Tr.Threads.size(), NoPos);
  std::vector<ThreadId> Threads;
  std::vector<std::pair<uint32_t, uint32_t>> Targets;

  for (LockId L = 0; L != Index.numLocks(); ++L) {
    const std::vector<uint32_t> &Order = Index.sectionsOfLock(L);
    if (Order.size() < 2)
      continue;
    Search.build(Index, Order);
    for (uint32_t I = 0; I != Order.size(); ++I) {
      const CriticalSection &A = Index.byGlobalId(Order[I]);
      Search.prepare(A, Q);
      Search.forEachFirstCandidate(
          Q, A.Ref.Thread, I, [&](ThreadId U, uint32_t P) {
            if (Candidate[U] == NoPos)
              Threads.push_back(U);
            Candidate[U] = std::min(Candidate[U], P);
          });
      // Sequential searching: in every other thread, the first later
      // same-lock section that truly contends with A gets a causal
      // edge.  Only sections the index names can statically conflict
      // with A; the rest of the thread's sections are passed over
      // unclassified.
      Targets.clear();
      for (ThreadId U : Threads) {
        for (uint32_t P = Candidate[U]; P != NoPos;
             P = Search.nextCandidate(Q, U, P)) {
          if (Oracle.trulyContends(A, Index.byGlobalId(Order[P]))) {
            Targets.emplace_back(P, Order[P]);
            break;
          }
        }
        Candidate[U] = NoPos;
      }
      Threads.clear();
      // Edges in recorded order, as a forward scan would find them.
      std::sort(Targets.begin(), Targets.end());
      for (const auto &[Pos, Target] : Targets)
        Graph.addEdge(A.GlobalId, Target);
    }
  }
  return Graph;
}
