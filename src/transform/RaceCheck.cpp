//===- transform/RaceCheck.cpp - Theorem 1 race reporting ------------------===//

#include "transform/RaceCheck.h"

#include "detect/Classify.h"
#include "detect/ReversedReplay.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <unordered_set>

using namespace perfplay;

namespace {

/// One shared access.  Its enclosing critical sections are Inner and
/// Inner's Parent chain.
struct Access {
  AddrId Addr;
  /// Position in trace order (thread-major, then program order).
  uint32_t Order;
  ThreadId Thread;
  /// Innermost enclosing critical section (InvalidId if unlocked).
  uint32_t Inner;
  bool IsWrite;
};

/// Flat per-section state, indexed by global critical-section id.
struct Sections {
  std::vector<ThreadId> Thread;
  /// Position of the section in its thread's program order.
  std::vector<uint32_t> Index;
  /// Section still open when this one opened (InvalidId if none).
  std::vector<uint32_t> Parent;
  /// CSR lockset table: section Cs holds the sorted, distinct locks
  /// Locks[LockBegin[Cs], LockBegin[Cs + 1]).
  std::vector<uint32_t> LockBegin{0};
  std::vector<LockId> Locks;

  size_t size() const { return Thread.size(); }
};

/// Found race candidate: the first pair of accesses (by trace order)
/// exposing one (section pair, address) combination.
struct Candidate {
  const Access *A;
  const Access *B;
};

} // namespace

/// One pass over the events: numbers the sections, records each one's
/// enclosing section and lockset, and collects every shared access.
static void collect(const Trace &Tr, Sections &S,
                    std::vector<Access> &Accesses) {
  std::vector<uint32_t> Open;
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    Open.clear();
    uint32_t NextIndex = 0;
    for (const Event &E : Tr.Threads[T].Events) {
      // A failed trylock opens no section.
      if (isSectionOpen(E)) {
        uint32_t Cs = static_cast<uint32_t>(S.size());
        S.Thread.push_back(T);
        S.Index.push_back(NextIndex++);
        S.Parent.push_back(Open.empty() ? InvalidId : Open.back());
        size_t Begin = S.Locks.size();
        if (E.Lockset == InvalidId) {
          S.Locks.push_back(E.Lock);
        } else {
          for (const LocksetEntry &Entry : Tr.Locksets[E.Lockset].Entries)
            S.Locks.push_back(Entry.Lock);
          std::sort(S.Locks.begin() + Begin, S.Locks.end());
          S.Locks.erase(std::unique(S.Locks.begin() + Begin, S.Locks.end()),
                        S.Locks.end());
        }
        S.LockBegin.push_back(static_cast<uint32_t>(S.Locks.size()));
        Open.push_back(Cs);
        continue;
      }
      switch (E.Kind) {
      case EventKind::LockRelease:
        assert(!Open.empty() && "unbalanced release");
        Open.pop_back();
        break;
      case EventKind::Read:
      case EventKind::Write:
        Accesses.push_back(Access{E.Addr,
                                  static_cast<uint32_t>(Accesses.size()), T,
                                  Open.empty() ? InvalidId : Open.back(),
                                  E.Kind == EventKind::Write});
        break;
      default:
        break;
      }
    }
  }
}

/// Vector clocks over program order + causal edges + constraints, in
/// one topological pass.  The result is an N x T block:
/// Clock[Cs * T + U] is 1 + the highest program-order index of a
/// thread-U section that reaches Cs (0 if none), so a section X
/// reaches a different section Y iff Clock[Y * T + thread(X)] >
/// index(X).
static Expected<std::vector<uint32_t>>
computeClocks(const Trace &Tr, const Sections &S, const TopologyGraph &Topo) {
  const size_t N = S.size();
  const size_t T = Tr.numThreads();

  // CSR successor lists of the explicit edges; program order (Cs ->
  // Cs + 1 within a thread) stays implicit.
  auto forEachEdge = [&](auto &&Visit) {
    for (const TopologyEdge &E : Topo.edges())
      Visit(E.From, E.To);
    for (const OrderConstraint &C : Tr.Constraints)
      Visit(C.Before, C.After);
  };
  std::vector<uint32_t> SuccBegin(N + 1, 0);
  std::vector<uint32_t> InDegree(N, 0);
  bool MissingSection = false;
  forEachEdge([&](uint32_t From, uint32_t To) {
    if (From >= N || To >= N) {
      MissingSection = true;
      return;
    }
    ++SuccBegin[From + 1];
    ++InDegree[To];
  });
  if (MissingSection)
    return PipelineError(ErrorCode::InvalidTrace,
                         "race check: a causal edge or constraint names a "
                         "missing critical section");
  for (size_t Cs = 0; Cs != N; ++Cs)
    SuccBegin[Cs + 1] += SuccBegin[Cs];
  std::vector<uint32_t> Succ(SuccBegin[N]);
  std::vector<uint32_t> Cursor(SuccBegin.begin(), SuccBegin.end() - 1);
  forEachEdge([&](uint32_t From, uint32_t To) { Succ[Cursor[From]++] = To; });

  auto hasNextInThread = [&](size_t Cs) {
    return Cs + 1 < N && S.Thread[Cs + 1] == S.Thread[Cs];
  };
  for (size_t Cs = 0; Cs != N; ++Cs)
    if (hasNextInThread(Cs))
      ++InDegree[Cs + 1];

  std::vector<uint32_t> Clock(N * T, 0);
  std::vector<uint32_t> Ready;
  for (size_t Cs = 0; Cs != N; ++Cs)
    if (InDegree[Cs] == 0)
      Ready.push_back(static_cast<uint32_t>(Cs));
  size_t Done = 0;
  while (!Ready.empty()) {
    uint32_t Cs = Ready.back();
    Ready.pop_back();
    ++Done;
    const uint32_t *From = &Clock[Cs * T];
    Clock[Cs * T + S.Thread[Cs]] = S.Index[Cs] + 1;
    auto propagate = [&](uint32_t To) {
      uint32_t *Dst = &Clock[To * T];
      for (size_t U = 0; U != T; ++U)
        Dst[U] = std::max(Dst[U], From[U]);
      if (--InDegree[To] == 0)
        Ready.push_back(To);
    };
    if (hasNextInThread(Cs))
      propagate(Cs + 1);
    for (uint32_t I = SuccBegin[Cs]; I != SuccBegin[Cs + 1]; ++I)
      propagate(Succ[I]);
  }
  if (Done != N)
    return PipelineError(ErrorCode::InvalidTrace,
                         "race check: program order, causal edges and "
                         "constraints form a cycle (" +
                             std::to_string(N - Done) +
                             " critical sections on or behind it)");
  return Clock;
}

Expected<std::vector<RaceReport>>
perfplay::checkRaces(const Trace &Transformed, const CsIndex &Index,
                     const TopologyGraph &Topology) {
  const Trace &Tr = Transformed;
  Sections S;
  std::vector<Access> Accesses;
  collect(Tr, S, Accesses);

  Expected<std::vector<uint32_t>> ClockOr = computeClocks(Tr, S, Topology);
  if (!ClockOr)
    return ClockOr.error();
  const std::vector<uint32_t> &Clock = *ClockOr;
  const size_t T = Tr.numThreads();

  auto reaches = [&](uint32_t X, uint32_t Y) {
    return Clock[Y * T + S.Thread[X]] > S.Index[X];
  };
  // Accesses on different threads: every enclosing pair is a pair of
  // distinct sections.
  auto ordered = [&](const Access &A, const Access &B) {
    for (uint32_t X = A.Inner; X != InvalidId; X = S.Parent[X])
      for (uint32_t Y = B.Inner; Y != InvalidId; Y = S.Parent[Y])
        if (reaches(X, Y) || reaches(Y, X))
          return true;
    return false;
  };
  auto shareLock = [&](uint32_t X, uint32_t Y) {
    const LockId *P = S.Locks.data() + S.LockBegin[X];
    const LockId *PEnd = S.Locks.data() + S.LockBegin[X + 1];
    const LockId *Q = S.Locks.data() + S.LockBegin[Y];
    const LockId *QEnd = S.Locks.data() + S.LockBegin[Y + 1];
    while (P != PEnd && Q != QEnd) {
      if (*P == *Q)
        return true;
      if (*P < *Q)
        ++P;
      else
        ++Q;
    }
    return false;
  };
  auto protectedPair = [&](const Access &A, const Access &B) {
    for (uint32_t X = A.Inner; X != InvalidId; X = S.Parent[X])
      for (uint32_t Y = B.Inner; Y != InvalidId; Y = S.Parent[Y])
        if (shareLock(X, Y))
          return true;
    return false;
  };

  // Address buckets, each in trace order: only same-address pairs can
  // conflict, and scanning a bucket pair by pair meets every (section
  // pair, address) combination first at its earliest access pair.
  std::stable_sort(Accesses.begin(), Accesses.end(),
                   [](const Access &L, const Access &R) {
                     return L.Addr < R.Addr;
                   });

  std::vector<Candidate> Found;
  std::unordered_set<uint64_t> Seen; // (CsLo, CsHi) within one bucket.
  for (auto Begin = Accesses.begin(), End = Begin; Begin != Accesses.end();
       Begin = End) {
    bool AnyWrite = false;
    for (End = Begin; End != Accesses.end() && End->Addr == Begin->Addr;
         ++End)
      AnyWrite |= End->IsWrite;
    if (!AnyWrite)
      continue;
    Seen.clear();
    for (auto A = Begin; A != End; ++A)
      for (auto B = A + 1; B != End; ++B) {
        if (A->Thread == B->Thread || (!A->IsWrite && !B->IsWrite))
          continue;
        if (ordered(*A, *B) || protectedPair(*A, *B))
          continue;
        uint64_t Lo = std::min(A->Inner, B->Inner);
        uint64_t Hi = std::max(A->Inner, B->Inner);
        if (Seen.insert(Lo << 32 | Hi).second)
          Found.push_back(Candidate{&*A, &*B});
      }
  }
  std::sort(Found.begin(), Found.end(),
            [](const Candidate &L, const Candidate &R) {
              return L.A->Order != R.A->Order ? L.A->Order < R.A->Order
                                              : L.B->Order < R.B->Order;
            });

  // Theorem 1 tolerates *benign* interleavings (redundant writes,
  // commutative updates): a conflicting but order-insensitive pair of
  // sections was parallelized on purpose and is not a race.
  std::optional<MemoryImage> Initial;
  std::vector<RaceReport> Races;
  for (const Candidate &C : Found) {
    const Access &A = *C.A;
    const Access &B = *C.B;
    if (A.Inner != InvalidId && B.Inner != InvalidId) {
      if (!Initial)
        Initial.emplace(MemoryImage::initialOf(Tr));
      if (classifyPair(Tr, *Initial, Index.byGlobalId(A.Inner),
                       Index.byGlobalId(B.Inner)) !=
          UlcpKind::TrueContention)
        continue;
    }
    Races.push_back(RaceReport{A.Addr, A.Thread, B.Thread, A.Inner, B.Inner});
  }
  return Races;
}
