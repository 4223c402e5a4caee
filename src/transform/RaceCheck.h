//===- transform/RaceCheck.h - Theorem 1 race reporting ---------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Theorem 1 says the transformed trace either preserves the original
/// program semantics or *reports the data races* that make the newly
/// exposed parallelism unsafe.  This pass finds conflicting shared
/// accesses that the transformation left unordered and unprotected:
/// accesses on different threads to the same address (at least one
/// write) whose enclosing critical sections have disjoint locksets and
/// are not ordered by program order, causal edges or RULE 2
/// constraints.
///
/// Happens-before is a vector clock per critical section, computed in
/// one topological pass over that order (O((N + E) * T) for N
/// sections, E edges and T threads); accesses are paired only within
/// their address bucket.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRANSFORM_RACECHECK_H
#define PERFPLAY_TRANSFORM_RACECHECK_H

#include "detect/CriticalSection.h"
#include "support/Expected.h"
#include "trace/Trace.h"
#include "transform/Topology.h"

#include <vector>

namespace perfplay {

/// One reported race.
struct RaceReport {
  AddrId Addr = 0;
  ThreadId ThreadA = InvalidId;
  ThreadId ThreadB = InvalidId;
  /// Innermost enclosing critical sections (InvalidId if the access is
  /// outside any critical section).
  uint32_t CsA = InvalidId;
  uint32_t CsB = InvalidId;
};

/// Scans the transformed trace \p Transformed (with \p Topology from
/// the transformation and \p Index built from the *original* trace,
/// whose critical-section numbering it shares) and returns the races
/// the transformation would expose.  Duplicate (CsA, CsB, Addr)
/// combinations are reported once, in the order of the first access
/// pair (trace order, thread-major) that exposes each.
///
/// Precondition: program order, \p Topology's edges and the trace's
/// constraints form an acyclic order (a cyclic constraint set already
/// fails the session's recording run).  A cycle, or an edge naming a
/// section the trace does not have, yields ErrorCode::InvalidTrace.
Expected<std::vector<RaceReport>> checkRaces(const Trace &Transformed,
                                             const CsIndex &Index,
                                             const TopologyGraph &Topology);

} // namespace perfplay

#endif // PERFPLAY_TRANSFORM_RACECHECK_H
