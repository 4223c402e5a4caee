//===- transform/Topology.h - Causal-order topology (RULE 1) ----*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The causal-order topology of Section 3: nodes are critical sections,
/// causal edges connect true lock contention pairs.  RULE 1 builds the
/// ULCP-free topology by sequential searching: each critical section
/// establishes a causal edge to its *first* matched TLCP in every other
/// thread; the ULCPs skipped over become non-causal (removable).
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRANSFORM_TOPOLOGY_H
#define PERFPLAY_TRANSFORM_TOPOLOGY_H

#include "detect/CriticalSection.h"
#include "trace/Trace.h"

#include <vector>

namespace perfplay {

/// A causal edge: critical section From contends truly with To and must
/// happen before it.
struct TopologyEdge {
  uint32_t From = InvalidId;
  uint32_t To = InvalidId;

  bool operator==(const TopologyEdge &RHS) const {
    return From == RHS.From && To == RHS.To;
  }
};

/// The causal-order topology over a trace's critical sections.
class TopologyGraph {
public:
  explicit TopologyGraph(size_t NumNodes) : NumNodes(NumNodes) {
    OutEdges.resize(NumNodes);
    InEdges.resize(NumNodes);
  }

  void addEdge(uint32_t From, uint32_t To);

  size_t numNodes() const { return NumNodes; }
  size_t numEdges() const { return Edges.size(); }
  const std::vector<TopologyEdge> &edges() const { return Edges; }

  /// Successors of \p Node (targets of its causal edges).
  const std::vector<uint32_t> &successors(uint32_t Node) const {
    return OutEdges[Node];
  }
  /// Predecessors of \p Node (sources of causal edges into it).
  const std::vector<uint32_t> &predecessors(uint32_t Node) const {
    return InEdges[Node];
  }

  unsigned outDegree(uint32_t Node) const {
    return static_cast<unsigned>(OutEdges[Node].size());
  }
  unsigned inDegree(uint32_t Node) const {
    return static_cast<unsigned>(InEdges[Node].size());
  }

  /// A standalone node has no causal edges at all; RULE 3 removes its
  /// lock/unlock operations entirely.
  bool isStandalone(uint32_t Node) const {
    return outDegree(Node) == 0 && inDegree(Node) == 0;
  }

private:
  size_t NumNodes;
  std::vector<TopologyEdge> Edges;
  std::vector<std::vector<uint32_t>> OutEdges;
  std::vector<std::vector<uint32_t>> InEdges;
};

/// RULE 1: builds the ULCP-free causal topology of \p Tr.
///
/// For every critical section A (in per-lock recorded order), and for
/// every other thread U, the first of U's same-lock critical sections
/// after A that classifies as a true contention pair with A receives a
/// causal edge A -> B.  ULCPs passed over on the way carry no edge.
///
/// The search is indexed, not a scan.  Per lock, flat sorted arrays
/// list for every (address, thread) the positions of that thread's
/// sections accessing the address and, separately, writing it, plus
/// each thread's sections with condvar operations.  Only a section
/// that accesses an address A writes, writes an address A reads, or
/// (when A has a condvar operation) has one too can classify as true
/// contention with A, so for each thread the search jumps from one such
/// candidate to the next and runs classifyPair on the candidates alone.
/// Reversed-replay verdicts are memoized per section-key pair
/// (detect/SectionKey.h): sections with equal keys classify alike.
///
/// Edges come out in the order a forward scan finds them: by A's
/// position, then by the target's.  Each section appears once in its
/// lock's order, so no edge repeats.
TopologyGraph buildTopology(const Trace &Tr, const CsIndex &Index);

} // namespace perfplay

#endif // PERFPLAY_TRANSFORM_TOPOLOGY_H
