//===- Checks.h - Correctness checks behind failed ops ------------*- C++ -*-===//
///
/// \file
/// The comparisons that decide whether an op's outputs are correct.
/// Each returns an empty string when they are, otherwise the first
/// mismatch, which the workload reports and counts as a failed op.
///
//===----------------------------------------------------------------------===//

#ifndef STAGEBENCH_CHECKS_H
#define STAGEBENCH_CHECKS_H

#include "detect/Ulcp.h"

#include <cstdint>
#include <string>

namespace stagebench {

/// What one analysis of a trace concluded: the verdict counts, the
/// transformation's shape, both replay makespans and the race count.
/// Deterministic for a given trace and options.
struct PipelineOutcome {
  perfplay::UlcpCounts Counts;
  uint64_t AuxLocks = 0;
  uint64_t Standalone = 0;
  uint64_t OrigTimeNs = 0;
  uint64_t FreeTimeNs = 0;
  uint64_t Races = 0;
};

/// Compares an op's outcome \p Got with the reference \p Want.
std::string diffOutcome(const PipelineOutcome &Want,
                        const PipelineOutcome &Got);

/// Compares two detection results' verdict counts (whole-trace against
/// windowed detection).
std::string diffCounts(const perfplay::UlcpCounts &Want,
                       const perfplay::UlcpCounts &Got);

/// What one `perfplay record` run produced.
struct RecordingFacts {
  /// Empty when the recorded trace loaded and validated.
  std::string LoadError;
  /// The recorder's own counters (its stats sidecar).
  uint64_t Attempts = 0;
  uint64_t Records = 0;
  uint64_t Drops = 0;
  /// Lock acquisitions found in the recorded trace.
  uint64_t Acquires = 0;
  /// Lock acquisitions the driver performs (threads x iterations).
  uint64_t ExpectedAcquires = 0;
};

/// A recording is correct when its trace loads and validates, every
/// lock op the driver made is in it, and the recorder lost nothing:
/// records + drops == attempts and drops == 0.
std::string checkRecording(const RecordingFacts &F);

} // namespace stagebench

#endif // STAGEBENCH_CHECKS_H
