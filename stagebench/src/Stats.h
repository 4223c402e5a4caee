//===- Stats.h - Order statistics for the stage benchmark --------*- C++ -*-===//
///
/// \file
/// Medians and the tail-percentile rule every latency metric follows:
/// a tail always leaves at least ten samples beyond it, so it is never
/// one or two outliers.
///
//===----------------------------------------------------------------------===//

#ifndef STAGEBENCH_STATS_H
#define STAGEBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace stagebench {

/// Samples a tail percentile must leave strictly above it.
constexpr size_t MinSamplesBeyondTail = 10;
/// The tail percentile when there are enough samples for it.
constexpr size_t TailPercent = 90;

/// Median of \p Values (mean of the middle two for an even count);
/// 0 for an empty set.
double median(std::vector<double> Values);

/// Mean of \p Values; 0 for an empty set.
double mean(const std::vector<double> &Values);

/// The chosen tail of one sample set.
struct TailPick {
  /// Percentile in [0, 100): 100 * rank / N.
  double Percentile = 0;
  /// The sample at that rank.
  double Value = 0;
  /// Samples strictly beyond the chosen rank: MinSamplesBeyondTail
  /// unless Valid is false.
  size_t Beyond = 0;
  /// Number of samples the pick was made from.
  size_t Count = 0;
  /// False when there are too few samples for a tail (fewer than
  /// 2 * MinSamplesBeyondTail); the median is reported instead.
  bool Valid = false;
};

/// Picks the tail of the N \p Samples: p90 (the sample of rank
/// ceil(0.9 N), 1-based, ascending) when that leaves at least
/// MinSamplesBeyondTail samples beyond it, i.e. when N >= 100; below
/// that, the sample of rank N - MinSamplesBeyondTail, the highest
/// percentile that still leaves ten beyond.  Both ranks move by at most
/// one sample per added sample, so runs whose op counts differ slightly
/// report nearly the same tail.  Rank N - 10 alone would make the tail
/// of a long run its eleventh-slowest op, set by the host's worst
/// second (one burst of eleven slow ops moved a record-lockheavy tail
/// 2x); p90 needs a tenth of the run to be slow.
TailPick tailPercentile(std::vector<double> Samples);

} // namespace stagebench

#endif // STAGEBENCH_STATS_H
