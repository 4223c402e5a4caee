//===- Stats.cpp - Order statistics for the stage benchmark ---------------===//

#include "Stats.h"

#include <algorithm>
#include <numeric>

namespace stagebench {

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  return std::accumulate(Values.begin(), Values.end(), 0.0) /
         static_cast<double>(Values.size());
}

TailPick tailPercentile(std::vector<double> Samples) {
  TailPick Pick;
  const size_t N = Samples.size();
  Pick.Count = N;
  if (N == 0)
    return Pick;
  std::sort(Samples.begin(), Samples.end());
  // Below 2 * MinSamplesBeyondTail the rank would fall under the
  // median; report the median's rank instead and flag the pick.
  Pick.Valid = N >= 2 * MinSamplesBeyondTail;
  size_t Rank = (N + 1) / 2;
  if (Pick.Valid)
    Rank = std::min((TailPercent * N + 99) / 100, N - MinSamplesBeyondTail);
  Pick.Value = Samples[Rank - 1];
  Pick.Beyond = N - Rank;
  Pick.Percentile = 100.0 * Rank / N;
  return Pick;
}

} // namespace stagebench
