//===- Options.h - Command line of the stage benchmark -----------*- C++ -*-===//

#ifndef STAGEBENCH_OPTIONS_H
#define STAGEBENCH_OPTIONS_H

#include <cstdint>
#include <string>
#include <vector>

namespace stagebench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  /// Length of the timed loop.
  unsigned Seconds = 10;
  /// Run the traced variant (per-layer metrics) instead of the
  /// untraced one (end-to-end metrics).
  bool Trace = false;
};

/// The workloads the benchmark knows, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Parses `--workload NAME --seed N [--seconds S] [--trace 0|1]`
/// (also the `--flag=value` form).  Returns an empty string on success,
/// otherwise the usage error to print.  --workload and --seed are
/// required: a run without an explicit seed would not be reproducible.
std::string parseOptions(const std::vector<std::string> &Args, Options &Out);

} // namespace stagebench

#endif // STAGEBENCH_OPTIONS_H
