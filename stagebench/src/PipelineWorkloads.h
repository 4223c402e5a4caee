//===- PipelineWorkloads.h - Session-driven workloads -------------*- C++ -*-===//
///
/// \file
/// analyze-paper, analyze-races and detect-large: each op opens a fresh
/// AnalysisSession from a v3 file and calls the public stages one by
/// one, each inside its own span, exactly as `perfplay analyze` would
/// run them.
///
//===----------------------------------------------------------------------===//

#ifndef STAGEBENCH_PIPELINEWORKLOADS_H
#define STAGEBENCH_PIPELINEWORKLOADS_H

#include "Checks.h"
#include "Workload.h"

#include "core/Engine.h"
#include "workloads/WorkloadSpec.h"

#include <vector>

namespace stagebench {

/// One generated input: which paper model, at what size.
struct InputSpec {
  const char *App;
  perfplay::WorkloadSpec (*Factory)(unsigned Threads, double Scale);
  unsigned Threads;
  double Scale;
};

class PipelineWorkload : public Workload {
public:
  enum class Mode {
    /// load, record, csIndex, detect, transform, both ELSC-S replays,
    /// report.
    Analyze,
    /// Analyze plus the Theorem-1 race check.
    AnalyzeRaces,
    /// load, record, csIndex, detect, then windowed detection of the
    /// same trace.
    Detect,
  };

  PipelineWorkload(Mode M, std::vector<InputSpec> Specs);

  void setup(const std::string &WorkDir, uint64_t Seed) override;
  OpSample runOp(uint64_t Op, Tracer *T) override;
  unsigned roundSize() const override {
    return static_cast<unsigned>(Inputs.size());
  }
  void layerValues(const Tracer &T, size_t Ops, bool Traced,
                   LayerValues &Out) override;
  void describe(std::FILE *Out) const override;

  /// The reference outcome of input \p I, taken from the warm-up op.
  PipelineOutcome &reference(size_t I) { return Inputs[I].Ref; }

private:
  struct Input {
    InputSpec Spec;
    std::string Path;
    /// Detect mode: the same trace with its recorded grant schedule.
    std::string RecordedPath;
    uint64_t Bytes = 0;
    PipelineOutcome Ref;
  };

  /// Runs the stages over input \p I.  Returns "" on success, otherwise
  /// the failing stage's error.
  std::string analyze(const Input &In, uint64_t Op, Tracer *T,
                      PipelineOutcome &Out);

  Mode M;
  perfplay::Engine Eng;
  std::vector<Input> Inputs;
};

} // namespace stagebench

#endif // STAGEBENCH_PIPELINEWORKLOADS_H
