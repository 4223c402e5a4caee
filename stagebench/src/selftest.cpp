//===- selftest.cpp - Tests of the benchmark's own logic ------------------===//
//
// Checks the tail-percentile rule on known data, the host-speed
// scaling, that a wrong verdict becomes a failed op, and the usage
// errors.  Exits non-zero on the
// first failed check.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "HostSpeed.h"
#include "Options.h"
#include "PipelineWorkloads.h"
#include "Runner.h"
#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>

using namespace stagebench;

static int Failed = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      ++Failed;                                                                \
    }                                                                          \
  } while (0)

/// 1, 2, ..., N.
static std::vector<double> ramp(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

static void testTailRule() {
  // The pick always leaves at least ten samples beyond it.  It is p90
  // once p90 leaves ten (N >= 100); below that, it is the highest
  // percentile that still leaves ten, so exactly ten lie beyond it.
  for (size_t N : {20, 21, 50, 99, 100, 101, 109, 110, 199, 200, 1000,
                   20000}) {
    TailPick P = tailPercentile(ramp(N));
    CHECK(P.Valid);
    CHECK(P.Count == N);
    CHECK(P.Beyond >= MinSamplesBeyondTail);
    // On a ramp the value is the rank.
    const size_t Rank = static_cast<size_t>(P.Value);
    CHECK(P.Beyond == N - Rank);
    CHECK(Rank == (N >= 100 ? (9 * N + 9) / 10 : N - MinSamplesBeyondTail));
    CHECK(P.Percentile == 100.0 * Rank / N);
    if (N < 100)
      CHECK(P.Beyond == MinSamplesBeyondTail);
  }
  CHECK(tailPercentile(ramp(100)).Percentile == 90);
  CHECK(tailPercentile(ramp(1000)).Percentile == 90);
  CHECK(tailPercentile(ramp(50)).Percentile == 80);
  CHECK(tailPercentile(ramp(20)).Percentile == 50);
  // Too few samples for a tail: the median's rank, flagged.
  TailPick Small = tailPercentile(ramp(19));
  CHECK(!Small.Valid && Small.Value == 10 && Small.Beyond == 9);
  CHECK(!tailPercentile({}).Valid);
  // Order of the input does not matter.
  std::vector<double> Shuffled = ramp(100);
  std::swap(Shuffled[3], Shuffled[97]);
  CHECK(tailPercentile(Shuffled).Value == 90);
  CHECK(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5);
}

static void testLoopSummary() {
  std::vector<OpSample> S(30);
  for (size_t I = 0; I < S.size(); ++I)
    S[I].LatencyMs = I < 20 ? 0.2 : 40; // 20 hits, 10 misses
  for (size_t I = 0; I < 20; ++I)
    S[I].CacheHit = true;
  S[25].Error = "wrong verdict";
  for (OpSample &O : S)
    O.CpuMs = 10;
  S[0].PeakRssMb = 10;
  S[1].PeakRssMb = 30;
  S[2].PeakRssMb = 20;
  LoopSummary L = summarizeLoop(S);
  CHECK(L.Attempted == 30 && L.Failed == 1);
  CHECK(L.FirstError == "wrong verdict");
  CHECK(L.LatencySamples == 20 && L.LatencyP50Ms == 0.2);
  CHECK(L.MissSamples == 10 && L.MissLatencyP50Ms == 40);
  CHECK(L.CpuMsPerOp == 10);
  CHECK(L.PeakRssMb == 30); // the highest op peak
}

static void testHostSpeedScaling() {
  // Kernel runs at twice the reference time: the host runs at half the
  // reference speed, so its times halve.
  const double Ref = ReferenceKernelMs;
  CHECK(speedFactor({2 * Ref, 2 * Ref, 2 * Ref}) == 0.5);
  // The median sample sets the factor; one preempted run does not.
  CHECK(speedFactor({Ref, Ref, 50 * Ref}) == 1);
  CHECK(speedFactor({}) == 1);

  std::vector<OpSample> S(20);
  for (size_t I = 0; I < S.size(); ++I) {
    S[I].LatencyMs = 10.0 * (I + 1);
    S[I].CpuMs = 4;
    S[I].PeakRssMb = 7;
  }
  LoopSummary Before = summarizeLoop(S);
  scaleTimes(S, 0.5);
  LoopSummary After = summarizeLoop(S);
  CHECK(After.LatencyP50Ms == Before.LatencyP50Ms / 2);
  CHECK(After.LatencyTail.Value == Before.LatencyTail.Value / 2);
  CHECK(std::abs(After.ThroughputPerS - Before.ThroughputPerS * 2) < 1e-9);
  CHECK(After.CpuMsPerOp == 2);
  CHECK(After.PeakRssMb == 7); // memory is not a time

  KernelProcess Kernel;
  HostSpeed Speed(Kernel);
  Speed.sample();
  Speed.sampleEvery(1e9); // too soon after the first sample
  CHECK(Speed.samples().size() == 1 && Speed.samples()[0] > 0);
}

static void testWrongVerdictFails() {
  PipelineOutcome Want;
  Want.Counts.NullLock = 5;
  Want.OrigTimeNs = 100;
  PipelineOutcome Got = Want;
  CHECK(diffOutcome(Want, Got).empty());
  Got.Counts.Benign = 1;
  CHECK(!diffOutcome(Want, Got).empty());

  RecordingFacts F;
  F.Attempts = F.Records = 7;
  F.Acquires = F.ExpectedAcquires = 3;
  CHECK(checkRecording(F).empty());
  F.Records = 6;
  F.Drops = 1;
  CHECK(!checkRecording(F).empty());
  F.Records = 7;
  F.Drops = 0;
  F.Acquires = 2;
  CHECK(!checkRecording(F).empty());

  // End to end through a real workload: corrupt the reference verdict
  // the warm-up op produced, and the next op must count as failed.
  namespace fs = std::filesystem;
  fs::path Dir =
      fs::path(".bench_work") / ("selftest-" + std::to_string(getpid()));
  fs::create_directories(Dir);
  {
    std::unique_ptr<Workload> W = makeAnalyzeRaces();
    auto &PW = static_cast<PipelineWorkload &>(*W);
    PW.setup(Dir.string(), 1);
    // Op N analyzes input N % roundSize(); op 0 and op roundSize() both
    // use input 0.
    const uint64_t Again = PW.roundSize();
    CHECK(PW.runOp(0, nullptr).ok());
    PW.reference(0).Counts.TrueContention += 1;
    CHECK(!PW.runOp(Again, nullptr).ok());
    CHECK(PW.runOp(1, nullptr).ok()); // other inputs are unaffected
    PW.reference(0).Counts.TrueContention -= 1;
    PW.reference(0).Races += 1;
    CHECK(!PW.runOp(0, nullptr).ok());
  }
  fs::remove_all(Dir);
}

static void testUsage() {
  Options O;
  CHECK(parseOptions({"--workload", "analyze-paper", "--seed", "3"}, O)
            .empty());
  CHECK(O.Workload == "analyze-paper" && O.Seed == 3 && !O.Trace);
  CHECK(parseOptions({"--workload=serve-zipf", "--seed=0", "--seconds=2",
                      "--trace=1"},
                     O)
            .empty());
  CHECK(O.Seconds == 2 && O.Trace);
  CHECK(!parseOptions({"--workload", "nope", "--seed", "1"}, O).empty());
  CHECK(!parseOptions({"--workload", "detect-large"}, O).empty());
  CHECK(!parseOptions({"--seed", "1"}, O).empty());
  CHECK(!parseOptions({"--workload", "detect-large", "--seed", "-1"}, O)
             .empty());
  CHECK(!parseOptions({"--workload", "detect-large", "--seed"}, O).empty());
  CHECK(!parseOptions({"--workload", "detect-large", "--seed", "1",
                       "--trace", "2"},
                      O)
             .empty());
  CHECK(!parseOptions({"--workload", "detect-large", "--seed", "1",
                       "--seconds", "0"},
                      O)
             .empty());
}

int main() {
  testTailRule();
  testLoopSummary();
  testHostSpeedScaling();
  testWrongVerdictFails();
  testUsage();
  if (Failed) {
    std::fprintf(stderr, "stagebench_selftest: %d check(s) failed\n", Failed);
    return 1;
  }
  std::printf("stagebench_selftest: all checks passed\n");
  return 0;
}
