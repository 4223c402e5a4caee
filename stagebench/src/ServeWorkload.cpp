//===- ServeWorkload.cpp - serve-zipf -------------------------------------===//
//
// A resident daemon (serve::Server, two workers) and one closed-loop
// ServeClient, since every caller of the daemon waits for its reply.
// Requests pick one of a set of small paper traces, Zipf-distributed,
// and the cache budget holds only part of the working set, so some
// requests hit the result cache (pure serve/ work: framing, socket,
// lookup) and the rest parse and analyze the trace.  The two kinds
// differ in cost by two orders of magnitude, so their latencies are
// reported separately.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Workload.h"

#include "core/Engine.h"
#include "serve/Server.h"
#include "trace/TraceIO.h"
#include "workloads/Apps.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <sys/stat.h>

using namespace perfplay;
using namespace perfplay::serve;

namespace stagebench {

namespace {

/// Distinct traces (one paper model, one generator seed each, so a miss
/// costs about the same whichever trace it is).
constexpr unsigned NumTraces = 16;
constexpr double ZipfExponent = 1.0;
/// Cache budget in mean trace files.  With about one and a half traces
/// resident, LRU eviction settles at a miss ratio near 70 % whatever
/// the seed; budgets of several traces make the ratio swing between
/// runs (a few % to tens of %), which would move every figure.
constexpr double CacheTraces = 1.5;

class ServeZipf : public Workload {
public:
  void setup(const std::string &WorkDir, uint64_t Seed) override {
    Rng.seed(Seed);
    uint64_t TotalBytes = 0;
    Engine Direct;
    for (unsigned I = 0; I < NumTraces; ++I) {
      WorkloadSpec Spec = makeMysql(8, 2);
      Spec.Seed = Rng();
      Trace Tr = generateWorkload(Spec);
      std::string Path = WorkDir + "/t" + std::to_string(I) + ".v3", Err;
      if (!saveTrace(Tr, Path, Err, TraceFormat::V3))
        throw std::runtime_error("writing " + Path + ": " + Err);
      struct stat St;
      TotalBytes += stat(Path.c_str(), &St) == 0 ? St.st_size : 0;
      // The reference every response must match: the same analysis run
      // in-process through the library.
      Expected<PipelineResult> R = Direct.analyzeTrace(std::move(Tr));
      if (!R)
        throw std::runtime_error("reference analysis: " + R.message());
      Paths.push_back(Path);
      Refs.push_back(summarizeResult(*R));
    }
    double Norm = 0;
    for (unsigned R = 1; R <= NumTraces; ++R)
      Norm += 1 / std::pow(R, ZipfExponent);
    double Acc = 0;
    for (unsigned R = 1; R <= NumTraces; ++R) {
      Acc += 1 / std::pow(R, ZipfExponent) / Norm;
      Cdf.push_back(Acc);
    }
    ServerOptions SO;
    SO.SocketPath = WorkDir + "/serve.sock";
    SO.NumWorkers = 2;
    SO.CacheBudgetBytes =
        static_cast<size_t>(CacheTraces * TotalBytes / NumTraces);
    Budget = SO.CacheBudgetBytes;
    Daemon = std::make_unique<Server>(SO);
    if (Expected<void> S = Daemon->start(); !S)
      throw std::runtime_error("daemon start: " + S.message());
    if (Expected<void> C = Client.connect(SO.SocketPath); !C)
      throw std::runtime_error("connect: " + C.message());
    OpSample Warm = runOp(0, nullptr);
    if (!Warm.ok())
      throw std::runtime_error("warm-up request: " + Warm.Error);
    HitMs.clear();
  }

  OpSample runOp(uint64_t Op, Tracer *T) override {
    double U = (Rng() >> 11) * 0x1.0p-53;
    size_t I = std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    I = std::min<size_t>(I, NumTraces - 1);
    AnalyzeRequest Req;
    Req.Path = Paths[I];
    int64_t Start = nowNs();
    Expected<ResultSummary> R = [&] {
      SpanScope _(T, "serve.request", Op);
      return Client.analyze(Req);
    }();
    OpSample S;
    S.LatencyMs = (nowNs() - Start) / 1e6;
    if (!R)
      S.Error = R.message();
    else if (!R->sameVerdicts(Refs[I]))
      S.Error = "response for " + Paths[I] +
                " differs from the in-process analysis";
    if (!S.ok())
      return S;
    S.CacheHit = R->FromResultCache;
    if (S.CacheHit)
      HitMs.push_back(S.LatencyMs);
    return S;
  }

  bool resident() const override { return true; }

  void layerValues(const Tracer &, size_t, bool, LayerValues &Out) override {
    Out["serve.hit_p50_ms"] = median(HitMs);
    Expected<ServeStats> St = Client.stats();
    if (!St)
      return;
    Stats = *St;
    auto Ratio = [](uint64_t Hits, uint64_t Misses) {
      return Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0;
    };
    Out["serve.daemon_p50_us"] = static_cast<double>(St->P50Micros);
    Out["serve.result_hit_ratio"] =
        Ratio(St->ResultCacheHits, St->ResultCacheMisses);
    Out["serve.trace_hit_ratio"] =
        Ratio(St->TraceCacheHits, St->TraceCacheMisses);
    Out["serve.evictions"] = static_cast<double>(St->CacheEvictions);
    Out["serve.rejected"] = static_cast<double>(St->RequestsRejected);
  }

  void describe(std::FILE *Out) const override {
    std::fprintf(Out,
                 "inputs: %u mysql traces (8 threads, scale 2), zipf s=%g, "
                 "cache budget %zu bytes, 2 workers, 1 closed-loop client\n",
                 NumTraces, ZipfExponent, Budget);
    std::fprintf(Out,
                 "daemon: %llu served, %llu result hits, %llu result misses, "
                 "%llu evictions\n",
                 static_cast<unsigned long long>(Stats.RequestsServed),
                 static_cast<unsigned long long>(Stats.ResultCacheHits),
                 static_cast<unsigned long long>(Stats.ResultCacheMisses),
                 static_cast<unsigned long long>(Stats.CacheEvictions));
  }

  void teardown() override {
    Client.close();
    if (Daemon)
      Daemon->stop();
  }

  ~ServeZipf() override { teardown(); }

private:
  std::mt19937_64 Rng;
  std::vector<std::string> Paths;
  std::vector<ResultSummary> Refs;
  std::vector<double> Cdf;
  size_t Budget = 0;
  std::unique_ptr<Server> Daemon;
  ServeClient Client;
  std::vector<double> HitMs;
  ServeStats Stats;
};

} // namespace

std::unique_ptr<Workload> makeServeZipf() {
  return std::make_unique<ServeZipf>();
}

} // namespace stagebench
