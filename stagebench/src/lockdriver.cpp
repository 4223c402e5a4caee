//===- lockdriver.cpp - Subject program of record-lockheavy ---------------===//
//
// A plain pthread program (no PerfPlay code) that `perfplay record`
// records.  Each of 3 threads runs I iterations of: lock one of 4
// mutexes, INNER steps of arithmetic on the data it guards, unlock,
// OUTER steps of private arithmetic.  It makes exactly 3 x I
// pthread_mutex_lock calls, which the benchmark checks the recording
// against, and prints its own run time (thread creation to last join)
// so the recorder's start-up and finalize cost can be told apart from
// its per-call cost, and its own peak resident set (which includes the
// recorder's buffers when it runs under `perfplay record`).  SEED sets
// the guarded data and each thread's starting lock.
//
//   lockdriver ITERATIONS INNER OUTER SEED
//
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <pthread.h>

namespace {

constexpr unsigned NumThreads = 3;
constexpr unsigned NumLocks = 4;

struct Shared {
  pthread_mutex_t Mu = PTHREAD_MUTEX_INITIALIZER;
  uint64_t Value = 0;
};

struct Config {
  unsigned Iterations = 0;
  unsigned Inner = 0;
  unsigned Outer = 0;
  unsigned long long Seed = 0;
  Shared *Locks = nullptr;
};

struct Worker {
  const Config *Cfg = nullptr;
  unsigned Id = 0;
  uint64_t Private = 0;
};

uint64_t step(uint64_t X, unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    X = X * 6364136223846793005ull + 1442695040888963407ull;
  return X;
}

void *run(void *Arg) {
  Worker &W = *static_cast<Worker *>(Arg);
  const Config &C = *W.Cfg;
  uint64_t X = step(C.Seed + W.Id, 1);
  const unsigned First = static_cast<unsigned>(X % NumLocks);
  for (unsigned I = 0; I < C.Iterations; ++I) {
    Shared &S = C.Locks[(First + I) % NumLocks];
    pthread_mutex_lock(&S.Mu);
    S.Value = step(S.Value + X, C.Inner);
    pthread_mutex_unlock(&S.Mu);
    X = step(X, C.Outer);
  }
  W.Private = X;
  return nullptr;
}

bool parse(const char *S, unsigned Max, unsigned &Out) {
  char *End = nullptr;
  unsigned long V = std::strtoul(S, &End, 10);
  if (End == S || *End != '\0' || V > Max)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// VmHWM of this process in kB, 0 if unreadable.  Unlike the
/// ru_maxrss a parent collects, it covers only this program's own
/// address space: the kernel charges a child the pre-exec RSS of the
/// parent it was spawned from.
unsigned long peakRssKb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  unsigned long Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::strtoul(Line + 6, nullptr, 10);
  std::fclose(F);
  return Kb;
}

int64_t nowNs() {
  timespec Ts{};
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<int64_t>(Ts.tv_sec) * 1'000'000'000 + Ts.tv_nsec;
}

} // namespace

int main(int Argc, char **Argv) {
  Config Cfg;
  char *SeedEnd = nullptr;
  if (Argc != 5 || !parse(Argv[1], 100'000'000, Cfg.Iterations) ||
      !parse(Argv[2], 1'000'000, Cfg.Inner) ||
      !parse(Argv[3], 1'000'000, Cfg.Outer) ||
      (Cfg.Seed = std::strtoull(Argv[4], &SeedEnd, 10), *SeedEnd != '\0')) {
    std::fprintf(stderr, "usage: lockdriver ITERATIONS INNER OUTER SEED\n");
    return 2;
  }
  Shared Locks[NumLocks];
  Cfg.Locks = Locks;
  Worker Workers[NumThreads];
  pthread_t Tids[NumThreads];
  int64_t Start = nowNs();
  for (unsigned T = 0; T < NumThreads; ++T) {
    Workers[T].Cfg = &Cfg;
    Workers[T].Id = T;
    if (pthread_create(&Tids[T], nullptr, run, &Workers[T]) != 0) {
      std::fprintf(stderr, "lockdriver: pthread_create failed\n");
      return 1;
    }
  }
  for (unsigned T = 0; T < NumThreads; ++T)
    pthread_join(Tids[T], nullptr);
  int64_t RunNs = nowNs() - Start;
  uint64_t Check = 0;
  for (const Worker &W : Workers)
    Check ^= W.Private;
  for (const Shared &S : Locks)
    Check ^= S.Value;
  std::printf("run_ns %lld rss_kb %lu check %llu\n",
              static_cast<long long>(RunNs), peakRssKb(),
              static_cast<unsigned long long>(Check));
  return 0;
}
