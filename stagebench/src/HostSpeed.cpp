//===- HostSpeed.cpp - Host-speed calibration -----------------------------===//

#include "HostSpeed.h"

#include "Stats.h"
#include "Tracer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <stdexcept>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>


namespace stagebench {

double runCalibrationKernel() {
  // Built once, outside the timed part.
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(1u << 16);
    uint64_t Y = 0x2545f4914f6cdd1dull;
    for (uint32_t &E : T) {
      Y = Y * 6364136223846793005ull + 1442695040888963407ull;
      E = static_cast<uint32_t>(Y >> 32);
    }
    return T;
  }();
  uint64_t X = 0x9e3779b97f4a7c15ull;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };

  const int64_t Start = nowNs();
  uint64_t Sum = 0;
  // Integer and branch work streaming over the table.
  uint64_t A = 1, B = 2, C = 3, D = 4;
  for (uint32_t I = 0; I < 300000; ++I) {
    A += Table[I & (Table.size() - 1)] ^ B;
    B += (C >> 3) + I;
    C ^= D + A;
    D += (A & 0xff) * 3;
    if ((A ^ I) & 1)
      C += 7;
  }
  Sum += A + B + C + D;
  // Eight independent shift-xor streams: as many ALU ops per cycle as
  // the core will issue.
  uint64_t Streams[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int I = 0; I < 100000; ++I)
    for (uint64_t &S : Streams) {
      S ^= S << 13;
      S ^= S >> 7;
      S ^= S << 17;
    }
  for (uint64_t S : Streams)
    Sum += S;
  // Hash-map inserts and lookups: allocation, hashing, probing.
  std::unordered_map<uint64_t, uint64_t> Map;
  for (int I = 0; I < 6000; ++I)
    Map[Next() & 0xffffff] += I;
  for (int I = 0; I < 12000; ++I)
    if (auto It = Map.find(static_cast<uint64_t>(I) * 419); It != Map.end())
      Sum += It->second;
  // A sort: data-dependent branches over a streamed array.
  std::vector<uint64_t> Keys(15000);
  for (uint64_t &K : Keys)
    K = Next();
  std::sort(Keys.begin(), Keys.end());
  Sum += Keys[Keys.size() / 2];
  // Allocation churn: small vectors of varying size are allocated,
  // filled, read back and freed.
  {
    std::vector<std::vector<uint32_t>> Vectors;
    for (uint32_t I = 0; I < 3000; ++I)
      Vectors.emplace_back(16 + (Next() & 63), I);
    for (const std::vector<uint32_t> &V : Vectors)
      Sum += V.size() + V.back();
  }
  const int64_t End = nowNs();

  volatile uint64_t Sink = Sum;
  (void)Sink;
  return (End - Start) / 1e6;
}

double speedFactor(const std::vector<double> &KernelMs) {
  double Median = median(KernelMs);
  return Median > 0 ? ReferenceKernelMs / Median : 1;
}

KernelProcess::KernelProcess() {
  int Request[2], Reply[2];
  if (pipe2(Request, O_CLOEXEC) != 0)
    throw std::runtime_error("calibration helper: pipe failed");
  if (pipe2(Reply, O_CLOEXEC) != 0) {
    close(Request[0]);
    close(Request[1]);
    throw std::runtime_error("calibration helper: pipe failed");
  }
  std::fflush(nullptr);
  Pid = fork();
  if (Pid < 0) {
    for (int Fd : {Request[0], Request[1], Reply[0], Reply[1]})
      close(Fd);
    throw std::runtime_error("calibration helper: fork failed");
  }
  if (Pid == 0) {
    // The helper: one kernel sample per request byte, until the parent
    // closes the pipe (or dies).
    close(Request[1]);
    close(Reply[0]);
    char Byte;
    while (read(Request[0], &Byte, 1) == 1) {
      runCalibrationKernel();
      double Ms = runCalibrationKernel();
      if (write(Reply[1], &Ms, sizeof(Ms)) != sizeof(Ms))
        break;
    }
    _exit(0);
  }
  close(Request[0]);
  close(Reply[1]);
  RequestFd = Request[1];
  ReplyFd = Reply[0];
}

KernelProcess::~KernelProcess() {
  close(RequestFd);
  close(ReplyFd);
  while (waitpid(Pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

double KernelProcess::sample() {
  char Byte = 1;
  double Ms = 0;
  ssize_t Got = -1;
  if (write(RequestFd, &Byte, 1) == 1) {
    do
      Got = read(ReplyFd, &Ms, sizeof(Ms));
    while (Got < 0 && errno == EINTR);
  }
  if (Got != sizeof(Ms))
    throw std::runtime_error("calibration helper exited");
  return Ms;
}

void HostSpeed::sample() {
  KernelMs.push_back(Kernel.sample());
  LastEndNs = nowNs();
}

void HostSpeed::sampleEvery(double IntervalMs) {
  if (KernelMs.empty() || (nowNs() - LastEndNs) / 1e6 >= IntervalMs)
    sample();
}

} // namespace stagebench
