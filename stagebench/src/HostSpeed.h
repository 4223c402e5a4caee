//===- HostSpeed.h - Host-speed calibration ----------------------*- C++ -*-===//
///
/// \file
/// A shared virtual machine's per-core speed follows its neighbours'
/// load: on a 4-vCPU Xeon VM, analyze-races on the same seed had a p50
/// of 87 ms in one run and 125 ms in another a minute later, with almost
/// no steal time reported, so CPU time moved as much as wall time.
/// Between runs that swing is far larger than any regression worth
/// catching.
///
/// So every run also times a fixed calibration kernel between its ops,
/// and reports each time figure scaled to a reference host: one on
/// which the kernel takes ReferenceKernelMs.  The kernel is ordinary C++
/// container work (integer and branch work over a table, independent
/// ALU streams, hash-map inserts and lookups, a sort, allocation
/// churn), the kind of work PerfPlay's stages do.  Of the kernels
/// tried, these followed the ops' slowdowns most closely, while a
/// dependent multiply chain or a pointer chase barely slowed down when
/// the ops slowed down 30 %.  The kernel is benchmark code: no PerfPlay
/// change alters it, so a slower op still reads slower.
///
/// The kernel and ReferenceKernelMs must never change: figures are only
/// comparable between commits measured with the same kernel.
///
//===----------------------------------------------------------------------===//

#ifndef STAGEBENCH_HOSTSPEED_H
#define STAGEBENCH_HOSTSPEED_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stagebench {

/// The kernel's time on the reference host, in ms.
constexpr double ReferenceKernelMs = 3.0;

/// Runs the calibration kernel once, in this process, and returns its
/// wall time in ms.
double runCalibrationKernel();

/// ReferenceKernelMs / median(\p KernelMs): the factor that turns a time
/// measured alongside those kernel runs into reference-host time.  1
/// when there are no samples.
double speedFactor(const std::vector<double> &KernelMs);

/// A single-threaded helper process, forked on construction, that runs
/// the kernel on request.  The kernel allocates, and glibc's allocator
/// takes a slower, locked path once a process has ever started a
/// thread: in the benchmark's own process the kernel ran twice as long
/// next to the serve daemon's threads as next to the single-threaded
/// pipeline.  In a process of its own the kernel sees only the host,
/// never what the measured code did to its process (threads, heap,
/// caches of its own data).  The helper inherits the CPU pinning.
class KernelProcess {
public:
  /// Forks the helper; throws std::runtime_error when that fails.
  KernelProcess();
  /// Closes the helper's request pipe and waits for it to exit.
  ~KernelProcess();
  KernelProcess(const KernelProcess &) = delete;
  KernelProcess &operator=(const KernelProcess &) = delete;

  /// Has the helper run the kernel twice back to back and returns the
  /// second run's time in ms: the first warms the caches and the
  /// allocator, so the timed run does not depend on what ran before
  /// it.  Throws std::runtime_error when the helper is gone.
  double sample();

private:
  int Pid = -1;
  int RequestFd = -1;
  int ReplyFd = -1;
};

/// The kernel samples of one phase of a run (set-up or timed loop).
class HostSpeed {
public:
  explicit HostSpeed(KernelProcess &Kernel) : Kernel(Kernel) {}

  /// Takes one kernel sample.
  void sample();
  /// Takes a sample if at least \p IntervalMs passed since the previous
  /// sample ended.
  void sampleEvery(double IntervalMs);

  const std::vector<double> &samples() const { return KernelMs; }
  double factor() const { return speedFactor(KernelMs); }

private:
  KernelProcess &Kernel;
  std::vector<double> KernelMs;
  int64_t LastEndNs = 0;
};

} // namespace stagebench

#endif // STAGEBENCH_HOSTSPEED_H
