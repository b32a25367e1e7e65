// Clocks, process resource probes and host diagnostics.
//
// The diagnostics (core count, steal share over the run, and the speed of a
// fixed reference loop before and after it) are printed beside each run, not
// reported as metrics: they let a reader tell a slow host from a slow
// program.

#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

// Monotonic wall clock, seconds.
double WallSeconds();
// CPU time of this whole process (every thread), seconds.
double ProcessCpuSeconds();
// Peak resident set of this process, MiB.
double SelfPeakRssMb();

// CPU time (user + system, every thread) of another process, seconds, read
// from /proc/<pid>/stat; negative when unreadable.
double PidCpuSeconds(pid_t pid);
// Peak resident set (VmHWM) of another process, MiB; negative when
// unreadable.
double PidPeakRssMb(pid_t pid);

// Aggregate jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

// Millions of iterations per second of a fixed integer loop owned by the
// benchmark (best of a few short samples).
double ReferenceLoopMops();

// Samples the host at construction; Summary() samples again and renders
// "nproc=.. steal=..% refloop_mops=before->after".
class HostProbe {
 public:
  HostProbe();
  std::string Summary() const;

 private:
  CpuTimes start_;
  double loop_before_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
