#include "perfbench/src/host.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double PidCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) {
    return -1.0;
  }
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return -1.0;
  }
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) {
      utime = std::stoull(field);
    } else if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PidPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return -1.0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes times;
  if (!(in >> label) || label != "cpu") {
    return times;
  }
  // user nice system idle iowait irq softirq steal (guest fields are
  // already included in user/nice).
  for (int i = 0; i < 8; ++i) {
    std::uint64_t value = 0;
    if (!(in >> value)) {
      break;
    }
    times.total += value;
    if (i == 7) {
      times.steal = value;
    }
  }
  return times;
}

double ReferenceLoopMops() {
  constexpr std::uint64_t kIterations = 4'000'000;
  double best = 0.0;
  for (int sample = 0; sample < 5; ++sample) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(sample);
    const double start = WallSeconds();
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Keeps every iteration: the compiler may not fold the loop away.
      asm volatile("" : "+r"(x));
    }
    const double elapsed = WallSeconds() - start;
    best = std::max(best, static_cast<double>(kIterations) / elapsed / 1e6);
  }
  return best;
}

HostProbe::HostProbe() : start_(ReadCpuTimes()), loop_before_(ReferenceLoopMops()) {}

std::string HostProbe::Summary() const {
  const double loop_after = ReferenceLoopMops();
  const CpuTimes end = ReadCpuTimes();
  const std::uint64_t total = end.total - start_.total;
  const double steal =
      total == 0 ? 0.0 : 100.0 * static_cast<double>(end.steal - start_.steal) / total;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(std::thread::hardware_concurrency());
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "nproc=%d steal=%.2f%% refloop_mops=%.0f->%.0f", nproc,
                steal, loop_before_, loop_after);
  return buffer;
}

}  // namespace perfbench
