// Command line and result line shared by the timed and traced binaries.
//
//   <binary> --workload <name> --seed <n> --seconds <s>
//            --secpol <path to the secpol CLI> --work-dir <dir>
//
// The binary decides what is measured: `perfbench` runs the timed end-to-end
// run, `perfbench_trace` the traced per-layer run.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Lines before it are notes for a human reader: host diagnostics, the
// workload's composition and each metric's sample count.

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/workload.h"

namespace perfbench {

struct RunOptions {
  WorkloadKind workload = WorkloadKind::kAuditLoop;
  std::uint64_t seed = 0;
  int seconds = 0;  // required; sets the run's work, not a deadline
  std::string secpol_path;  // the `secpol` CLI, for the serve daemon
  std::string work_dir = ".";  // sockets and span files go here
};

// Parses argv; on failure returns nullopt and fills *error.
std::optional<RunOptions> ParseRunOptions(int argc, char** argv, std::string* error);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Cache hits among the attempted jobs (the workload's composition).
  std::int64_t hits = 0;
  std::vector<Metric> metrics;
  // Printed before the result line.
  std::vector<std::string> notes;
  // Set when the run could not be carried out at all; no result is printed.
  std::string fatal;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  // Records one failed job; the first few reasons become notes.
  void Fail(const std::string& id, const std::string& reason);
};

// printf-style formatting of one number, for notes.
std::string Format(const char* format, double value);
// Each value formatted, separated by single spaces.
std::string FormatList(const char* format, const std::vector<double>& values);

// Prints the notes and the result line; returns the process exit code
// (0 when a result was printed, 1 when the run was fatal).
int PrintResult(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
