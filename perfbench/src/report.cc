#include "perfbench/src/report.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

constexpr int kFailureNotes = 5;

}  // namespace

std::optional<RunOptions> ParseRunOptions(int argc, char** argv, std::string* error) {
  RunOptions options;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const std::optional<WorkloadKind> kind = ParseWorkload(value);
      if (!kind.has_value()) {
        *error = "unknown workload '" + value + "'";
        return std::nullopt;
      }
      options.workload = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == nullptr || *end != '\0' || options.seconds < 1) {
        *error = "--seconds must be a positive integer";
        return std::nullopt;
      }
      have_seconds = true;
    } else if (flag == "--secpol") {
      options.secpol_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    *error = "--workload, a numeric --seed and --seconds are required";
    return std::nullopt;
  }
  return options;
}

std::string Format(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

std::string FormatList(const char* format, const std::vector<double>& values) {
  std::string out;
  for (double value : values) {
    if (!out.empty()) {
      out += ' ';
    }
    out += Format(format, value);
  }
  return out;
}

void RunResult::Fail(const std::string& id, const std::string& reason) {
  if (failed < kFailureNotes) {
    Note("FAILED " + id + ": " + reason);
  }
  ++failed;
}

int PrintResult(const RunResult& result) {
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (!result.fatal.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", result.fatal.c_str());
    return 1;
  }
  std::string line = "{\"correct\": ";
  line += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::snprintf(number, sizeof(number), "%.17g", metric.value);
    line += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
