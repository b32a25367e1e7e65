// perfbench: the timed runs. See perfbench/README.md.

#include <cstdio>
#include <string>

#include "perfbench/src/report.h"
#include "perfbench/src/timed.h"

int main(int argc, char** argv) {
  std::string error;
  const std::optional<perfbench::RunOptions> options =
      perfbench::ParseRunOptions(argc, argv, &error);
  if (!options.has_value()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const perfbench::RunResult result = options->workload == perfbench::WorkloadKind::kServeMix
                                          ? perfbench::RunServeTimed(*options)
                                          : perfbench::RunAuditTimed(*options);
  return perfbench::PrintResult(result);
}
