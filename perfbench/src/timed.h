// The timed runs: the job paths users reach, with tracing off.
//
// Audit workloads go through CheckService::RunBatch (the service behind
// `secpol batch`), one job per call on a long-lived service, from one
// closed-loop client. serve_mix drives a live `secpol serve` daemon process
// from two closed-loop client connections.
//
// Noise rules (perfbench/README.md has the measurements behind them):
//   (a) a run makes whole passes over a fixed seeded job list, never a time
//       window; --seconds maps to a pass or request count, not a deadline;
//   (b) every pass is salted, so no job's content repeats within a run;
//   (c) an audit job's time-to-verdict and CPU time are its fastest pass, and
//       set-up time is the fastest of starts spread over the run;
//   (d) serve timings are the best of equal segments of the timed window.

#ifndef PERFBENCH_SRC_TIMED_H_
#define PERFBENCH_SRC_TIMED_H_

#include <sys/types.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/report.h"
#include "perfbench/src/workload.h"
#include "src/server/client.h"
#include "src/service/service.h"

namespace perfbench {

// --- Audit workloads ---

AuditWorkload MakeAuditWorkload(WorkloadKind kind, std::uint64_t seed);

// Passes a run of `seconds` makes: the same --seconds always means the same
// work.
int AuditPasses(const AuditWorkload& workload, int seconds);

// Starts a service and warms it on a few untimed jobs salted `salt`: the
// start's wall seconds go to *seconds, the warm-up results to *warmup.
std::unique_ptr<secpol::CheckService> StartAuditService(const AuditWorkload& workload,
                                                       const std::string& salt, double* seconds,
                                                       std::vector<secpol::JobResult>* warmup);

// Wall and CPU seconds of one job per call, in job-list order.
struct AuditPass {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<secpol::JobResult> results;
};
AuditPass RunAuditPass(secpol::CheckService& service,
                       const std::vector<secpol::CheckJobSpec>& specs);

// Each job on the reference path, program salted "r000"; run before the
// timed passes so no timed span includes it.
std::vector<secpol::JobResult> ReferenceResults(const AuditWorkload& workload);

// Checks results[j], job j of the list salted `salt`, against the reference
// path, recording failures in *out and counting each result as attempted.
void CheckAuditResults(const AuditWorkload& workload,
                       const std::vector<secpol::JobResult>& reference, const std::string& salt,
                       const std::vector<secpol::JobResult>& results, RunResult* out);

RunResult RunAuditTimed(const RunOptions& options);

// --- serve_mix ---

// A `secpol serve` child process on a unix socket. Stop() (also run by the
// destructor) sends SIGTERM, waits for the drain and reaps the process.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns the daemon at default concurrency and cache capacity and waits
  // until it listens.
  bool Start(const std::string& secpol_path, const std::string& socket_path,
             std::string* error);
  bool Stop(std::string* error);
  pid_t pid() const { return pid_; }
  const std::string& socket_path() const { return socket_path_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string socket_path_;
};

// What one closed-loop client saw.
struct ClientLog {
  std::vector<double> latency;     // seconds, submission to result frame
  std::vector<double> accepted;    // seconds, submission to accepted frame
  std::vector<int> spec_index;     // per request
  std::vector<std::size_t> digest;  // per request: deterministic fields
  std::vector<char> from_cache;    // per request: a cache hit
  std::string error;               // transport or protocol failure
};

// Encoded submit frames, indexed by spec index (empty for unused specs).
std::vector<std::string> EncodeSubmitFrames(const ServeMix& mix);

// Sends `requests` (spec indices) over `client` with at most `depth` awaiting
// their result frame: depth 1 is the closed loop the timed window uses.
void RunClient(secpol::ServeClient& client, const std::vector<std::string>& frames,
               const std::vector<int>& requests, std::size_t depth, ClientLog* log);

// Checks every logged request against the batch rendering and the reference
// path of its spec (run here, outside every timed span).
void CheckServeLogs(const ServeMix& mix, const std::vector<const ClientLog*>& logs,
                    RunResult* out);

inline constexpr std::size_t kServeWarmupRequests = 2048;

RunResult RunServeTimed(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_H_
