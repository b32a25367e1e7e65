// Timed audit workloads (audit_loop, audit_wide) through CheckService.

#include <algorithm>
#include <cmath>
#include <limits>

#include "perfbench/src/host.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/timed.h"

namespace perfbench {

using secpol::CheckJobSpec;
using secpol::CheckService;
using secpol::JobResult;

namespace {

constexpr int kWarmupJobs = 8;

}  // namespace

AuditWorkload MakeAuditWorkload(WorkloadKind kind, std::uint64_t seed) {
  return kind == WorkloadKind::kAuditWide ? MakeAuditWide(seed) : MakeAuditLoop(seed);
}

int AuditPasses(const AuditWorkload& workload, int seconds) {
  const auto passes = std::lround(seconds / workload.nominal_pass_seconds);
  return static_cast<int>(std::clamp<long>(passes, 2, 600));
}

std::unique_ptr<CheckService> StartAuditService(const AuditWorkload& workload,
                                                const std::string& salt, double* seconds,
                                                std::vector<JobResult>* warmup) {
  std::vector<std::vector<CheckJobSpec>> batches;
  for (int j = 0; j < kWarmupJobs; ++j) {
    batches.push_back({SaltedSpec(workload.jobs[static_cast<std::size_t>(j)], salt)});
  }
  warmup->clear();
  const double start = WallSeconds();
  auto service = std::make_unique<CheckService>(secpol::ServiceConfig());
  for (const std::vector<CheckJobSpec>& batch : batches) {
    warmup->push_back(std::move(service->RunBatch(batch).jobs[0]));
  }
  *seconds = WallSeconds() - start;
  return service;
}

AuditPass RunAuditPass(CheckService& service, const std::vector<CheckJobSpec>& specs) {
  AuditPass pass;
  pass.wall.reserve(specs.size());
  pass.cpu.reserve(specs.size());
  pass.results.reserve(specs.size());
  std::vector<CheckJobSpec> batch(1);
  for (const CheckJobSpec& spec : specs) {
    batch[0] = spec;
    const double cpu_start = ProcessCpuSeconds();
    const double wall_start = WallSeconds();
    secpol::BatchReport report = service.RunBatch(batch);
    const double wall_end = WallSeconds();
    const double cpu_end = ProcessCpuSeconds();
    pass.wall.push_back(wall_end - wall_start);
    pass.cpu.push_back(cpu_end - cpu_start);
    pass.results.push_back(std::move(report.jobs[0]));
  }
  return pass;
}

std::vector<JobResult> ReferenceResults(const AuditWorkload& workload) {
  std::vector<JobResult> reference;
  for (const JobTemplate& job : workload.jobs) {
    reference.push_back(secpol::ExecuteJob(ReferenceSpec(SaltedSpec(job, "r000"))));
  }
  return reference;
}

void CheckAuditResults(const AuditWorkload& workload, const std::vector<JobResult>& reference,
                       const std::string& salt, const std::vector<JobResult>& results,
                       RunResult* out) {
  for (std::size_t j = 0; j < results.size(); ++j) {
    const JobTemplate& job = workload.jobs[j];
    const std::string reason =
        CheckAgainstReference(job.spec, results[j], reference[j], job.source.name + "_r000",
                              job.source.name + "_" + salt);
    if (!reason.empty()) {
      out->Fail(job.spec.id + " " + salt, reason);
    }
    out->hits += results[j].from_cache ? 1 : 0;
  }
  out->attempted += static_cast<std::int64_t>(results.size());
}

RunResult RunAuditTimed(const RunOptions& options) {
  RunResult out;
  const AuditWorkload workload = MakeAuditWorkload(options.workload, options.seed);
  const int num_passes = AuditPasses(workload, options.seconds);
  const std::size_t n = workload.jobs.size();

  const std::vector<JobResult> reference = ReferenceResults(workload);
  const HostProbe host;
  // Set-up time follows rule (c) too: the kept service's start and a
  // throwaway start after every pass, each warmed on its own salt, so the
  // starts are spread over the run; the fastest is reported.
  std::vector<double> setup_seconds(1);
  std::vector<JobResult> warmup;
  const std::unique_ptr<CheckService> service =
      StartAuditService(workload, Tag("w", 0), &setup_seconds[0], &warmup);
  CheckAuditResults(workload, reference, Tag("w", 0), warmup, &out);
  // Rule (c): each job's cost is its fastest pass.
  std::vector<double> best_wall(n, std::numeric_limits<double>::infinity());
  std::vector<double> best_cpu(n, std::numeric_limits<double>::infinity());
  std::string pass_seconds;
  for (int p = 0; p < num_passes; ++p) {
    {
      // Rendered per pass, outside the timed calls, so the benchmark's own
      // memory stays one pass deep.
      std::vector<CheckJobSpec> specs;
      for (const JobTemplate& job : workload.jobs) {
        specs.push_back(SaltedSpec(job, Tag("p", p)));
      }
      const AuditPass pass = RunAuditPass(*service, specs);
      for (std::size_t j = 0; j < n; ++j) {
        best_wall[j] = std::min(best_wall[j], pass.wall[j]);
        best_cpu[j] = std::min(best_cpu[j], pass.cpu[j]);
      }
      pass_seconds += Format(p == 0 ? "%.3f" : " %.3f", Sum(pass.wall));
      CheckAuditResults(workload, reference, Tag("p", p), pass.results, &out);
    }
    double seconds = 0.0;
    StartAuditService(workload, Tag("w", p + 1), &seconds, &warmup);
    setup_seconds.push_back(seconds);
    CheckAuditResults(workload, reference, Tag("w", p + 1), warmup, &out);
  }
  const double peak_rss_mb = SelfPeakRssMb();
  out.Note("host: " + host.Summary());
  out.Note("pass_s: " + pass_seconds);
  out.Note("setup_s: " + FormatList("%.3f", setup_seconds));
  std::int64_t compiled = 0;
  for (const JobTemplate& job : workload.jobs) {
    compiled += job.spec.exec_mode == "compiled" ? 1 : 0;
  }
  std::vector<double> best_us;
  for (double seconds : best_wall) {
    best_us.push_back(seconds * 1e6);
  }

  const double total = static_cast<double>(out.attempted);
  out.Note("mix: jobs=" + std::to_string(n) + " passes=" + std::to_string(num_passes) +
           " threads_per_job=" + std::to_string(workload.threads_per_job) +
           Format(" compiled_share=%.3f", static_cast<double>(compiled) / n) +
           Format(" hit_share=%.3f", out.hits / total) + " override_share=0.000");
  out.Note("samples: jobs_per_s, verdict_p50_us, verdict_p90_us, cpu_ms_per_job: " +
           std::to_string(n) + " jobs, fastest of " + std::to_string(num_passes) +
           " passes; p90 has " + std::to_string(SamplesBeyond(n, 0.9)) +
           " beyond it; setup_s: fastest of " + std::to_string(setup_seconds.size()) +
           " starts (one before the passes, one after each)");

  const std::optional<double> p50 = TailPercentile(best_us, 0.5);
  const std::optional<double> p90 = TailPercentile(best_us, 0.9);
  if (!p50.has_value() || !p90.has_value()) {
    out.fatal = "too few jobs for p90";
    return out;
  }
  out.Add("jobs_per_s", static_cast<double>(n) / Sum(best_wall), "1/s");
  out.Add("verdict_p50_us", *p50, "us");
  out.Add("verdict_p90_us", *p90, "us");
  out.Add("cpu_ms_per_job", Mean(best_cpu) * 1e3, "ms");
  out.Add("peak_rss_mb", peak_rss_mb, "MiB");
  out.Add("setup_s", Min(setup_seconds), "s");
  return out;
}

}  // namespace perfbench
