// perfbench_trace: the traced per-layer run. See perfbench/README.md.
//
// Separate from the timed runs: end-to-end metrics are always measured with
// tracing off. Every workload reports every per-layer metric; a layer that
// is not on a workload's path is timed by an off-path probe on that
// workload's own jobs (the note line "off-path:" names them).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "perfbench/src/host.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/report.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/timed.h"
#include "src/server/server.h"
#include "src/service/manifest.h"

namespace perfbench {
namespace {

using secpol::CheckJobSpec;
using secpol::JobResult;

constexpr int kProbeReps = 2;
constexpr std::size_t kProbeJobs = 32;
// Program salt of the audit jobs sent to the daemon for frame stamps.
constexpr const char* kDaemonSalt = "d000";

// Per-job layer self times of a traced replay.
struct LayerProfile {
  // Layer self seconds summed over the chosen root spans, by span name.
  std::map<std::string, double> seconds;
  // How many chosen roots contain each span name.
  std::map<std::string, double> calls;
  double roots = 0.0;       // chosen root spans
  double root_seconds = 0.0;  // their total duration
  double layer_seconds = 0.0;  // their self time outside the root itself
};

// Picks, per job, the root span with the shortest duration when `fastest`,
// else every root (of the jobs in `only`, when given); and sums the layer
// self times under them.
LayerProfile Profile(const Tracer& tracer, bool fastest, const std::set<int>* only = nullptr) {
  std::vector<int> roots;
  const std::vector<LayerTimes> layers = SelfTimeByRoot(tracer, &roots);
  std::map<int, std::size_t> chosen;  // job -> index into roots
  for (std::size_t r = 0; r < roots.size(); ++r) {
    const Span& span = tracer.spans()[static_cast<std::size_t>(roots[r])];
    if (only != nullptr && only->count(span.job) == 0) {
      continue;
    }
    const int key = fastest ? span.job : static_cast<int>(r);
    const auto it = chosen.find(key);
    if (it == chosen.end() ||
        span.seconds() <
            tracer.spans()[static_cast<std::size_t>(roots[it->second])].seconds()) {
      chosen[key] = r;
    }
  }
  LayerProfile profile;
  for (const auto& [key, r] : chosen) {
    const Span& root = tracer.spans()[static_cast<std::size_t>(roots[r])];
    profile.roots += 1.0;
    profile.root_seconds += root.seconds();
    for (const auto& [name, seconds] : layers[r]) {
      profile.seconds[name] += seconds;
      profile.calls[name] += 1.0;
      if (name != std::string(root.name)) {
        profile.layer_seconds += seconds;
      }
    }
  }
  return profile;
}

double PerCallUs(const LayerProfile& profile, const std::string& name) {
  const auto calls = profile.calls.find(name);
  return calls == profile.calls.end() ? 0.0 : profile.seconds.at(name) / calls->second * 1e6;
}

double PrepareUs(const LayerProfile& profile) {
  double total = 0.0;
  for (const char* name :
       {"job.prepare", "flowlang.parse", "flowlang.lower", "job.validate_build", "job.cache_key"}) {
    const auto it = profile.seconds.find(name);
    total += it == profile.seconds.end() ? 0.0 : it->second;
  }
  return profile.roots > 0.0 ? total / profile.roots * 1e6 : 0.0;
}

// The metrics every workload's traced run reports from its probes.
void AddProbeMetrics(const Tallies& tallies, RunResult* out) {
  const auto tally = [&tallies](const std::string& name) {
    const auto it = tallies.find(name);
    return it == tallies.end() ? Tally() : it->second;
  };
  for (const char* column : {"M", "M2", "images"}) {
    for (const char* mode : {"interpreted", "compiled"}) {
      out->Add(std::string("outcome_table.") + column + "_ns_per_point." + mode,
               tally(std::string("outcome_table.") + column + "." + mode).PerItem() * 1e9, "ns");
    }
  }
  out->Add("sweep.tabulate_speedup_2t",
           tally("sweep.tabulate.1t").seconds / tally("sweep.tabulate.2t").seconds, "x");
  out->Add("sweep.reduce_speedup_2t",
           tally("sweep.reduce.1t").seconds / tally("sweep.reduce.2t").seconds, "x");
  out->Add("compiled.compile_us", tally("compiled.compile").PerItem() * 1e6, "us");
  out->Add("classes.partition_us", tally("classes.partition").PerItem() * 1e6, "us");
  const double multi = tally("classes.multi_member").items;
  out->Add("classes.certified_share", multi > 0 ? tally("classes.certified").items / multi : 0.0,
           "ratio");
  out->Add("protocol.decode_us", tally("protocol.decode").PerItem() * 1e6, "us");
  out->Add("protocol.encode_us", tally("protocol.encode").PerItem() * 1e6, "us");
}

void AddCacheMetrics(const secpol::CacheStats& before, const secpol::CacheStats& after,
                     double jobs, RunResult* out) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups = hits + static_cast<double>(after.misses - before.misses);
  out->Add("result_cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  out->Add("result_cache.evictions_per_1k_jobs",
           static_cast<double>(after.evictions - before.evictions) * 1000.0 / jobs, "count");
}

void AddPrepareMetrics(const LayerProfile& profile, RunResult* out) {
  out->Add("flowlang.parse_us", PerCallUs(profile, "flowlang.parse"), "us");
  out->Add("flowlang.lower_us", PerCallUs(profile, "flowlang.lower"), "us");
  out->Add("job.prepare_us", PrepareUs(profile), "us");
  out->Add("job.cache_key_us", PerCallUs(profile, "job.cache_key"), "us");
  out->Add("job.validate_build_us", PerCallUs(profile, "job.validate_build"), "us");
  out->Add("result_cache.lookup_us", PerCallUs(profile, "result_cache.lookup"), "us");
  out->Add("result_cache.insert_us", PerCallUs(profile, "result_cache.insert"), "us");
}

// Submits `requests` through a fresh daemon from one client; the log holds
// send -> accepted and send -> result times per request.
bool DaemonWindow(const RunOptions& options, const std::vector<std::string>& frames,
                  const std::vector<int>& warmup, const std::vector<int>& requests,
                  ClientLog* warm_log, ClientLog* log, std::string* error) {
  Daemon daemon;
  const std::string socket = options.work_dir + "/trace-" + std::to_string(getpid()) + ".sock";
  if (!daemon.Start(options.secpol_path, socket, error)) {
    return false;
  }
  {
    secpol::Result<secpol::ServeClient> client =
        secpol::ServeClient::ConnectUnixPath(daemon.socket_path());
    if (!client.ok()) {
      *error = client.error().ToString();
      return false;
    }
    RunClient(client.value(), frames, warmup, 4, warm_log);
    RunClient(client.value(), frames, requests, 1, log);
  }
  return daemon.Stop(error) && warm_log->error.empty() && log->error.empty();
}

// Checks the daemon's answers to the audit workloads' probe frames: request
// i carries job probe_jobs[i], salted kDaemonSalt. Each must match its batch
// rendering, which must pass against the reference path.
void CheckDaemonProbes(const AuditWorkload& workload, const std::vector<JobResult>& reference,
                       const std::vector<std::size_t>& probe_jobs, const ClientLog& log,
                       RunResult* out) {
  secpol::CheckService batch_service{secpol::ServiceConfig()};
  for (std::size_t i = 0; i < log.spec_index.size(); ++i) {
    const std::size_t j = probe_jobs[static_cast<std::size_t>(log.spec_index[i])];
    const JobTemplate& job = workload.jobs[j];
    const CheckJobSpec spec = SaltedSpec(job, kDaemonSalt);
    const JobResult batch = batch_service.RunBatch({spec}).jobs[0];
    const std::string reason =
        CheckAgainstReference(spec, batch, reference[j], job.source.name + "_r000",
                              job.source.name + "_" + kDaemonSalt);
    if (!reason.empty()) {
      out->Fail(spec.id + " " + kDaemonSalt, reason);
    } else if (log.digest[i] != DeterministicDigest(secpol::JobResultToJson(batch))) {
      out->Fail(spec.id + " " + kDaemonSalt, "result frame differs from the batch rendering");
    }
  }
  out->attempted += static_cast<std::int64_t>(log.spec_index.size());
}

// Logs a replayed serve request as a client would see it, for the oracle.
void LogReplay(const JobResult& result, int spec_index, ClientLog* log) {
  log->spec_index.push_back(spec_index);
  log->digest.push_back(DeterministicDigest(secpol::JobResultToJson(result)));
}

void AddServerMetrics(const ClientLog& log, RunResult* out) {
  std::vector<double> accept_us;
  std::vector<double> result_us;
  for (std::size_t i = 0; i < log.latency.size() && i < log.accepted.size(); ++i) {
    accept_us.push_back(log.accepted[i] * 1e6);
    result_us.push_back((log.latency[i] - log.accepted[i]) * 1e6);
  }
  out->Add("server.accept_us", Mean(accept_us), "us");
  out->Add("server.result_us", Mean(result_us), "us");
}

// coverage: layer self time over the untraced time-to-verdict of the same
// jobs; overhead: the traced replay over the same path untraced.
void AddTraceMetrics(double layer_seconds, double verdict_seconds, double traced_seconds,
                     double untraced_seconds, RunResult* out) {
  out->Add("trace.coverage", layer_seconds / verdict_seconds, "ratio");
  out->Add("trace.overhead", traced_seconds / untraced_seconds, "ratio");
}

bool WriteSpans(const RunOptions& options, const Tracer& tracer, RunResult* out) {
  const std::string path = options.work_dir + "/spans-" + WorkloadName(options.workload) +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (!tracer.WriteJson(path)) {
    out->fatal = "cannot write " + path;
    return false;
  }
  out->Note("spans: " + std::to_string(tracer.spans().size()) + " written to " + path);
  return true;
}

RunResult RunAuditTraced(const RunOptions& options) {
  RunResult out;
  const AuditWorkload workload = MakeAuditWorkload(options.workload, options.seed);
  const std::size_t n = workload.jobs.size();
  // Each pass here runs the job list twice (untraced and traced), and the
  // probes cost about one more pass: a third of the timed run's passes.
  const int num_passes = std::max(2, AuditPasses(workload, options.seconds) / 3);
  const std::vector<JobResult> reference = ReferenceResults(workload);
  const HostProbe host;
  double setup_seconds = 0.0;
  std::vector<JobResult> warmup;
  const std::unique_ptr<secpol::CheckService> service =
      StartAuditService(workload, Tag("w", 0), &setup_seconds, &warmup);
  CheckAuditResults(workload, reference, Tag("w", 0), warmup, &out);

  // Untraced and traced passes alternate, so both see the same host. Every
  // replay is checked like a service result: a replay that drifts from
  // RunBatch fails the run.
  Tracer tracer;
  secpol::ResultCache cache(secpol::ServiceConfig().cache_capacity);
  std::vector<double> best_untraced(n, std::numeric_limits<double>::infinity());
  std::vector<double> evaluated;
  for (int p = 0; p < num_passes; ++p) {
    std::vector<CheckJobSpec> untraced;
    std::vector<CheckJobSpec> traced;
    for (const JobTemplate& job : workload.jobs) {
      untraced.push_back(SaltedSpec(job, Tag("u", p)));
      traced.push_back(SaltedSpec(job, Tag("t", p)));
    }
    const AuditPass pass = RunAuditPass(*service, untraced);
    for (std::size_t j = 0; j < n; ++j) {
      best_untraced[j] = std::min(best_untraced[j], pass.wall[j]);
    }
    CheckAuditResults(workload, reference, Tag("u", p), pass.results, &out);
    std::vector<JobResult> replays;
    for (std::size_t j = 0; j < n; ++j) {
      replays.push_back(ReplayBatchJob(tracer, traced[j], cache, static_cast<int>(j), p));
      evaluated.push_back(static_cast<double>(replays.back().evaluated));
    }
    CheckAuditResults(workload, reference, Tag("t", p), replays, &out);
  }

  // Off-path probes on every fourth job, then the daemon's frame stamps.
  Tallies tallies;
  for (std::size_t j = 0; j < n && j / 4 < kProbeJobs; j += 4) {
    ProbeJob(SaltedSpec(workload.jobs[j], "x000"), kProbeReps, &tallies);
  }
  std::vector<std::size_t> probe_jobs;
  std::vector<std::string> frames;
  std::vector<int> requests;
  for (std::size_t j = 0; j < n && j / 4 < kProbeJobs; j += 4) {
    secpol::Json submit = secpol::Json::MakeObject();
    submit.Set("type", secpol::Json::MakeString("submit"));
    submit.Set("job", secpol::CheckJobSpecToJson(SaltedSpec(workload.jobs[j], kDaemonSalt)));
    probe_jobs.push_back(j);
    frames.push_back(secpol::EncodeFrame(submit));
    requests.push_back(static_cast<int>(frames.size()) - 1);
  }
  ClientLog warm_log;
  ClientLog daemon_log;
  std::string error;
  if (!DaemonWindow(options, frames, {}, requests, &warm_log, &daemon_log, &error)) {
    out.fatal = "daemon probe: " + error;
    return out;
  }
  CheckDaemonProbes(workload, reference, probe_jobs, daemon_log, &out);
  out.Note("host: " + host.Summary());

  const LayerProfile profile = Profile(tracer, /*fastest=*/true);
  const double points = Mean(evaluated) * profile.roots;
  AddPrepareMetrics(profile, &out);
  AddCacheMetrics(secpol::CacheStats(), cache.Stats(), static_cast<double>(evaluated.size()),
                  &out);
  AddProbeMetrics(tallies, &out);
  out.Add("outcome_table.evals_per_job", Mean(evaluated), "count");
  for (const std::string& reducer : ReducerNames()) {
    const auto it = profile.seconds.find("reduce." + reducer);
    out.Add("reduce." + reducer + "_ns_per_point",
            it == profile.seconds.end() ? 0.0 : it->second / points * 1e9, "ns");
  }
  const auto render_json = tallies.find("job.render_json");
  out.Add("job.render_us",
          PerCallUs(profile, "job.render") +
              (render_json == tallies.end() ? 0.0 : render_json->second.PerItem() * 1e6),
          "us");
  AddServerMetrics(daemon_log, &out);
  AddTraceMetrics(profile.layer_seconds, Sum(best_untraced), profile.root_seconds,
                  Sum(best_untraced), &out);

  const auto seconds = [&tallies](const std::string& name) {
    const auto it = tallies.find(name);
    return it == tallies.end() ? 0.0 : it->second.seconds;
  };
  // A column's share of one exec mode's column time, in percent.
  const auto share = [&seconds](const std::string& column, const std::string& mode) {
    const auto of = [&](const std::string& name) {
      return seconds("outcome_table." + name + "." + mode);
    };
    return 100.0 * of(column) / (of("M") + of("M2") + of("images"));
  };
  out.Note("findings: tabulate+reduce at 2 threads takes " +
           Format("%.2f", (seconds("sweep.tabulate.2t") + seconds("sweep.reduce.2t")) /
                              (seconds("sweep.tabulate.1t") + seconds("sweep.reduce.1t"))) +
           "x the 1-thread time; compiled M is " + Format("%.0f%%", share("M", "compiled")) +
           " and uncompiled M2 " + Format("%.0f%%", share("M2", "compiled")) +
           " of a compiled job's columns (interpreted M " +
           Format("%.0f%%", share("M", "interpreted")) + ")");
  out.Note("off-path: classes.*, compiled.compile_us, outcome_table.*_ns_per_point, sweep.*, "
           "protocol.*, server.* and the JSON half of job.render_us are probes on every fourth "
           "job; the rest is the replayed RunBatch path, fastest of " +
           std::to_string(num_passes) + " traced passes per job");
  out.Note("trace: untraced fastest-pass total " + Format("%.3f s", Sum(best_untraced)) +
           ", traced " + Format("%.3f s", profile.root_seconds) + ", layer self " +
           Format("%.3f s", profile.layer_seconds));
  WriteSpans(options, tracer, &out);
  return out;
}

RunResult RunServeTraced(const RunOptions& options) {
  RunResult out;
  if (options.secpol_path.empty()) {
    out.fatal = "--secpol is required for serve_mix";
    return out;
  }
  const std::size_t warmup = kServeWarmupRequests;
  const std::size_t timed = 500 * static_cast<std::size_t>(options.seconds);
  const ServeMix mix = MakeServeMix(options.seed, warmup + timed);
  const std::vector<std::string> frames = EncodeSubmitFrames(mix);
  const std::vector<int> warm_requests(mix.stream.begin(),
                                       mix.stream.begin() + static_cast<std::ptrdiff_t>(warmup));
  const std::vector<int> window(mix.stream.begin() + static_cast<std::ptrdiff_t>(warmup),
                                mix.stream.end());
  const HostProbe host;

  // The daemon, one client, stamping the accepted and result frames.
  ClientLog warm_log;
  ClientLog log;
  std::string error;
  if (!DaemonWindow(options, frames, warm_requests, window, &warm_log, &log, &error)) {
    out.fatal = error;
    return out;
  }

  // The same requests replayed in process: untraced (a disabled tracer) and
  // traced, both for every request, each against its own cache and memo.
  // Every replay is checked like a result frame.
  const auto payload = [&frames](int index) {
    return frames[static_cast<std::size_t>(index)].substr(secpol::kFrameHeaderBytes);
  };
  const std::size_t capacity = secpol::ServerConfig().cache_capacity;
  secpol::ResultCache untraced_cache(capacity);
  secpol::ResultCache traced_cache(capacity);
  secpol::ClassMemo untraced_memo;
  secpol::ClassMemo traced_memo;
  Tracer untraced(/*enabled=*/false);
  ClientLog untraced_log;
  ClientLog traced_log;
  bool hit = false;
  for (int index : warm_requests) {
    LogReplay(ReplayServeJob(untraced, payload(index), untraced_cache, untraced_memo, -1, 0, &hit),
              index, &untraced_log);
    LogReplay(ReplayServeJob(untraced, payload(index), traced_cache, traced_memo, -1, 0, &hit),
              index, &traced_log);
  }
  const secpol::CacheStats before = traced_cache.Stats();
  Tracer tracer;
  double untraced_seconds = 0.0;
  std::vector<double> evaluated;
  std::set<int> hits;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const std::string text = payload(window[i]);
    const auto job = static_cast<int>(i);
    const auto replay_untraced = [&] {
      const double start = WallSeconds();
      const JobResult plain =
          ReplayServeJob(untraced, text, untraced_cache, untraced_memo, job, 0, &hit);
      untraced_seconds += WallSeconds() - start;
      LogReplay(plain, window[i], &untraced_log);
    };
    // The replay that runs second finds the request warm in the CPU caches,
    // so the order alternates.
    if (i % 2 == 0) {
      replay_untraced();
    }
    const JobResult result = ReplayServeJob(tracer, text, traced_cache, traced_memo, job, 0, &hit);
    LogReplay(result, window[i], &traced_log);
    const bool traced_hit = hit;
    if (i % 2 == 1) {
      replay_untraced();
    }
    if (traced_hit) {
      hits.insert(job);
    } else {
      evaluated.push_back(static_cast<double>(result.evaluated));
    }
  }
  const secpol::CacheStats after = traced_cache.Stats();

  // Probes: class overrides, compiled overrides and base jobs served in the
  // window, a few of each.
  Tallies tallies;
  std::map<int, int> probed_per_variant;
  std::set<int> probed;
  for (int index : window) {
    int& count = probed_per_variant[index % kVariants];
    if (count < static_cast<int>(kProbeJobs) / kVariants && probed.insert(index).second) {
      ++count;
      ProbeJob(ServeSpec(mix, index), kProbeReps, &tallies);
    }
  }
  out.Note("host: " + host.Summary());

  std::vector<const ClientLog*> logs = {&warm_log, &log, &untraced_log, &traced_log};
  for (const ClientLog* client : logs) {
    out.attempted += static_cast<std::int64_t>(client->spec_index.size());
  }
  CheckServeLogs(mix, logs, &out);

  const LayerProfile profile = Profile(tracer, /*fastest=*/false);
  AddPrepareMetrics(profile, &out);
  AddCacheMetrics(before, after, static_cast<double>(window.size()), &out);
  AddProbeMetrics(tallies, &out);
  out.Add("outcome_table.evals_per_job", Mean(evaluated), "count");
  for (const std::string& reducer : ReducerNames()) {
    const auto it = tallies.find("reduce." + reducer);
    out.Add("reduce." + reducer + "_ns_per_point",
            it == tallies.end() ? 0.0 : it->second.PerItem() * 1e9, "ns");
  }
  out.Add("job.render_us", PerCallUs(profile, "job.render"), "us");
  AddServerMetrics(log, &out);
  AddTraceMetrics(profile.layer_seconds, Sum(log.latency), profile.root_seconds,
                  untraced_seconds, &out);
  out.Note("trace: daemon time-to-verdict " + Format("%.3f s", Sum(log.latency)) +
           ", in-process layers " + Format("%.3f s", profile.layer_seconds) +
           "; the rest of the daemon's time is frame I/O and scheduling (server.accept_us, "
           "server.result_us); replay traced " + Format("%.3f s", profile.root_seconds) +
           " vs untraced " + Format("%.3f s", untraced_seconds));
  const LayerProfile hit_profile = Profile(tracer, /*fastest=*/false, &hits);
  std::vector<double> hit_latency_us;
  for (std::size_t i = 0; i < log.latency.size(); ++i) {
    if (log.from_cache[i] != 0) {
      hit_latency_us.push_back(log.latency[i] * 1e6);
    }
  }
  out.Note("findings: a cache hit's daemon time-to-verdict p50 is " +
           Format("%.0f us", Median(hit_latency_us)) + " over " +
           std::to_string(hit_latency_us.size()) + " hits; in process a hit costs " +
           Format("%.1f us", hit_profile.root_seconds / hit_profile.roots * 1e6) +
           ", of which PrepareJob " + Format("%.1f us", PrepareUs(hit_profile)) +
           " (ParseProgram " + Format("%.1f us", PerCallUs(hit_profile, "flowlang.parse")) +
           ") and no tabulation");
  out.Note("off-path: classes.*, compiled.compile_us, outcome_table.*_ns_per_point, sweep.*, "
           "reduce.* are probes on " +
           std::to_string(probed.size()) +
           " served jobs; the rest is the replayed daemon path over " +
           std::to_string(window.size()) + " requests");
  WriteSpans(options, tracer, &out);
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string error;
  const std::optional<perfbench::RunOptions> options =
      perfbench::ParseRunOptions(argc, argv, &error);
  if (!options.has_value()) {
    std::fprintf(stderr, "perfbench_trace: %s\n", error.c_str());
    return 2;
  }
  const perfbench::RunResult result = options->workload == perfbench::WorkloadKind::kServeMix
                                          ? perfbench::RunServeTraced(*options)
                                          : perfbench::RunAuditTraced(*options);
  return perfbench::PrintResult(result);
}
