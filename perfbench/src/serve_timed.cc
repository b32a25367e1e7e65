// Timed serve_mix: two closed-loop clients against a `secpol serve` process.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <map>
#include <thread>

#include "perfbench/src/host.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/timed.h"
#include "src/server/protocol.h"
#include "src/server/socket.h"
#include "src/service/manifest.h"

extern char** environ;

namespace perfbench {

using secpol::CheckJobSpec;
using secpol::Json;
using secpol::JobResult;
using secpol::Result;
using secpol::ServeClient;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kSegments = 10;
// Warm-up submissions in flight per client (the daemon's default quota is 8).
// Keeping the worker busy makes set-up time the daemon's work, not the
// wake-up latency of each closed-loop hand-off, which steal inflates.
constexpr std::size_t kWarmupDepth = 4;
// Timed requests per second of --seconds on the reference host.
constexpr std::size_t kNominalRequestsPerSecond = 2500;
constexpr double kDaemonStartTimeoutS = 30.0;
constexpr double kDaemonStopTimeoutS = 30.0;

// Requests [begin, end) of `stream` dealt round-robin to the clients.
std::vector<std::vector<int>> Deal(const std::vector<int>& stream, std::size_t begin,
                                   std::size_t end) {
  std::vector<std::vector<int>> dealt(kClients);
  for (std::size_t i = begin; i < end; ++i) {
    dealt[i % kClients].push_back(stream[i]);
  }
  return dealt;
}

// Runs every client's share concurrently, `depth` requests in flight per
// client; returns the window's seconds.
double RunClients(std::vector<ServeClient>& clients, const std::vector<std::string>& frames,
                  const std::vector<std::vector<int>>& shares, std::size_t depth,
                  std::vector<ClientLog>& logs) {
  const double start = WallSeconds();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(
        [&, c] { RunClient(clients[c], frames, shares[c], depth, &logs[c]); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return WallSeconds() - start;
}

bool Connect(const Daemon& daemon, std::vector<ServeClient>* clients, std::string* error) {
  clients->clear();
  for (std::size_t c = 0; c < kClients; ++c) {
    Result<ServeClient> client = ServeClient::ConnectUnixPath(daemon.socket_path());
    if (!client.ok()) {
      *error = client.error().ToString();
      return false;
    }
    clients->push_back(std::move(client).value());
  }
  return true;
}

std::int64_t CacheCounter(const Result<Json>& stats, const char* name) {
  if (!stats.ok()) {
    return 0;
  }
  const Json* server = stats.value().Find("server");
  const Json* cache = server != nullptr ? server->Find("cache") : nullptr;
  const Json* value = cache != nullptr ? cache->Find(name) : nullptr;
  return value != nullptr && value->is_int() ? value->AsInt() : 0;
}

// Set-up: spawns a daemon on `socket`, connects the clients and replays the
// warm-up prefix of the stream, pipelined, so the cache is in steady state;
// the warm-up logs are appended to *logs. Returns the seconds that took, or
// a negative value with *error set.
double StartDaemon(const RunOptions& options, const std::string& socket,
                   const std::vector<std::string>& frames,
                   const std::vector<std::vector<int>>& warm_shares, Daemon* daemon,
                   std::vector<ServeClient>* clients, std::vector<ClientLog>* logs,
                   std::string* error) {
  const double start = WallSeconds();
  if (!daemon->Start(options.secpol_path, socket, error) || !Connect(*daemon, clients, error)) {
    return -1.0;
  }
  std::vector<ClientLog> warm(kClients);
  RunClients(*clients, frames, warm_shares, kWarmupDepth, warm);
  const double seconds = WallSeconds() - start;
  std::move(warm.begin(), warm.end(), std::back_inserter(*logs));
  return seconds;
}

}  // namespace

Daemon::~Daemon() {
  std::string ignored;
  Stop(&ignored);
}

bool Daemon::Start(const std::string& secpol_path, const std::string& socket_path,
                   std::string* error) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  const std::string socket_flag = "--socket=" + socket_path;
  std::vector<char*> argv = {const_cast<char*>(secpol_path.c_str()),
                             const_cast<char*>("serve"), const_cast<char*>(socket_flag.c_str()),
                             nullptr};
  const int spawned =
      posix_spawn(&pid_, secpol_path.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (spawned != 0) {
    pid_ = -1;
    *error = "cannot spawn " + secpol_path;
    return false;
  }
  socket_path_ = socket_path;

  // Ready once the daemon prints its listening line.
  std::string output;
  const double deadline = WallSeconds() + kDaemonStartTimeoutS;
  while (output.find("listening on") == std::string::npos) {
    if (WallSeconds() > deadline) {
      *error = "daemon did not start listening";
      return false;
    }
    pollfd fd{stdout_fd_, POLLIN, 0};
    if (poll(&fd, 1, 100) > 0) {
      char buffer[256];
      const ssize_t got = read(stdout_fd_, buffer, sizeof(buffer));
      if (got <= 0) {
        *error = "daemon exited before listening";
        return false;
      }
      output.append(buffer, static_cast<std::size_t>(got));
    }
  }
  return true;
}

bool Daemon::Stop(std::string* error) {
  bool ok = true;
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    const double deadline = WallSeconds() + kDaemonStopTimeoutS;
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = waitpid(pid_, &status, WNOHANG)) == 0 && WallSeconds() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (reaped == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      *error = "daemon did not drain; killed";
      ok = false;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      *error = "daemon exited abnormally";
      ok = false;
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return ok;
}

std::vector<std::string> EncodeSubmitFrames(const ServeMix& mix) {
  std::vector<std::string> frames(mix.keys.size() * kVariants);
  for (int index : mix.stream) {
    std::string& frame = frames[static_cast<std::size_t>(index)];
    if (frame.empty()) {
      Json submit = Json::MakeObject();
      submit.Set("type", Json::MakeString("submit"));
      submit.Set("job", secpol::CheckJobSpecToJson(ServeSpec(mix, index)));
      frame = secpol::EncodeFrame(submit);
    }
  }
  return frames;
}

void RunClient(ServeClient& client, const std::vector<std::string>& frames,
               const std::vector<int>& requests, std::size_t depth, ClientLog* log) {
  // The daemon answers one connection's submissions in order, accepted and
  // result frames alike, so the k-th of each belongs to the k-th request. A
  // result paired with the wrong request fails the oracle (its id differs).
  std::vector<double> sent_at(requests.size());
  std::size_t sent = 0;
  std::size_t accepted = 0;
  std::size_t done = 0;
  while (done < requests.size()) {
    for (; sent < requests.size() && sent - done < depth; ++sent) {
      const std::string& frame = frames[static_cast<std::size_t>(requests[sent])];
      std::string error;
      sent_at[sent] = WallSeconds();
      if (!secpol::SendAll(client.fd().get(), frame.data(), frame.size(), &error)) {
        log->error = "send: " + error;
        return;
      }
    }
    Result<Json> reply = client.Read();
    const double now = WallSeconds();
    if (!reply.ok()) {
      log->error = "read: " + reply.error().ToString();
      return;
    }
    const Json* type = reply.value().Find("type");
    const bool is_result = type != nullptr && type->is_string() && type->AsString() == "result";
    const bool is_accepted =
        type != nullptr && type->is_string() && type->AsString() == "accepted" && accepted < sent;
    if (!is_result && !is_accepted) {
      log->error = "unexpected frame: " + reply.value().Serialize();
      return;
    }
    if (is_accepted) {
      log->accepted.push_back(now - sent_at[accepted++]);
      continue;
    }
    log->latency.push_back(now - sent_at[done]);
    const Json* job = reply.value().Find("job");
    const Json* from_cache = job != nullptr ? job->Find("from_cache") : nullptr;
    log->from_cache.push_back(from_cache != nullptr && from_cache->is_bool() &&
                              from_cache->AsBool());
    log->spec_index.push_back(requests[done++]);
    log->digest.push_back(job != nullptr ? DeterministicDigest(*job) : 0);
  }
}

void CheckServeLogs(const ServeMix& mix, const std::vector<const ClientLog*>& logs,
                    RunResult* out) {
  // The batch rendering of every distinct spec served, from a service of
  // its own; then the reference path for specs that are not already on it.
  std::map<int, std::size_t> expected;
  std::map<int, std::string> failure;
  std::map<int, JobResult> reference;
  secpol::CheckService batch_service{secpol::ServiceConfig()};
  for (const ClientLog* log : logs) {
    for (int index : log->spec_index) {
      if (expected.count(index) != 0) {
        continue;
      }
      const CheckJobSpec spec = ServeSpec(mix, index);
      const JobResult batch = batch_service.RunBatch({spec}).jobs[0];
      expected[index] = DeterministicDigest(secpol::JobResultToJson(batch));
      const int key = index / kVariants;
      if (reference.count(key) == 0) {
        reference[key] = secpol::ExecuteJob(ReferenceSpec(spec));
      }
      const std::string name = mix.keys[static_cast<std::size_t>(key)].source.name;
      failure[index] = CheckAgainstReference(spec, batch, reference[key], name, name);
    }
  }
  for (const ClientLog* log : logs) {
    for (std::size_t i = 0; i < log->spec_index.size(); ++i) {
      const int index = log->spec_index[i];
      const std::string id = ServeSpec(mix, index).id;
      if (!failure[index].empty()) {
        out->Fail(id, failure[index]);
      } else if (log->digest[i] != expected[index]) {
        out->Fail(id, "result frame differs from the batch rendering");
      }
    }
    if (!log->error.empty()) {
      out->Fail("client", log->error);
    }
  }
}

RunResult RunServeTimed(const RunOptions& options) {
  RunResult out;
  if (options.secpol_path.empty()) {
    out.fatal = "--secpol is required for serve_mix";
    return out;
  }
  const std::size_t warmup = kServeWarmupRequests;
  const std::size_t timed = kNominalRequestsPerSecond * static_cast<std::size_t>(options.seconds);
  const ServeMix mix = MakeServeMix(options.seed, warmup + timed);
  const std::vector<std::string> frames = EncodeSubmitFrames(mix);
  const std::vector<std::vector<int>> warm_shares = Deal(mix.stream, 0, warmup);

  const HostProbe host;
  // Rule (d): the timed stream runs as kSegments equal segments back to
  // back, and each serve timing is its best segment's, so steal that covers
  // most of the window does not decide the run.
  std::vector<std::vector<std::vector<int>>> segment_shares;
  for (std::size_t s = 0; s < kSegments; ++s) {
    segment_shares.push_back(Deal(mix.stream, warmup + timed * s / kSegments,
                                  warmup + timed * (s + 1) / kSegments));
  }
  // Set-up time follows rule (c): the kept daemon's start, then a throwaway
  // daemon started, warmed and stopped after every segment, so the starts
  // are spread over the run; the fastest is reported.
  const auto socket = [&options](std::size_t start) {
    return options.work_dir + "/serve-" + std::to_string(getpid()) + "-" +
           std::to_string(start) + ".sock";
  };
  std::vector<double> setup_seconds;
  std::vector<ClientLog> warm_logs;
  Daemon daemon;
  std::vector<ServeClient> clients;
  std::string error;
  setup_seconds.push_back(
      StartDaemon(options, socket(0), frames, warm_shares, &daemon, &clients, &warm_logs, &error));
  if (setup_seconds.back() < 0.0) {
    out.fatal = error;
    return out;
  }

  const Result<Json> stats_before = clients[0].Stats();
  std::vector<ClientLog> logs(kSegments * kClients);
  std::vector<double> segment_seconds;
  std::vector<double> segment_cpu;
  for (std::size_t s = 0; s < kSegments; ++s) {
    const double cpu_start = PidCpuSeconds(daemon.pid());
    std::vector<ClientLog> segment_logs(kClients);
    segment_seconds.push_back(RunClients(clients, frames, segment_shares[s], 1, segment_logs));
    segment_cpu.push_back(PidCpuSeconds(daemon.pid()) - cpu_start);
    std::move(segment_logs.begin(), segment_logs.end(), logs.begin() + s * kClients);

    Daemon throwaway;
    std::vector<ServeClient> throwaway_clients;
    setup_seconds.push_back(StartDaemon(options, socket(s + 1), frames, warm_shares, &throwaway,
                                        &throwaway_clients, &warm_logs, &error));
    throwaway_clients.clear();
    if (setup_seconds.back() < 0.0 || !throwaway.Stop(&error)) {
      out.fatal = error;
      return out;
    }
  }
  const double peak_rss_mb = PidPeakRssMb(daemon.pid());
  const Result<Json> stats_after = clients[0].Stats();
  clients.clear();
  if (!daemon.Stop(&error)) {
    out.fatal = error;
    return out;
  }
  out.Note("host: " + host.Summary());

  std::vector<const ClientLog*> all;
  std::int64_t completed = 0;
  for (const ClientLog& log : warm_logs) {
    all.push_back(&log);
    out.attempted += static_cast<std::int64_t>(log.spec_index.size());
  }
  for (const ClientLog& log : logs) {
    all.push_back(&log);
    out.attempted += static_cast<std::int64_t>(log.spec_index.size());
    completed += static_cast<std::int64_t>(log.latency.size());
  }
  CheckServeLogs(mix, all, &out);
  if (completed != static_cast<std::int64_t>(timed)) {
    out.Fail("serve_mix", "only " + std::to_string(completed) + " of " + std::to_string(timed) +
                              " timed requests completed");
  }
  // Per segment: throughput, the two reported percentiles, the p99 note and
  // daemon CPU per job.
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  std::vector<double> cpu_ms;
  std::size_t segment_requests = 0;
  for (std::size_t s = 0; s < kSegments; ++s) {
    std::vector<double> latency_us;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (double seconds : logs[s * kClients + c].latency) {
        latency_us.push_back(seconds * 1e6);
      }
    }
    const auto n = static_cast<double>(latency_us.size());
    segment_requests = latency_us.size();
    rate.push_back(n / segment_seconds[s]);
    cpu_ms.push_back(segment_cpu[s] * 1e3 / n);
    p50.push_back(TailPercentile(latency_us, 0.5).value_or(-1.0));
    p90.push_back(TailPercentile(latency_us, 0.9).value_or(-1.0));
    p99.push_back(TailPercentile(latency_us, 0.99).value_or(-1.0));
  }
  out.Note("segments_jobs_per_s: " + FormatList("%.0f", rate));
  out.Note("setup_s: " + FormatList("%.3f", setup_seconds));

  std::int64_t overrides = 0;
  std::int64_t compiled = 0;
  for (std::size_t i = warmup; i < warmup + timed; ++i) {
    const auto variant = static_cast<Variant>(mix.stream[i] % kVariants);
    overrides += variant != Variant::kBase;
    compiled += variant == Variant::kCompiled;
  }
  const double lookups = static_cast<double>(CacheCounter(stats_after, "hits") -
                                             CacheCounter(stats_before, "hits") +
                                             CacheCounter(stats_after, "misses") -
                                             CacheCounter(stats_before, "misses"));
  const double hit_share =
      lookups > 0 ? (CacheCounter(stats_after, "hits") - CacheCounter(stats_before, "hits")) /
                        lookups
                  : 0.0;
  const double n = static_cast<double>(timed);
  out.Note("mix: requests=" + std::to_string(timed) + " warmup=" + std::to_string(warmup) +
           " clients=" + std::to_string(kClients) + " threads_per_job=1" +
           Format(" hit_share=%.3f", hit_share) + Format(" override_share=%.3f", overrides / n) +
           Format(" compiled_share=%.3f", compiled / n) +
           " evictions=" +
           std::to_string(CacheCounter(stats_after, "evictions") -
                          CacheCounter(stats_before, "evictions")));
  if (Min(p90) < 0.0 || Min(segment_cpu) <= 0.0 || peak_rss_mb < 0.0) {
    out.fatal = "serve_mix: too few samples or unreadable daemon statistics";
    return out;
  }
  out.Note("samples: " + std::to_string(timed) + " timed requests in " +
           std::to_string(kSegments) + " segments of " + std::to_string(segment_requests) +
           "; jobs_per_s, verdict percentiles and cpu_ms_per_job are each the best "
           "segment's; setup_s: fastest of " + std::to_string(setup_seconds.size()) +
           " daemon starts (one before the segments, one after each)");
  if (Min(p99) >= 0.0) {
    out.Note("tail: verdict_p99_us=" + Format("%.1f", Min(p99)) + " (best segment, " +
             std::to_string(SamplesBeyond(segment_requests, 0.99)) + " beyond p99 in each)");
  }
  out.Add("jobs_per_s", *std::max_element(rate.begin(), rate.end()), "1/s");
  out.Add("verdict_p50_us", Min(p50), "us");
  out.Add("verdict_p90_us", Min(p90), "us");
  out.Add("cpu_ms_per_job", Min(cpu_ms), "ms");
  out.Add("peak_rss_mb", peak_rss_mb, "MiB");
  out.Add("setup_s", Min(setup_seconds), "s");
  return out;
}

}  // namespace perfbench
