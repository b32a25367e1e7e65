// Tests for the serve daemon: byte parity with the batch path (cold and
// warm, across connections and transports), typed protocol errors and their
// close-vs-continue semantics, per-client admission quotas with sibling
// isolation, priority-fair dispatch, policy hot-reload with epoch pinning of
// in-flight jobs, and graceful drain.

#include "src/server/server.h"

#include <arpa/inet.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/socket.h"
#include "src/service/manifest.h"
#include "src/service/service.h"
#include "src/util/json.h"
#include "tests/testlib.h"

namespace secpol {
namespace {

constexpr char kLeakyProgram[] =
    "program leaky(pub, sec) { if (sec > 0) { y = pub + 1; } else { y = pub; } }";
constexpr char kCleanProgram[] = "program clean(pub, sec) { y = pub * pub; }";

CheckJobSpec BaseSpec(const std::string& id, const std::string& program) {
  CheckJobSpec spec;
  spec.id = id;
  spec.program_text = program;
  spec.checker = CheckerKind::kSoundness;
  spec.allow = VarSet{0};
  spec.grid_lo = -1;
  spec.grid_hi = 1;
  return spec;
}

// A spec whose sweep takes a macroscopic wall time (every grid point sleeps),
// used to hold the single worker busy while admission behaviour is probed.
CheckJobSpec SlowSpec(const std::string& id) {
  CheckJobSpec spec = BaseSpec(id, kLeakyProgram);
  spec.fault_spec = "slow~1/1u20000";  // 9 grid points x 20ms
  return spec;
}

std::unique_ptr<CheckServer> StartServer(ServerConfig config) {
  if (config.unix_path.empty() && config.tcp_port < 0) {
    config.unix_path = testlib::TempSocketPath("server_test");
  }
  auto server = std::make_unique<CheckServer>(std::move(config));
  const Result<bool> started = server->Start();
  EXPECT_TRUE(started.ok()) << (started.ok() ? "" : started.error().message);
  return server;
}

ServeClient MustConnect(const CheckServer& server) {
  Result<ServeClient> client = ServeClient::ConnectUnixPath(server.unix_path());
  EXPECT_TRUE(client.ok()) << (client.ok() ? "" : client.error().message);
  return client.ok() ? std::move(client.value()) : ServeClient();
}

std::string TypeOf(const Json& frame) {
  const Json* type = frame.Find("type");
  return type != nullptr && type->is_string() ? type->AsString() : "";
}

std::string ErrorCodeOf(const Json& frame) {
  const Json* code = frame.Find("code");
  return code != nullptr && code->is_string() ? code->AsString() : "";
}

std::int64_t IntField(const Json& object, const std::string& key) {
  const Json* value = object.Find(key);
  return value != nullptr && value->is_int() ? value->AsInt() : -1;
}

std::string StringField(const Json& object, const std::string& key) {
  const Json* value = object.Find(key);
  return value != nullptr && value->is_string() ? value->AsString() : "";
}

// The deterministic slice of a result-frame job object (everything except
// wall_ms and from_cache), re-serialized in fixed order so the serve path
// and the batch path compare as bytes. Mirrors the scenario runner's oracle.
std::string DeterministicJobFields(const Json& job) {
  static constexpr const char* kFields[] = {"id",        "status", "exit_code", "cache_key",
                                            "evaluated", "total",  "error",     "report"};
  Json out = Json::MakeObject();
  for (const char* field : kFields) {
    const Json* value = job.Find(field);
    if (value != nullptr) {
      out.Set(field, *value);
    }
  }
  return out.Serialize();
}

// The batch-path rendering of one spec, run on a fresh single-thread service.
std::string BatchRendering(const CheckJobSpec& spec) {
  ServiceConfig config;
  config.concurrency = 1;
  CheckService service(config);
  const BatchReport report = service.RunBatch({spec});
  EXPECT_EQ(report.jobs.size(), 1u);
  return report.jobs.empty() ? ""
                             : DeterministicJobFields(JobResultToJson(report.jobs[0]));
}

// Reads frames in arrival order, letting a test wait for one frame type
// while result frames from still-running jobs interleave arbitrarily.
class FrameReader {
 public:
  explicit FrameReader(ServeClient* client) : client_(client) {}

  Json Next() {
    if (!pending_.empty()) {
      Json frame = std::move(pending_.front());
      pending_.erase(pending_.begin());
      return frame;
    }
    Result<Json> frame = client_->Read();
    EXPECT_TRUE(frame.ok()) << (frame.ok() ? "" : frame.error().message);
    return frame.ok() ? std::move(frame.value()) : Json();
  }

  // Next frame of the given type; earlier frames of other types are queued
  // for later Next() calls in their original order.
  Json NextOfType(const std::string& type) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (TypeOf(pending_[i]) == type) {
        Json frame = std::move(pending_[i]);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return frame;
      }
    }
    for (int attempts = 0; attempts < 64; ++attempts) {
      Result<Json> frame = client_->Read();
      EXPECT_TRUE(frame.ok()) << (frame.ok() ? "" : frame.error().message);
      if (!frame.ok()) {
        return Json();
      }
      if (TypeOf(frame.value()) == type) {
        return std::move(frame.value());
      }
      pending_.push_back(std::move(frame.value()));
    }
    ADD_FAILURE() << "no frame of type " << type << " within 64 frames";
    return Json();
  }

 private:
  ServeClient* client_;
  std::vector<Json> pending_;
};

// ---------------------------------------------------------------------------
// Byte parity with the batch path.

TEST(ServerTest, ResultFrameMatchesBatchBytesColdAndWarmAcrossConnections) {
  const CheckJobSpec spec = BaseSpec("parity", kLeakyProgram);
  const std::string expected = BatchRendering(spec);

  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  {
    ServeClient first = MustConnect(*server);
    const Result<Json> terminal = first.SubmitJob(CheckJobSpecToJson(spec));
    ASSERT_TRUE(terminal.ok()) << terminal.error().message;
    ASSERT_EQ(TypeOf(terminal.value()), "result");
    const Json* job = terminal.value().Find("job");
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(DeterministicJobFields(*job), expected);
    const Json* from_cache = job->Find("from_cache");
    ASSERT_NE(from_cache, nullptr);
    EXPECT_FALSE(from_cache->AsBool()) << "first submission must be a cold run";
  }  // connection closes; the cache must stay hot

  ServeClient second = MustConnect(*server);
  const Result<Json> replay = second.SubmitJob(CheckJobSpecToJson(spec));
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  ASSERT_EQ(TypeOf(replay.value()), "result");
  const Json* job = replay.value().Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(DeterministicJobFields(*job), expected);
  const Json* from_cache = job->Find("from_cache");
  ASSERT_NE(from_cache, nullptr);
  EXPECT_TRUE(from_cache->AsBool()) << "second connection must hit the warm cache";
}

TEST(ServerTest, TcpTransportCarriesTheSameBytes) {
  const CheckJobSpec spec = BaseSpec("tcp-parity", kCleanProgram);
  const std::string expected = BatchRendering(spec);

  ServerConfig config;
  config.tcp_port = 0;  // ephemeral
  std::unique_ptr<CheckServer> server = StartServer(std::move(config));
  ASSERT_GT(server->tcp_port(), 0);

  Result<ServeClient> client = ServeClient::ConnectTcpPort(server->tcp_port());
  ASSERT_TRUE(client.ok()) << client.error().message;

  const Result<Json> pong = client.value().Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(TypeOf(pong.value()), "pong");

  const Result<Json> terminal = client.value().SubmitJob(CheckJobSpecToJson(spec));
  ASSERT_TRUE(terminal.ok()) << terminal.error().message;
  ASSERT_EQ(TypeOf(terminal.value()), "result");
  const Json* job = terminal.value().Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(DeterministicJobFields(*job), expected);
}

TEST(ServerTest, InvalidJobKeepsBatchShape) {
  // A program that fails to prepare flows through the same invalid-result
  // path as `secpol batch`: accepted frame, then a kInvalid result frame —
  // not a protocol error, and the connection stays open.
  CheckJobSpec bad = BaseSpec("unparsable", "progrm oops");
  const std::string expected = BatchRendering(bad);

  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);
  const Result<Json> terminal = client.SubmitJob(CheckJobSpecToJson(bad));
  ASSERT_TRUE(terminal.ok()) << terminal.error().message;
  ASSERT_EQ(TypeOf(terminal.value()), "result");
  const Json* job = terminal.value().Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(StringField(*job, "status"), "invalid");
  EXPECT_EQ(IntField(*job, "exit_code"), 1);
  EXPECT_EQ(DeterministicJobFields(*job), expected);

  const Result<Json> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(TypeOf(pong.value()), "pong");
}

TEST(ServerTest, UnknownJobFieldIsInvalidNotProtocolError) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  Json job = CheckJobSpecToJson(BaseSpec("strict", kCleanProgram));
  job.Set("flarp", Json::MakeInt(1));
  const Result<Json> terminal = client.SubmitJob(job);
  ASSERT_TRUE(terminal.ok()) << terminal.error().message;
  ASSERT_EQ(TypeOf(terminal.value()), "result");
  const Json* result_job = terminal.value().Find("job");
  ASSERT_NE(result_job, nullptr);
  EXPECT_EQ(StringField(*result_job, "status"), "invalid");
  EXPECT_EQ(IntField(*result_job, "exit_code"), 1);
  EXPECT_NE(StringField(*result_job, "error").find("flarp"), std::string::npos);
}

TEST(ServerTest, OutOfRangeJobFieldIsInvalidNamingTheField) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  // -1 means "no retry wrapper"; -7 means nothing and must not run like -1.
  Json job = CheckJobSpecToJson(BaseSpec("negative-retries", kCleanProgram));
  job.Set("retries", Json::MakeInt(-7));
  const Result<Json> terminal = client.SubmitJob(job);
  ASSERT_TRUE(terminal.ok()) << terminal.error().message;
  ASSERT_EQ(TypeOf(terminal.value()), "result");
  const Json* result_job = terminal.value().Find("job");
  ASSERT_NE(result_job, nullptr);
  EXPECT_EQ(StringField(*result_job, "status"), "invalid");
  EXPECT_EQ(IntField(*result_job, "exit_code"), 1);
  EXPECT_NE(StringField(*result_job, "error").find("submit.job.retries"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Typed protocol errors.

TEST(ServerTest, MalformedFrameGetsTypedErrorAndCloses) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  const std::uint32_t zero = 0;  // a zero-length frame is framing nonsense
  std::string error;
  ASSERT_TRUE(SendAll(client.fd().get(), &zero, sizeof(zero), &error)) << error;

  Result<Json> frame = client.Read();
  ASSERT_TRUE(frame.ok()) << frame.error().message;
  EXPECT_EQ(TypeOf(frame.value()), "error");
  EXPECT_EQ(ErrorCodeOf(frame.value()), "malformed-frame");
  EXPECT_TRUE(ServeErrorClosesConnection(ServeErrorCode::kMalformedFrame));
  EXPECT_FALSE(client.Read().ok()) << "framing errors must close the connection";
}

TEST(ServerTest, OversizedFrameGetsTypedErrorAndCloses) {
  ServerConfig config;
  config.quotas.max_frame_bytes = 4096;
  std::unique_ptr<CheckServer> server = StartServer(std::move(config));
  ServeClient client = MustConnect(*server);

  const std::uint32_t huge = htonl(8192);  // over the quota, never allocated
  std::string error;
  ASSERT_TRUE(SendAll(client.fd().get(), &huge, sizeof(huge), &error)) << error;

  Result<Json> frame = client.Read();
  ASSERT_TRUE(frame.ok()) << frame.error().message;
  EXPECT_EQ(TypeOf(frame.value()), "error");
  EXPECT_EQ(ErrorCodeOf(frame.value()), "oversized-frame");
  EXPECT_FALSE(client.Read().ok());
}

TEST(ServerTest, BadJsonGetsTypedErrorAndCloses) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  const std::string frame_bytes = EncodeFrameText("{\"type\": ");
  std::string error;
  ASSERT_TRUE(SendAll(client.fd().get(), frame_bytes.data(), frame_bytes.size(), &error));

  Result<Json> frame = client.Read();
  ASSERT_TRUE(frame.ok()) << frame.error().message;
  EXPECT_EQ(TypeOf(frame.value()), "error");
  EXPECT_EQ(ErrorCodeOf(frame.value()), "bad-json");
  EXPECT_FALSE(client.Read().ok());
}

TEST(ServerTest, TooDeepJsonGetsTypedErrorAndCloses) {
  ServerConfig config;
  config.quotas.max_json_depth = 6;
  std::unique_ptr<CheckServer> server = StartServer(std::move(config));
  ServeClient client = MustConnect(*server);

  std::string deep;
  for (int i = 0; i < 10; ++i) deep += "[";
  for (int i = 0; i < 10; ++i) deep += "]";
  const std::string frame_bytes = EncodeFrameText(deep);
  std::string error;
  ASSERT_TRUE(SendAll(client.fd().get(), frame_bytes.data(), frame_bytes.size(), &error));

  Result<Json> frame = client.Read();
  ASSERT_TRUE(frame.ok()) << frame.error().message;
  EXPECT_EQ(TypeOf(frame.value()), "error");
  EXPECT_EQ(ErrorCodeOf(frame.value()), "too-deep");
  EXPECT_FALSE(client.Read().ok());
}

TEST(ServerTest, BadRequestKeepsConnectionOpen) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  Json request = Json::MakeObject();
  request.Set("type", Json::MakeString("flarp"));
  const Result<Json> frame = client.Call(request);
  ASSERT_TRUE(frame.ok()) << frame.error().message;
  EXPECT_EQ(TypeOf(frame.value()), "error");
  EXPECT_EQ(ErrorCodeOf(frame.value()), "bad-request");
  EXPECT_FALSE(ServeErrorClosesConnection(ServeErrorCode::kBadRequest));

  // Only the request was bad; the stream is intact.
  const Result<Json> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(TypeOf(pong.value()), "pong");
}

TEST(ServerTest, SubmitProgramFileIsRejectedWithoutTouchingTheFilesystem) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  const std::string existing = ::testing::TempDir() + "/server_test_secret.fl";
  std::ofstream(existing) << "program p(a) { y = a; }";

  const auto submit_program_file = [&](const std::string& path) {
    Json job = Json::MakeObject();
    job.Set("id", Json::MakeString("spy"));
    job.Set("program_file", Json::MakeString(path));
    Result<Json> terminal = client.SubmitJob(job);
    EXPECT_TRUE(terminal.ok()) << (terminal.ok() ? "" : terminal.error().message);
    return terminal.ok() ? std::move(terminal.value()) : Json();
  };

  const Json present = submit_program_file(existing);
  const Json absent = submit_program_file(existing + ".does-not-exist");
  EXPECT_EQ(TypeOf(present), "error");
  EXPECT_EQ(ErrorCodeOf(present), "bad-request");
  EXPECT_EQ(StringField(present, "id"), "spy");
  EXPECT_NE(StringField(present, "message").find("program_file"), std::string::npos);
  // No existence oracle: the refusal is byte-identical whether or not the
  // named path exists on the daemon host.
  EXPECT_EQ(StringField(present, "message"), StringField(absent, "message"));
  EXPECT_EQ(ErrorCodeOf(present), ErrorCodeOf(absent));

  // Request-level rejection: the stream is intact and real work proceeds.
  const Result<Json> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(TypeOf(pong.value()), "pong");
}

TEST(ServerTest, ReloadDefaultsCannotSmuggleProgramFile) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  Json defaults = Json::MakeObject();
  defaults.Set("program_file", Json::MakeString("/etc/passwd"));
  const Result<Json> response = client.Reload(defaults, Json());
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_EQ(TypeOf(response.value()), "error");
  EXPECT_EQ(ErrorCodeOf(response.value()), "bad-request");
  EXPECT_NE(StringField(response.value(), "message").find("program_file"),
            std::string::npos);

  // The failed reload left the original policy (and epoch) in place.
  const Result<Json> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(IntField(pong.value(), "epoch"), 1);
}

TEST(ServerTest, TcpPortsOutsideRangeAreRejectedNotTruncated) {
  int bound = -1;
  const Result<Fd> listen_high = ListenTcp(70000, &bound);  // htons would bind 4464
  ASSERT_FALSE(listen_high.ok());
  EXPECT_NE(listen_high.error().message.find("65535"), std::string::npos);
  EXPECT_FALSE(ListenTcp(65536, &bound).ok());
  EXPECT_FALSE(ConnectTcp(70000).ok());
  EXPECT_FALSE(ConnectTcp(0).ok());  // 0 means "ephemeral" only for listeners
}

TEST(ServerTest, SendTimeoutFailsFastWhenPeerStopsReading) {
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  Fd writer(pair[0]);
  Fd silent_peer(pair[1]);  // never reads, exactly like a stalled client
  ASSERT_TRUE(SetSendTimeoutMs(writer, 100));

  // Far beyond any default socket buffer, so the write must eventually wait
  // for the peer — and with SO_SNDTIMEO set, fail instead of waiting forever.
  const std::string block(8u << 20, 'x');
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(SendAll(writer.get(), block.data(), block.size(), &error));
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_LT(elapsed_ms, 5000) << "send timeout did not bound the blocking write";
}

TEST(ServerTest, ErrorCodesAreDistinctOnTheWire) {
  const ServeErrorCode codes[] = {
      ServeErrorCode::kMalformedFrame, ServeErrorCode::kOversizedFrame,
      ServeErrorCode::kBadJson,        ServeErrorCode::kTooDeep,
      ServeErrorCode::kBadRequest,     ServeErrorCode::kOverQuota,
      ServeErrorCode::kShuttingDown,
  };
  std::vector<std::string> names;
  for (const ServeErrorCode code : codes) {
    const std::string name = ServeErrorCodeName(code);
    EXPECT_EQ(ParseServeErrorCode(name), code);
    for (const std::string& seen : names) {
      EXPECT_NE(seen, name);
    }
    names.push_back(name);
  }
}

TEST(ServerTest, SiblingConnectionSurvivesAPoisonedOne) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient poisoned = MustConnect(*server);
  ServeClient sibling = MustConnect(*server);

  const std::uint32_t zero = 0;
  std::string error;
  ASSERT_TRUE(SendAll(poisoned.fd().get(), &zero, sizeof(zero), &error));
  Result<Json> frame = poisoned.Read();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(ErrorCodeOf(frame.value()), "malformed-frame");

  // The sibling's work proceeds untouched, and new connections still land.
  const Result<Json> terminal =
      sibling.SubmitJob(CheckJobSpecToJson(BaseSpec("sibling", kCleanProgram)));
  ASSERT_TRUE(terminal.ok()) << terminal.error().message;
  ASSERT_EQ(TypeOf(terminal.value()), "result");
  const Json* job = terminal.value().Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(StringField(*job, "status"), "completed");

  ServeClient fresh = MustConnect(*server);
  const Result<Json> pong = fresh.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(TypeOf(pong.value()), "pong");
}

// ---------------------------------------------------------------------------
// Admission quotas and fairness.

TEST(ServerTest, OverQuotaRejectsWhileSiblingsProceed) {
  ServerConfig config;
  config.concurrency = 1;
  config.quotas.max_inflight_per_client = 1;
  std::unique_ptr<CheckServer> server = StartServer(std::move(config));

  ServeClient greedy = MustConnect(*server);
  FrameReader greedy_frames(&greedy);

  // First submission occupies the whole quota for the slow sweep's duration.
  Json submit = Json::MakeObject();
  submit.Set("type", Json::MakeString("submit"));
  submit.Set("job", CheckJobSpecToJson(SlowSpec("slow")));
  ASSERT_TRUE(greedy.Send(submit).ok());
  EXPECT_EQ(TypeOf(greedy_frames.NextOfType("accepted")), "accepted");

  // Second submission on the same connection: typed over-quota error that
  // names the offending job, connection still open.
  Json second = Json::MakeObject();
  second.Set("type", Json::MakeString("submit"));
  second.Set("job", CheckJobSpecToJson(BaseSpec("second", kCleanProgram)));
  ASSERT_TRUE(greedy.Send(second).ok());
  const Json rejection = greedy_frames.NextOfType("error");
  EXPECT_EQ(ErrorCodeOf(rejection), "over-quota");
  EXPECT_EQ(StringField(rejection, "id"), "second");

  // A sibling connection has its own quota and proceeds.
  ServeClient sibling = MustConnect(*server);
  const Result<Json> terminal =
      sibling.SubmitJob(CheckJobSpecToJson(BaseSpec("sibling", kCleanProgram)));
  ASSERT_TRUE(terminal.ok()) << terminal.error().message;
  ASSERT_EQ(TypeOf(terminal.value()), "result");

  // The greedy client's admitted job still completes.
  const Json result = greedy_frames.NextOfType("result");
  EXPECT_EQ(StringField(result, "id"), "slow");
  const Json* job = result.Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(StringField(*job, "status"), "completed");
}

TEST(ServerTest, HigherPriorityJobsDispatchFirst) {
  ServerConfig config;
  config.concurrency = 1;
  std::unique_ptr<CheckServer> server = StartServer(std::move(config));
  ServeClient client = MustConnect(*server);
  FrameReader frames(&client);

  // The slow job pins the single worker; the two queued behind it must then
  // dispatch by priority, not arrival order. Slow carries the top priority so
  // the order holds even if the worker only wakes after all three are queued
  // (the accepted frame is sent at admission, before dispatch).
  CheckJobSpec low = BaseSpec("low", kCleanProgram);
  low.priority = 1;
  CheckJobSpec high = BaseSpec("high", kLeakyProgram);
  high.grid_lo = -2;  // distinct spec: a cache hit would not mask ordering
  high.priority = 9;

  CheckJobSpec slow = SlowSpec("slow");
  slow.priority = 10;
  const CheckJobSpec* submissions[] = {&slow /*holds the worker*/, &low, &high};
  for (const CheckJobSpec* spec : submissions) {
    Json submit = Json::MakeObject();
    submit.Set("type", Json::MakeString("submit"));
    submit.Set("job", CheckJobSpecToJson(*spec));
    ASSERT_TRUE(client.Send(submit).ok());
    EXPECT_EQ(TypeOf(frames.NextOfType("accepted")), "accepted");
  }

  EXPECT_EQ(StringField(frames.NextOfType("result"), "id"), "slow");
  EXPECT_EQ(StringField(frames.NextOfType("result"), "id"), "high");
  EXPECT_EQ(StringField(frames.NextOfType("result"), "id"), "low");
}

// ---------------------------------------------------------------------------
// Hot reload and epoch pinning.

TEST(ServerTest, ReloadPinsInFlightJobsToTheirEpoch) {
  ServerConfig config;
  config.concurrency = 1;
  std::unique_ptr<CheckServer> server = StartServer(std::move(config));
  ServeClient client = MustConnect(*server);
  FrameReader frames(&client);

  Json submit = Json::MakeObject();
  submit.Set("type", Json::MakeString("submit"));
  submit.Set("job", CheckJobSpecToJson(SlowSpec("pinned")));
  ASSERT_TRUE(client.Send(submit).ok());
  const Json accepted = frames.NextOfType("accepted");
  EXPECT_EQ(IntField(accepted, "epoch"), 1);

  // Reload while the job is mid-sweep: new quotas install atomically under
  // a bumped epoch...
  Json reload = Json::MakeObject();
  reload.Set("type", Json::MakeString("reload"));
  Json quotas = Json::MakeObject();
  quotas.Set("max_inflight_per_client", Json::MakeInt(3));
  reload.Set("quotas", std::move(quotas));
  ASSERT_TRUE(client.Send(reload).ok());
  const Json reload_ok = frames.NextOfType("reload-ok");
  EXPECT_EQ(IntField(reload_ok, "epoch"), 2);
  EXPECT_EQ(server->policy()->epoch, 2u);
  EXPECT_EQ(server->policy()->quotas.max_inflight_per_client, 3);

  // ...but the in-flight job still completes under — and reports — the
  // epoch it was admitted at.
  const Json result = frames.NextOfType("result");
  EXPECT_EQ(StringField(result, "id"), "pinned");
  EXPECT_EQ(IntField(result, "epoch"), 1);
  const Json* job = result.Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(StringField(*job, "status"), "completed");

  // A submission after the reload is admitted under the new epoch.
  Json next = Json::MakeObject();
  next.Set("type", Json::MakeString("submit"));
  next.Set("job", CheckJobSpecToJson(BaseSpec("fresh", kCleanProgram)));
  ASSERT_TRUE(client.Send(next).ok());
  EXPECT_EQ(IntField(frames.NextOfType("accepted"), "epoch"), 2);
  EXPECT_EQ(IntField(frames.NextOfType("result"), "epoch"), 2);
}

TEST(ServerTest, ReloadDefaultsApplyToLaterSubmissions) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  // Install a default program via reload, then submit a job that relies on
  // the defaults for everything but its id and policy bits.
  Json defaults = Json::MakeObject();
  defaults.Set("program", Json::MakeString(kCleanProgram));
  defaults.Set("grid", [] {
    Json grid = Json::MakeObject();
    grid.Set("lo", Json::MakeInt(-1));
    grid.Set("hi", Json::MakeInt(1));
    return grid;
  }());
  const Result<Json> reload_ok = client.Reload(defaults, Json());
  ASSERT_TRUE(reload_ok.ok()) << reload_ok.error().message;
  ASSERT_EQ(TypeOf(reload_ok.value()), "reload-ok");

  Json job = Json::MakeObject();
  job.Set("id", Json::MakeString("defaulted"));
  Json allow = Json::MakeArray();
  allow.Append(Json::MakeInt(0));
  job.Set("allow", std::move(allow));
  const Result<Json> terminal = client.SubmitJob(job);
  ASSERT_TRUE(terminal.ok()) << terminal.error().message;
  ASSERT_EQ(TypeOf(terminal.value()), "result");
  const Json* result_job = terminal.value().Find("job");
  ASSERT_NE(result_job, nullptr);
  EXPECT_EQ(StringField(*result_job, "status"), "completed");
}

TEST(ServerTest, ReloadValidationFailsClosed) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  Json bad_quotas = Json::MakeObject();
  bad_quotas.Set("max_inflight_per_client", Json::MakeInt(0));
  const Result<Json> rejected = client.Reload(Json(), bad_quotas);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(TypeOf(rejected.value()), "error");
  EXPECT_EQ(ErrorCodeOf(rejected.value()), "bad-request");

  Json unknown = Json::MakeObject();
  unknown.Set("max_flarps", Json::MakeInt(5));
  const Result<Json> unknown_key = client.Reload(Json(), unknown);
  ASSERT_TRUE(unknown_key.ok());
  EXPECT_EQ(ErrorCodeOf(unknown_key.value()), "bad-request");

  // A failed reload installs nothing: the epoch is unchanged and the
  // connection remains usable.
  EXPECT_EQ(server->policy()->epoch, 1u);
  const Result<Json> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(TypeOf(pong.value()), "pong");
}

// ---------------------------------------------------------------------------
// Drain and stats.

TEST(ServerTest, DrainCompletesInFlightAndRejectsNewSubmissions) {
  ServerConfig config;
  config.concurrency = 1;
  std::unique_ptr<CheckServer> server = StartServer(std::move(config));
  ServeClient client = MustConnect(*server);
  FrameReader frames(&client);

  Json submit = Json::MakeObject();
  submit.Set("type", Json::MakeString("submit"));
  submit.Set("job", CheckJobSpecToJson(SlowSpec("draining")));
  ASSERT_TRUE(client.Send(submit).ok());
  EXPECT_EQ(TypeOf(frames.NextOfType("accepted")), "accepted");

  server->RequestDrain();
  EXPECT_TRUE(server->draining());

  Json late = Json::MakeObject();
  late.Set("type", Json::MakeString("submit"));
  late.Set("job", CheckJobSpecToJson(BaseSpec("late", kCleanProgram)));
  ASSERT_TRUE(client.Send(late).ok());
  const Json rejection = frames.NextOfType("error");
  EXPECT_EQ(ErrorCodeOf(rejection), "shutting-down");
  EXPECT_EQ(StringField(rejection, "id"), "late");

  // The admitted job is never dropped or re-policed by the drain.
  const Json result = frames.NextOfType("result");
  EXPECT_EQ(StringField(result, "id"), "draining");
  const Json* job = result.Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(StringField(*job, "status"), "completed");

  // Shutdown returns only after the drain barrier: no admitted work left.
  server->Shutdown();
  const Json stats = server->StatsJson();
  const Json* jobs = stats.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(IntField(*jobs, "completed"), 1);
  EXPECT_EQ(IntField(*jobs, "rejected_draining"), 1);
}

TEST(ServerTest, StatsFrameReportsLiveCountersAndMetrics) {
  std::unique_ptr<CheckServer> server = StartServer(ServerConfig{});
  ServeClient client = MustConnect(*server);

  const CheckJobSpec spec = BaseSpec("counted", kLeakyProgram);
  ASSERT_TRUE(client.SubmitJob(CheckJobSpecToJson(spec)).ok());
  ASSERT_TRUE(client.SubmitJob(CheckJobSpecToJson(spec)).ok());  // warm replay

  const Result<Json> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  ASSERT_EQ(TypeOf(stats.value()), "stats");

  const Json* server_obj = stats.value().Find("server");
  ASSERT_NE(server_obj, nullptr);
  EXPECT_EQ(IntField(*server_obj, "epoch"), 1);
  const Json* jobs = server_obj->Find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(IntField(*jobs, "submitted"), 2);
  EXPECT_EQ(IntField(*jobs, "completed"), 2);
  EXPECT_EQ(IntField(*jobs, "executed"), 1);
  EXPECT_EQ(IntField(*jobs, "cache_hits"), 1);
  const Json* cache = server_obj->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(IntField(*cache, "entries"), 1);

  // The metrics snapshot rides along: the daemon's own registry, including
  // the per-job wall-time histogram it records.
  const Json* metrics = stats.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  EXPECT_NE(metrics->Find("counters"), nullptr);
}

TEST(ServerTest, ShutdownIsIdempotentAndUnlinksTheSocket) {
  ServerConfig config;
  config.unix_path = testlib::TempSocketPath("server_test_shutdown");
  const std::string path = config.unix_path;
  std::unique_ptr<CheckServer> server = StartServer(std::move(config));

  ServeClient client = MustConnect(*server);
  ASSERT_TRUE(client.Ping().ok());

  server->Shutdown();
  server->Shutdown();  // idempotent

  // The socket file is gone; a new connection attempt fails.
  EXPECT_FALSE(ServeClient::ConnectUnixPath(path).ok());
}

}  // namespace
}  // namespace secpol
