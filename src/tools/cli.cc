#include "src/tools/cli.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "src/flowchart/bytecode.h"
#include "src/flowchart/dot.h"
#include "src/flowchart/interpreter.h"
#include "src/flowchart/optimize.h"
#include "src/flowlang/lower.h"
#include "src/flowlang/parser.h"
#include "src/obs/obs.h"
#include "src/scenario/fuzzer.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/service.h"
#include "src/staticflow/analysis.h"
#include "src/surveillance/instrument.h"
#include "src/surveillance/surveillance.h"
#include "src/transforms/advisor.h"
#include "src/transforms/structure.h"
#include "src/util/strings.h"

namespace secpol {

namespace {

struct ParsedArgs {
  std::string command;
  std::string file;
  std::vector<std::pair<std::string, std::string>> flags;  // --name=value / --name
};

std::optional<ParsedArgs> ParseArgs(const std::vector<std::string>& args, std::string* err) {
  if (args.empty()) {
    *err += "usage: secpol <command> <file.fl> [flags]\n";
    return std::nullopt;
  }
  ParsedArgs parsed;
  parsed.command = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (StartsWith(arg, "--")) {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        parsed.flags.emplace_back(arg.substr(2), "");
      } else {
        parsed.flags.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else if (parsed.file.empty()) {
      parsed.file = arg;
    } else {
      *err += "unexpected positional argument '" + arg + "'\n";
      return std::nullopt;
    }
  }
  return parsed;
}

bool HasFlag(const ParsedArgs& args, const std::string& name) {
  for (const auto& [flag, value] : args.flags) {
    if (flag == name) {
      return true;
    }
  }
  return false;
}

std::optional<std::string> FlagValue(const ParsedArgs& args, const std::string& name) {
  for (const auto& [flag, value] : args.flags) {
    if (flag == name) {
      return value;
    }
  }
  return std::nullopt;
}

// A non-negative integer flag; absent leaves *value as it is. Errors name
// the flag.
bool NonNegativeFlag(const ParsedArgs& args, const std::string& name, long long* value,
                     std::string* err) {
  const std::optional<std::string> text = FlagValue(args, name);
  if (!text.has_value()) {
    return true;
  }
  try {
    *value = std::stoll(*text);
  } catch (...) {
    *err += "bad --" + name + " value '" + *text + "'\n";
    return false;
  }
  if (*value < 0) {
    *err += "--" + name + " must be non-negative\n";
    return false;
  }
  return true;
}

// Parses "1,2,3" into integers.
std::optional<std::vector<Value>> ParseValueList(const std::string& text, std::string* err) {
  std::vector<Value> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    try {
      out.push_back(std::stoll(item));
    } catch (...) {
      *err += "bad integer '" + item + "'\n";
      return std::nullopt;
    }
  }
  return out;
}

// Applies the job-field flags present in `args` over *spec, through the
// table that manifests and wire frames are read with (src/service/manifest.h):
// --grid, --threads, --allow and the rest mean one thing, and fail with one
// message, on every verb that takes them. RunCli has already refused the
// flags a verb does not take.
bool ApplyJobFlags(const ParsedArgs& args, CheckJobSpec* spec, std::string* err) {
  for (const JobField& field : JobFields()) {
    const std::optional<std::string> text =
        field.flag != nullptr ? FlagValue(args, field.flag) : std::nullopt;
    if (!text.has_value()) {
      continue;
    }
    const Result<bool> applied = ApplyJobFlag(field, *text, spec);
    if (!applied.ok()) {
      *err += applied.error().message + "\n";
      return false;
    }
  }
  return true;
}

// The job a program verb's flags describe. --allow is required ("" spells
// allow()), --allow2 defaults to it, and both must name inputs of a program
// with `num_inputs` inputs. Unlike a manifest job, the sweep uses one worker
// per hardware thread unless --threads says otherwise.
std::optional<CheckJobSpec> JobFromFlags(const ParsedArgs& args, int num_inputs,
                                         std::string* err) {
  if (!FlagValue(args, "allow").has_value()) {
    *err += "missing --allow=<comma-separated input indices> (empty string for allow())\n";
    return std::nullopt;
  }
  CheckJobSpec spec;
  spec.num_threads = 0;
  if (!ApplyJobFlags(args, &spec, err)) {
    return std::nullopt;
  }
  if (!FlagValue(args, "allow2").has_value()) {
    spec.allow2 = spec.allow;
  }
  const VarSet outside = spec.allow.Union(spec.allow2).Minus(VarSet::FirstN(num_inputs));
  if (!outside.empty()) {
    *err += "allow index " + std::to_string(std::countr_zero(outside.bits())) +
            " out of range\n";
    return std::nullopt;
  }
  return spec;
}

// Observability sinks for the checking verbs (check | batch | audit):
// --metrics-out=<file> collects a metrics snapshot, --trace-out=<file> a
// Chrome trace (chrome://tracing / Perfetto). Neither flag changes the
// verb's stdout or exit code for a successful write; omitting both keeps
// the instrumentation disabled (null context).
struct ObsSinks {
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<TraceRecorder> trace;
  std::string metrics_path;
  std::string trace_path;

  ObsContext Context() const { return ObsContext{metrics.get(), trace.get()}; }

  // Writes whichever sinks are active. Returns false (with *err set) when a
  // file cannot be written.
  bool Write(std::string* err) const {
    if (metrics != nullptr) {
      std::ofstream out(metrics_path, std::ios::binary | std::ios::trunc);
      out << metrics->Snapshot().Pretty() << "\n";
      out.flush();
      if (!out) {
        *err += "cannot write metrics file '" + metrics_path + "'\n";
        return false;
      }
    }
    if (trace != nullptr) {
      std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
      out << trace->ToJson().Serialize() << "\n";
      out.flush();
      if (!out) {
        *err += "cannot write trace file '" + trace_path + "'\n";
        return false;
      }
    }
    return true;
  }
};

std::optional<ObsSinks> MakeObsSinks(const ParsedArgs& args, std::string* err) {
  ObsSinks sinks;
  if (const auto path = FlagValue(args, "metrics-out"); path.has_value()) {
    if (path->empty()) {
      *err += "missing value for --metrics-out=<file>\n";
      return std::nullopt;
    }
    sinks.metrics_path = *path;
    sinks.metrics = std::make_unique<MetricsRegistry>();
  }
  if (const auto path = FlagValue(args, "trace-out"); path.has_value()) {
    if (path->empty()) {
      *err += "missing value for --trace-out=<file>\n";
      return std::nullopt;
    }
    sinks.trace_path = *path;
    sinks.trace = std::make_unique<TraceRecorder>();
  }
  return sinks;
}

// Folds a failed sink write into a verb's exit code: a clean run becomes
// exit 1, a failing verdict keeps its (more severe) code.
int FoldWrite(int code, const ObsSinks& sinks, std::string* err) {
  if (!sinks.Write(err) && code == 0) {
    return 1;
  }
  return code;
}

std::optional<std::string> ReadFile(const std::string& path, std::string* err) {
  std::ifstream stream(path);
  if (!stream) {
    *err += "cannot open '" + path + "'\n";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

// The program file, parsed; errors name the file. `text`, when given,
// receives the source as read.
std::optional<SourceProgram> LoadSource(const ParsedArgs& args, std::string* err,
                                        std::string* text = nullptr) {
  if (args.file.empty()) {
    *err += "missing program file\n";
    return std::nullopt;
  }
  std::optional<std::string> source = ReadFile(args.file, err);
  if (!source.has_value()) {
    return std::nullopt;
  }
  Result<SourceProgram> parsed = ParseProgram(*source);
  if (!parsed.ok()) {
    *err += args.file + ":" + parsed.error().ToString() + "\n";
    return std::nullopt;
  }
  if (text != nullptr) {
    *text = std::move(*source);
  }
  return std::move(parsed).value();
}

std::optional<Program> LoadProgram(const ParsedArgs& args, std::string* err) {
  const auto source = LoadSource(args, err);
  if (!source.has_value()) {
    return std::nullopt;
  }
  return Lower(*source);
}

std::optional<Input> ParseInputs(const ParsedArgs& args, int num_inputs, std::string* err) {
  const std::optional<std::string> value = FlagValue(args, "input");
  Input input;
  if (value.has_value() && !value->empty()) {
    const auto parsed = ParseValueList(*value, err);
    if (!parsed.has_value()) {
      return std::nullopt;
    }
    input = *parsed;
  }
  if (static_cast<int>(input.size()) != num_inputs) {
    *err += "expected " + std::to_string(num_inputs) + " inputs, got " +
            std::to_string(input.size()) + "\n";
    return std::nullopt;
  }
  return input;
}

int CmdRun(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto program = LoadProgram(args, err);
  if (!program.has_value()) {
    return 1;
  }
  const auto input = ParseInputs(args, program->num_inputs(), err);
  if (!input.has_value()) {
    return 1;
  }
  const ExecResult result = RunProgram(*program, *input);
  if (!result.halted) {
    *out += "did not halt within fuel\n";
    return 2;
  }
  *out += "y = " + std::to_string(result.output) + " (steps " +
          std::to_string(result.steps) + ")\n";
  return 0;
}

int CmdMonitor(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto program = LoadProgram(args, err);
  if (!program.has_value()) {
    return 1;
  }
  const auto job = JobFromFlags(args, program->num_inputs(), err);
  if (!job.has_value()) {
    return 1;
  }
  const auto input = ParseInputs(args, program->num_inputs(), err);
  if (!input.has_value()) {
    return 1;
  }
  const TimingMode timing =
      HasFlag(args, "time-safe") ? TimingMode::kTimeObservable : TimingMode::kTimeUnobservable;
  const LabelDiscipline discipline = HasFlag(args, "high-water")
                                         ? LabelDiscipline::kHighWater
                                         : LabelDiscipline::kSurveillance;
  const SurveillanceMechanism mechanism(std::move(*program), job->allow, timing, discipline);
  *out += mechanism.name() + ": " + mechanism.Run(*input).ToString() + "\n";
  return 0;
}

// `secpol check <file.fl> --allow=...` and `secpol audit <file.fl>
// --allow=... [--allow2=...] [--mechanism2=...]` build one job from their
// flags (check: the soundness checker; audit: all six checks in one pass over
// a shared outcome table, see src/service/audit.h) and run it through
// ExecuteJob, the path `batch` and `serve` run manifest and wire jobs
// through, so a verb, a manifest and the cache render the identical bytes.
// The exit code is the job's: for audit, the worst of its six sections'.
int RunJob(const ParsedArgs& args, CheckerKind checker, std::string* out, std::string* err) {
  std::string text;
  const auto source = LoadSource(args, err, &text);
  if (!source.has_value()) {
    return 1;
  }
  std::optional<CheckJobSpec> spec = JobFromFlags(args, source->num_inputs(), err);
  if (!spec.has_value()) {
    return 1;
  }
  spec->id = CheckerKindName(checker);
  spec->checker = checker;
  spec->program_text = std::move(text);
  const auto sinks = MakeObsSinks(args, err);
  if (!sinks.has_value()) {
    return 1;
  }
  const JobResult result = ExecuteJob(*spec, sinks->Context());
  if (result.status == JobStatus::kInvalid) {
    *err += result.error + "\n";
    return result.exit_code;
  }
  *out += result.report;
  return FoldWrite(result.exit_code, *sinks, err);
}

// `secpol batch <manifest.json>`: run a whole manifest of check jobs
// through the scheduler + result cache and print the JSON batch report.
// Exit code is the most severe per-job code (same vocabulary as `check`,
// plus 5 = rejected by admission control); a manifest that does not parse
// exits 1 before any job runs.
int CmdBatch(const ParsedArgs& args, std::string* out, std::string* err) {
  if (args.file.empty()) {
    *err += "missing manifest file (usage: secpol batch <manifest.json> [--pretty])\n";
    return 1;
  }
  const std::optional<std::string> text = ReadFile(args.file, err);
  if (!text.has_value()) {
    return 1;
  }
  Result<BatchManifest> manifest = ParseBatchManifest(*text);
  if (!manifest.ok()) {
    *err += args.file + ": " + manifest.error().ToString() + "\n";
    return 1;
  }
  const auto sinks = MakeObsSinks(args, err);
  if (!sinks.has_value()) {
    return 1;
  }
  ServiceConfig config = manifest.value().service;
  config.obs = sinks->Context();
  CheckService service(std::move(config));
  const BatchReport report = service.RunBatch(manifest.value().jobs);
  const Json rendered = BatchReportToJson(report);
  *out += HasFlag(args, "pretty") ? rendered.Pretty() : rendered.Serialize();
  *out += "\n";
  return FoldWrite(report.ExitCode(), *sinks, err);
}

// `secpol fuzz [--seed=N] [--iterations=N] [--budget-ms=N] [--threads=N]
// [--out-dir=DIR] [--replay=<witness.json>]`: run the coverage-guided
// disagreement fuzzer over the seeded corpus. Exit 0 for a clean run
// (expected findings are fine), 2 when a true disagreement was found,
// 1 for flag errors. --out-dir writes each finding's self-contained
// witness JSON into DIR (which must exist) as <kind>-<iteration>.json.
//
// With --replay=<witness.json> no fuzzing happens: the witness's oracle
// pair is re-evaluated from scratch. Exit 0 when the phenomenon still
// reproduces, 2 when it does not, 1 for an unreadable witness.
int CmdFuzz(const ParsedArgs& args, std::string* out, std::string* err) {
  if (const auto witness_path = FlagValue(args, "replay"); witness_path.has_value()) {
    const std::optional<std::string> text = ReadFile(*witness_path, err);
    if (!text.has_value()) {
      return 1;
    }
    const Result<Json> witness = Json::Parse(*text);
    if (!witness.ok()) {
      *err += *witness_path + ": " + witness.error().ToString() + "\n";
      return 1;
    }
    const Result<FuzzFinding> finding = FindingFromJson(witness.value());
    if (!finding.ok()) {
      *err += *witness_path + ": " + finding.error().ToString() + "\n";
      return 1;
    }
    const Result<bool> replayed = ReplayFinding(finding.value());
    if (!replayed.ok()) {
      *err += *witness_path + ": " + replayed.error().ToString() + "\n";
      return 1;
    }
    *out += FindingKindName(finding.value().kind) +
            (replayed.value() ? ": reproduces\n" : ": does not reproduce\n");
    return replayed.value() ? 0 : 2;
  }

  FuzzerConfig config;
  long long seed = static_cast<long long>(config.seed);
  long long iterations = static_cast<long long>(config.iterations);
  long long budget_ms = config.budget_ms;
  CheckJobSpec knobs;  // --threads, read through the job-field table
  knobs.num_threads = config.threads;
  if (!NonNegativeFlag(args, "seed", &seed, err) ||
      !NonNegativeFlag(args, "iterations", &iterations, err) ||
      !NonNegativeFlag(args, "budget-ms", &budget_ms, err) || !ApplyJobFlags(args, &knobs, err)) {
    return 1;
  }
  if (iterations == 0 && budget_ms == 0) {
    *err += "--iterations=0 needs --budget-ms to bound the run\n";
    return 1;
  }
  config.seed = static_cast<std::uint64_t>(seed);
  config.iterations = static_cast<std::uint64_t>(iterations);
  config.budget_ms = budget_ms;
  // threads=0 means "hardware concurrency" for the check verbs; the fuzzer's
  // parallel-vs-serial oracle wants an explicit worker count, so resolve it.
  config.threads = knobs.num_threads == 0 ? 7 : knobs.num_threads;

  DisagreementFuzzer fuzzer(config);
  const FuzzReport report = fuzzer.Run();
  *out += report.ToString() + "\n";

  int code = report.clean() ? 0 : 2;
  if (const auto out_dir = FlagValue(args, "out-dir"); out_dir.has_value()) {
    if (out_dir->empty()) {
      *err += "missing value for --out-dir=<directory>\n";
      return 1;
    }
    for (const FuzzFinding& finding : report.findings) {
      const std::string path = *out_dir + "/" + FindingKindName(finding.kind) + "-" +
                               std::to_string(finding.iteration) + ".json";
      std::ofstream witness_out(path, std::ios::binary | std::ios::trunc);
      witness_out << finding.ToJson().Serialize() << "\n";
      witness_out.flush();
      if (!witness_out) {
        *err += "cannot write witness file '" + path + "'\n";
        if (code == 0) {
          code = 1;
        }
        break;
      }
      *out += "wrote " + path + "\n";
    }
  }
  return code;
}

// Set by SIGTERM/SIGINT; the serve loop polls it and drains.
volatile std::sig_atomic_t g_serve_stop = 0;
void ServeStopHandler(int) { g_serve_stop = 1; }

// `secpol serve --socket=<path> [--tcp=<port>] [--concurrency=N]
// [--cache-capacity=N] [--max-inflight=N] [--max-frame-bytes=N]
// [--max-json-depth=N] [--defaults=<defaults.json>]`: run the persistent
// checking daemon until SIGTERM/SIGINT, then drain gracefully (admitted
// jobs complete; new submissions get typed shutting-down rejections).
// --defaults names a JSON file holding a manifest-vocabulary job object
// applied as the initial per-job defaults (reload can replace them later).
int CmdServe(const ParsedArgs& args, std::string* out, std::string* err) {
  ServerConfig config;
  config.unix_path = FlagValue(args, "socket").value_or("");
  long long tcp_port = -1;
  long long concurrency = config.concurrency;
  long long cache_capacity = static_cast<long long>(config.cache_capacity);
  long long max_inflight = config.quotas.max_inflight_per_client;
  long long max_frame_bytes = static_cast<long long>(config.quotas.max_frame_bytes);
  long long max_json_depth = config.quotas.max_json_depth;
  if (FlagValue(args, "tcp").has_value() && !NonNegativeFlag(args, "tcp", &tcp_port, err)) {
    return 1;
  }
  if (!NonNegativeFlag(args, "concurrency", &concurrency, err) ||
      !NonNegativeFlag(args, "cache-capacity", &cache_capacity, err) ||
      !NonNegativeFlag(args, "max-inflight", &max_inflight, err) ||
      !NonNegativeFlag(args, "max-frame-bytes", &max_frame_bytes, err) ||
      !NonNegativeFlag(args, "max-json-depth", &max_json_depth, err)) {
    return 1;
  }
  if (config.unix_path.empty() && tcp_port < 0) {
    *err += "usage: secpol serve --socket=<path> and/or --tcp=<port>\n";
    return 1;
  }
  if (cache_capacity < 1 || max_inflight < 1 || max_frame_bytes < 1) {
    *err += "--cache-capacity, --max-inflight and --max-frame-bytes must be >= 1\n";
    return 1;
  }
  config.tcp_port = static_cast<int>(tcp_port);
  config.concurrency = static_cast<int>(concurrency);
  config.cache_capacity = static_cast<std::size_t>(cache_capacity);
  config.quotas.max_inflight_per_client = static_cast<int>(max_inflight);
  config.quotas.max_frame_bytes = static_cast<std::size_t>(max_frame_bytes);
  config.quotas.max_json_depth = static_cast<int>(max_json_depth);

  if (const auto path = FlagValue(args, "defaults"); path.has_value()) {
    const std::optional<std::string> text = ReadFile(*path, err);
    if (!text.has_value()) {
      return 1;
    }
    const Result<Json> defaults = Json::Parse(*text);
    if (!defaults.ok()) {
      *err += *path + ": " + defaults.error().ToString() + "\n";
      return 1;
    }
    if (!defaults.value().is_object()) {
      *err += *path + ": defaults must be a JSON object\n";
      return 1;
    }
    const Result<bool> applied = ApplyManifestJobFields(defaults.value(), "defaults",
                                                        &config.defaults,
                                                        JobFieldSource::kLocalManifest);
    if (!applied.ok()) {
      *err += *path + ": " + applied.error().message + "\n";
      return 1;
    }
  }

  CheckServer server(std::move(config));
  const Result<bool> started = server.Start();
  if (!started.ok()) {
    *err += started.error().message + "\n";
    return 1;
  }
  // Readiness goes straight to stdout (the buffered *out is only flushed at
  // exit, which for a daemon is too late for whoever is waiting to connect).
  std::string listening = "secpol serve: listening on";
  if (!server.unix_path().empty()) {
    listening += " unix:" + server.unix_path();
  }
  if (server.tcp_port() >= 0) {
    listening += " tcp:" + std::to_string(server.tcp_port());
  }
  std::printf("%s\n", listening.c_str());
  std::fflush(stdout);

  g_serve_stop = 0;
  std::signal(SIGTERM, ServeStopHandler);
  std::signal(SIGINT, ServeStopHandler);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Shutdown();
  *out += "secpol serve: drained and stopped\n";
  return 0;
}

// `secpol submit (--socket=<path> | --tcp=<port>) <mode>` — the serve
// daemon's client. Modes:
//   --job=<inline-json> | --job-file=<file> | <file>   submit one job
//   --ping                                             liveness + epoch
//   --stats                                            live daemon stats
//   --reload-defaults=<json> / --reload-quotas=<json>  hot policy swap
// A submitted job prints its result frame (--print-report: just the report
// body, byte-identical to `secpol batch`'s for the same job) and exits with
// the job's exit code; typed error frames map to the rejected code (5) for
// over-quota/shutting-down and the protocol code (6) otherwise.
int CmdSubmit(const ParsedArgs& args, std::string* out, std::string* err) {
  Result<ServeClient> connected = Error{"unconnected"};
  if (const auto socket = FlagValue(args, "socket"); socket.has_value()) {
    connected = ServeClient::ConnectUnixPath(*socket);
  } else if (const auto tcp = FlagValue(args, "tcp"); tcp.has_value()) {
    long long port = -1;
    if (!NonNegativeFlag(args, "tcp", &port, err)) {
      return 1;
    }
    connected = ServeClient::ConnectTcpPort(static_cast<int>(port));
  } else {
    *err += "usage: secpol submit (--socket=<path> | --tcp=<port>) ...\n";
    return 1;
  }
  if (!connected.ok()) {
    *err += connected.error().message + "\n";
    return kServeProtocolExitCode;
  }
  ServeClient client = std::move(connected).value();

  if (HasFlag(args, "ping")) {
    const Result<Json> pong = client.Ping();
    if (!pong.ok()) {
      *err += pong.error().message + "\n";
      return kServeProtocolExitCode;
    }
    *out += pong.value().Serialize() + "\n";
    return 0;
  }
  if (HasFlag(args, "stats")) {
    const Result<Json> stats = client.Stats();
    if (!stats.ok()) {
      *err += stats.error().message + "\n";
      return kServeProtocolExitCode;
    }
    *out += (HasFlag(args, "pretty") ? stats.value().Pretty() : stats.value().Serialize()) + "\n";
    return 0;
  }
  if (FlagValue(args, "reload-defaults").has_value() ||
      FlagValue(args, "reload-quotas").has_value()) {
    const auto parse_patch = [&](const std::string& name) -> std::optional<Json> {
      const std::optional<std::string> text = FlagValue(args, name);
      if (!text.has_value()) {
        return Json();  // null = no patch
      }
      const Result<Json> patch = Json::Parse(*text);
      if (!patch.ok() || !patch.value().is_object()) {
        *err += "--" + name + ": expected an inline JSON object\n";
        return std::nullopt;
      }
      return patch.value();
    };
    const std::optional<Json> defaults = parse_patch("reload-defaults");
    const std::optional<Json> quotas = parse_patch("reload-quotas");
    if (!defaults.has_value() || !quotas.has_value()) {
      return 1;
    }
    const Result<Json> response = client.Reload(*defaults, *quotas);
    if (!response.ok()) {
      *err += response.error().message + "\n";
      return kServeProtocolExitCode;
    }
    *out += response.value().Serialize() + "\n";
    const Json* type = response.value().Find("type");
    return type != nullptr && type->is_string() && type->AsString() == "reload-ok"
               ? 0
               : ServeClient::ExitCodeFor(response.value());
  }

  std::string job_text;
  if (const auto inline_job = FlagValue(args, "job"); inline_job.has_value()) {
    job_text = *inline_job;
  } else {
    const std::string path = FlagValue(args, "job-file").value_or(args.file);
    if (path.empty()) {
      *err += "missing job: --job=<json>, --job-file=<file>, or a positional file\n";
      return 1;
    }
    std::optional<std::string> text = ReadFile(path, err);
    if (!text.has_value()) {
      return 1;
    }
    job_text = std::move(*text);
  }
  const Result<Json> job = Json::Parse(job_text);
  if (!job.ok()) {
    *err += "job: " + job.error().ToString() + "\n";
    return 1;
  }
  if (!job.value().is_object()) {
    *err += "job: expected a JSON object\n";
    return 1;
  }
  // "program_file" is a client-side convenience: the daemon refuses to read
  // files on its own host, so the path is resolved here — against *this*
  // process's filesystem — and shipped inline as "program".
  Json job_object = job.value();
  if (const Json* program_file = job_object.Find("program_file");
      program_file != nullptr && program_file->is_string()) {
    std::ifstream stream(program_file->AsString());
    if (!stream) {
      *err += "job.program_file: cannot open '" + program_file->AsString() + "'\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << stream.rdbuf();
    Json inlined = Json::MakeObject();
    for (const auto& [key, value] : job_object.Members()) {
      if (key != "program_file") {
        inlined.Set(key, value);
      }
    }
    inlined.Set("program", Json::MakeString(buffer.str()));
    job_object = std::move(inlined);
  }

  const Result<Json> terminal = client.SubmitJob(job_object);
  if (!terminal.ok()) {
    *err += terminal.error().message + "\n";
    return kServeProtocolExitCode;
  }
  if (HasFlag(args, "print-report")) {
    const Json* result_job = terminal.value().Find("job");
    const Json* report = result_job != nullptr ? result_job->Find("report") : nullptr;
    if (report != nullptr && report->is_string()) {
      *out += report->AsString();
    } else if (const Json* message = terminal.value().Find("message");
               message != nullptr && message->is_string()) {
      *err += message->AsString() + "\n";
    }
  } else {
    *out +=
        (HasFlag(args, "pretty") ? terminal.value().Pretty() : terminal.value().Serialize()) +
        "\n";
  }
  return ServeClient::ExitCodeFor(terminal.value());
}

int CmdAnalyze(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto program = LoadProgram(args, err);
  if (!program.has_value()) {
    return 1;
  }
  const auto job = JobFromFlags(args, program->num_inputs(), err);
  if (!job.has_value()) {
    return 1;
  }
  const VarSet allowed = job->allow;
  const PcDiscipline discipline =
      HasFlag(args, "monotone") ? PcDiscipline::kMonotonePc : PcDiscipline::kScopedPc;
  const StaticFlowResult flow = AnalyzeInformationFlow(*program, discipline);
  *out += "analysis: " + PcDisciplineName(discipline) + ", " + std::to_string(flow.rounds) +
          " fixpoint rounds\n";
  for (int h : flow.halts) {
    *out += "  halt box " + std::to_string(h) + ": release label " +
            flow.release_label[h].ToString() +
            (flow.release_label[h].SubsetOf(allowed) ? " (releases)" : " (violates)") + "\n";
  }
  *out += "program release label: " + flow.program_release_label.ToString() + " -> " +
          (flow.program_release_label.SubsetOf(allowed) ? "CERTIFIED" : "NOT CERTIFIED") +
          " for allow=" + allowed.ToString() + "\n";
  return 0;
}

int CmdInstrument(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto program = LoadProgram(args, err);
  if (!program.has_value()) {
    return 1;
  }
  const auto job = JobFromFlags(args, program->num_inputs(), err);
  if (!job.has_value()) {
    return 1;
  }
  *out += InstrumentSurveillance(*program, job->allow).ToString();
  return 0;
}

int CmdAdvise(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto source = LoadSource(args, err);
  if (!source.has_value()) {
    return 1;
  }
  const auto job = JobFromFlags(args, source->num_inputs(), err);
  if (!job.has_value()) {
    return 1;
  }
  const InputDomain domain = InputDomain::Range(source->num_inputs(), job->grid_lo, job->grid_hi);
  AdvisorOptions advisor_options;
  advisor_options.check.num_threads = job->num_threads;
  if (job->deadline_ms > 0) {
    advisor_options.check.deadline = Deadline::AfterMillis(job->deadline_ms);
  }
  const AdvisorReport report = AdviseTransforms(*source, job->allow, domain, advisor_options);
  *out += report.ToString();
  *out += "chosen rewriting:\n" + report.best().program.ToString();
  return 0;
}

int CmdOptimize(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto program = LoadProgram(args, err);
  if (!program.has_value()) {
    return 1;
  }
  OptimizeStats stats;
  const Program optimized = OptimizeProgram(*program, &stats);
  *out += "simplified " + std::to_string(stats.expressions_simplified) +
          " expressions, folded " + std::to_string(stats.predicates_folded) +
          " constant decisions\n";
  *out += optimized.ToString();
  return 0;
}

int CmdDecompile(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto program = LoadProgram(args, err);
  if (!program.has_value()) {
    return 1;
  }
  const auto structured = StructureProgram(*program);
  if (!structured.has_value()) {
    *err += "control flow is not structurable\n";
    return 2;
  }
  // Audit before printing: a decompiler that can be wrong is worse than one
  // that refuses.
  if (!FunctionallyEquivalentOnGrid(*program, Lower(*structured), {-2, -1, 0, 1, 2})) {
    *err += "internal error: structuring audit failed\n";
    return 2;
  }
  *out += structured->ToString();
  return 0;
}

int CmdDot(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto program = LoadProgram(args, err);
  if (!program.has_value()) {
    return 1;
  }
  *out += ProgramToDot(*program);
  return 0;
}

int CmdBytecode(const ParsedArgs& args, std::string* out, std::string* err) {
  const auto program = LoadProgram(args, err);
  if (!program.has_value()) {
    return 1;
  }
  // The compiler fails closed on programs its validity audit rejects; in
  // Release builds that surfaces as a typed BytecodeError, not an assert.
  try {
    *out += CompileToBytecode(*program).ToString();
  } catch (const BytecodeError& error) {
    *err += std::string("bytecode: ") + error.what() + "\n";
    return 1;
  }
  return 0;
}

// A verb, its handler, and every flag the handler reads. RunCli refuses any
// other flag, so a misspelt one cannot quietly leave a default in place.
struct Verb {
  const char* name;
  int (*run)(const ParsedArgs& args, std::string* out, std::string* err);
  std::vector<std::string> flags;
};

// In the order the unknown-command message lists them.
const std::vector<Verb>& Verbs() {
  static const std::vector<Verb> verbs = {
      {"run", CmdRun, {"input"}},
      {"monitor", CmdMonitor, {"allow", "input", "time-safe", "high-water"}},
      {"check",
       [](const ParsedArgs& args, std::string* out, std::string* err) {
         return RunJob(args, CheckerKind::kSoundness, out, err);
       },
       {"allow", "mechanism", "grid", "time", "threads", "deadline-ms", "fault-spec", "retries",
        "sweep-mode", "exec-mode", "metrics-out", "trace-out"}},
      {"audit",
       [](const ParsedArgs& args, std::string* out, std::string* err) {
         return RunJob(args, CheckerKind::kAudit, out, err);
       },
       {"allow", "allow2", "mechanism", "mechanism2", "grid", "time", "threads", "deadline-ms",
        "fault-spec", "retries", "sweep-mode", "exec-mode", "metrics-out", "trace-out"}},
      {"batch", CmdBatch, {"pretty", "metrics-out", "trace-out"}},
      {"serve",
       CmdServe,
       {"socket", "tcp", "concurrency", "cache-capacity", "max-inflight", "max-frame-bytes",
        "max-json-depth", "defaults"}},
      {"submit",
       CmdSubmit,
       {"socket", "tcp", "job", "job-file", "ping", "stats", "reload-defaults", "reload-quotas",
        "print-report", "pretty"}},
      {"fuzz", CmdFuzz, {"seed", "iterations", "budget-ms", "threads", "out-dir", "replay"}},
      {"analyze", CmdAnalyze, {"allow", "monotone"}},
      {"instrument", CmdInstrument, {"allow"}},
      {"advise", CmdAdvise, {"allow", "grid", "threads", "deadline-ms"}},
      {"optimize", CmdOptimize, {}},
      {"decompile", CmdDecompile, {}},
      {"dot", CmdDot, {}},
      {"bytecode", CmdBytecode, {}},
  };
  return verbs;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::string* out, std::string* err) {
  const auto parsed = ParseArgs(args, err);
  if (!parsed.has_value()) {
    return 1;
  }
  // Both spellings: `secpol batch m.json` and `secpol --batch m.json`.
  const std::string command = parsed->command == "--batch" ? "batch" : parsed->command;
  std::string names;
  for (const Verb& verb : Verbs()) {
    names += (names.empty() ? "" : "|") + std::string(verb.name);
    if (command != verb.name) {
      continue;
    }
    for (const auto& [flag, value] : parsed->flags) {
      if (std::find(verb.flags.begin(), verb.flags.end(), flag) == verb.flags.end()) {
        std::string takes;
        for (const std::string& known : verb.flags) {
          takes += (takes.empty() ? " --" : ", --") + known;
        }
        *err += "unknown flag --" + flag + " for " + command + " (it takes" +
                (takes.empty() ? " no flags" : takes) + ")\n";
        return 1;
      }
    }
    return verb.run(*parsed, out, err);
  }
  *err += "unknown command '" + parsed->command + "' (expected " + names + ")\n";
  return 1;
}

}  // namespace secpol
