#include "perfbench/src/layers.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "perfbench/src/host.h"
#include "src/channels/timing.h"
#include "src/flowlang/lower.h"
#include "src/flowlang/parser.h"
#include "src/mechanism/completeness.h"
#include "src/mechanism/integrity.h"
#include "src/mechanism/maximal.h"
#include "src/mechanism/outcome_table.h"
#include "src/mechanism/policy_compare.h"
#include "src/mechanism/soundness.h"
#include "src/policy/policy.h"
#include "src/server/protocol.h"
#include "src/service/audit.h"
#include "src/service/manifest.h"
#include "src/surveillance/compiled.h"

namespace perfbench {

using secpol::AllowPolicy;
using secpol::CheckJobSpec;
using secpol::CheckOptions;
using secpol::CheckProgress;
using secpol::CheckStatus;
using secpol::InputDomain;
using secpol::Json;
using secpol::JobResult;
using secpol::JobStatus;
using secpol::Observability;
using secpol::OutcomeTable;
using secpol::OutcomeTableSources;
using secpol::Program;
using secpol::ProtectionMechanism;

namespace {

// RunPreparedJob's section header (src/service/job.cc).
std::string Header(const std::string& subject, const std::string& relation,
                   const std::string& object, const InputDomain& domain,
                   std::optional<Observability> obs) {
  std::string out = subject + " " + relation + " " + object + " over " + domain.ToString();
  if (obs.has_value()) {
    out += " [" + std::string(secpol::ObservabilityName(*obs)) + "]";
  }
  out += ":\n";
  return out;
}

// RunPreparedJob's exit code and status for one section (ExitForProgress
// and StatusForProgress in src/service/job.cc).
int SectionExit(const CheckProgress& progress, bool clean_verdict, bool witness) {
  switch (progress.status) {
    case CheckStatus::kCompleted:
      return clean_verdict ? 0 : 2;
    case CheckStatus::kDeadlineExceeded:
      return witness ? 2 : 3;
    case CheckStatus::kAborted:
      return 4;
  }
  return 4;
}

JobStatus SectionStatus(const CheckProgress& progress) {
  switch (progress.status) {
    case CheckStatus::kCompleted:
      return JobStatus::kCompleted;
    case CheckStatus::kDeadlineExceeded:
      return JobStatus::kDeadlineExceeded;
    case CheckStatus::kAborted:
      return JobStatus::kAborted;
  }
  return JobStatus::kAborted;
}

// An audit job's exit code and status: the worst of its six sections'
// (WorstAuditExit and WorstAuditStatus in src/service/job.cc).
void SetAuditOutcome(const secpol::AuditReport& audit, JobResult* result) {
  struct Section {
    const CheckProgress& progress;
    bool clean_verdict;
    bool witness;
  };
  const bool leaky = audit.leak.leaky_classes > 0;
  const Section sections[] = {
      {audit.soundness.progress, audit.soundness.sound,
       audit.soundness.counterexample.has_value()},
      {audit.integrity.progress, audit.integrity.preserved,
       audit.integrity.counterexample.has_value()},
      {audit.completeness.progress, true, false},
      {audit.maximal.progress, true, false},
      {audit.policy_compare.progress, audit.policy_compare.reveals_at_most,
       audit.policy_compare.violation_found},
      {audit.leak.progress, !leaky, leaky}};
  result->exit_code = 0;
  result->status = JobStatus::kCompleted;
  for (const Section& section : sections) {
    result->exit_code = std::max(
        result->exit_code, SectionExit(section.progress, section.clean_verdict, section.witness));
    const JobStatus status = SectionStatus(section.progress);
    if (static_cast<int>(status) > static_cast<int>(result->status)) {
      result->status = status;
    }
  }
}

// PrepareJob, one span per layer call. nullopt for a spec that does not
// prepare (the benchmark's workloads always do).
std::optional<secpol::PreparedJob> PrepareTraced(Tracer& tracer, const CheckJobSpec& spec,
                                                 int job, int pass) {
  SpanScope prepare(tracer, "job.prepare", job, pass);
  secpol::Result<secpol::SourceProgram> parsed = secpol::Error{""};
  {
    SpanScope span(tracer, "flowlang.parse", job, pass);
    parsed = secpol::ParseProgram(spec.program_text);
  }
  if (!parsed.ok()) {
    return std::nullopt;
  }
  std::optional<Program> program;
  {
    SpanScope span(tracer, "flowlang.lower", job, pass);
    program.emplace(secpol::Lower(parsed.value()));
  }
  {
    // PrepareJob builds both mechanisms once to validate the recipe.
    SpanScope span(tracer, "job.validate_build", job, pass);
    std::string error;
    if (secpol::MakeMechanismKind(spec.mechanism, *program, spec.allow, spec.exec_mode, &error) ==
        nullptr) {
      return std::nullopt;
    }
    if ((spec.checker == secpol::CheckerKind::kCompleteness ||
         spec.checker == secpol::CheckerKind::kAudit) &&
        secpol::MakeMechanismKind(spec.mechanism2, *program, spec.allow, spec.exec_mode,
                                  &error) == nullptr) {
      return std::nullopt;
    }
  }
  SpanScope span(tracer, "job.cache_key", job, pass);
  InputDomain domain = InputDomain::Range(program->num_inputs(), spec.grid_lo, spec.grid_hi);
  const secpol::Fingerprint key = secpol::JobCacheKey(spec, *program, domain);
  return secpol::PreparedJob{std::move(*program), std::move(domain), key};
}

JobResult FromCache(const CheckJobSpec& spec, const secpol::PreparedJob& prepared,
                    secpol::CachedResult hit) {
  JobResult slot;
  slot.id = spec.id;
  slot.status = JobStatus::kCompleted;
  slot.from_cache = true;
  slot.report = std::move(hit.report);
  slot.exit_code = hit.exit_code;
  slot.evaluated = hit.evaluated;
  slot.total = hit.total;
  slot.cache_key = prepared.key.ToHex();
  return slot;
}

secpol::CachedResult ToCache(const JobResult& slot) {
  secpol::CachedResult value;
  value.report = slot.report;
  value.exit_code = slot.exit_code;
  value.evaluated = slot.evaluated;
  value.total = slot.total;
  return value;
}

std::optional<CheckJobSpec> DecodeSubmit(const std::string& payload) {
  secpol::Json::Limits limits;
  secpol::Result<Json> parsed = Json::Parse(payload, limits);
  if (!parsed.ok()) {
    return std::nullopt;
  }
  secpol::Result<secpol::ServeRequest> request = secpol::ParseServeRequest(parsed.value());
  if (!request.ok()) {
    return std::nullopt;
  }
  CheckJobSpec spec;
  if (!secpol::ApplyManifestJobFields(request.value().job, "submit.job", &spec,
                                      secpol::JobFieldSource::kUntrustedSubmission)
           .ok()) {
    return std::nullopt;
  }
  return spec;
}

std::string EncodeResult(const JobResult& slot, Json job_json) {
  return secpol::EncodeFrame(secpol::MakeAcceptedFrame(slot.id, 1, 1)) +
         secpol::EncodeFrame(secpol::MakeResultFrame(slot.id, 1, 1, std::move(job_json)));
}

JobResult Invalid(const std::string& id) {
  JobResult result;
  result.id = id;
  result.status = JobStatus::kInvalid;
  result.error = "did not prepare";
  return result;
}

// Best-of-`reps` seconds of fn().
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double start = WallSeconds();
    fn();
    best = std::min(best, WallSeconds() - start);
  }
  return best;
}

}  // namespace

const std::vector<std::string>& ReducerNames() {
  static const std::vector<std::string> names = {"soundness", "integrity", "completeness",
                                                 "maximal",   "policy_compare", "leak"};
  return names;
}

JobResult ReplayBatchJob(Tracer& tracer, const CheckJobSpec& spec, secpol::ResultCache& cache,
                         int job, int pass) {
  SpanScope root(tracer, "job", job, pass);
  std::optional<secpol::PreparedJob> prepared = PrepareTraced(tracer, spec, job, pass);
  if (!prepared.has_value()) {
    return Invalid(spec.id);
  }
  {
    SpanScope span(tracer, "result_cache.lookup", job, pass);
    if (std::optional<secpol::CachedResult> hit = cache.Lookup(prepared->key)) {
      return FromCache(spec, *prepared, std::move(*hit));
    }
  }

  JobResult result;
  {
    SpanScope execute(tracer, "job.execute", job, pass);
    result.id = spec.id;
    result.cache_key = prepared->key.ToHex();
    result.total = prepared->domain.size();
    CheckOptions options;
    options.num_threads = spec.num_threads;
    const Observability obs =
        spec.observe_time ? Observability::kValueAndTime : Observability::kValueOnly;
    std::unique_ptr<ProtectionMechanism> mechanism;
    std::unique_ptr<ProtectionMechanism> mechanism2;
    {
      SpanScope span(tracer, "job.mechanism_build", job, pass);
      std::string error;
      mechanism = secpol::MakeMechanismKind(spec.mechanism, prepared->program, spec.allow,
                                            spec.exec_mode, &error);
      mechanism2 = secpol::MakeMechanismKind(spec.mechanism2, prepared->program, spec.allow,
                                             spec.exec_mode, &error);
    }
    const AllowPolicy policy(prepared->program.num_inputs(), spec.allow);
    const AllowPolicy policy2(prepared->program.num_inputs(), spec.allow2);
    OutcomeTableSources sources;
    sources.mechanism = mechanism.get();
    sources.mechanism2 = mechanism2.get();
    sources.policy = &policy;
    sources.policy2 = &policy2;
    std::optional<OutcomeTable> table;
    {
      SpanScope span(tracer, "outcome_table.build", job, pass);
      table.emplace(secpol::BuildOutcomeTable(sources, prepared->domain, options));
    }
    if (!table->complete()) {
      result.status = JobStatus::kAborted;
      return result;
    }
    secpol::AuditReport audit;
    {
      SpanScope span(tracer, "reduce.soundness", job, pass);
      audit.soundness = secpol::CheckSoundness(*table, obs, options);
    }
    {
      SpanScope span(tracer, "reduce.integrity", job, pass);
      audit.integrity = secpol::CheckInformationPreservation(*table, obs, options);
    }
    {
      SpanScope span(tracer, "reduce.completeness", job, pass);
      audit.completeness = secpol::CompareCompleteness(*table, options);
    }
    {
      SpanScope span(tracer, "reduce.maximal", job, pass);
      audit.maximal = secpol::SynthesizeMaximalMechanism(*table, obs, options);
    }
    {
      SpanScope span(tracer, "reduce.policy_compare", job, pass);
      audit.policy_compare = secpol::ComparePolicyDisclosure(*table, options);
    }
    {
      SpanScope span(tracer, "reduce.leak", job, pass);
      audit.leak = secpol::MeasureLeak(*table, obs, options);
    }
    SpanScope span(tracer, "job.render", job, pass);
    const InputDomain& domain = prepared->domain;
    result.report =
        Header(mechanism->name(), "for", policy.name(), domain, obs) +
        audit.soundness.ToString() + "\n" +
        Header(mechanism->name(), "preserving", policy.name(), domain, obs) +
        audit.integrity.ToString() + "\n" +
        Header(mechanism->name(), "vs", mechanism2->name(), domain, std::nullopt) +
        audit.completeness.ToString() + "\n" + Header("maximal", "for", policy.name(), domain, obs) +
        secpol::RenderMaximalReport(audit.maximal) + "\n" +
        Header(policy.name(), "reveals-at-most", policy2.name(), domain, std::nullopt) +
        audit.policy_compare.ToString() + "\n" +
        Header(mechanism->name(), "for", policy.name(), domain, obs) + audit.leak.ToString() +
        "\n";
    audit.shared = true;
    audit.tabulation = table->build();
    SetAuditOutcome(audit, &result);
    result.evaluated = audit.EvaluatedPoints();
  }
  SpanScope span(tracer, "result_cache.insert", job, pass);
  cache.Insert(prepared->key, ToCache(result));
  return result;
}

JobResult ReplayServeJob(Tracer& tracer, const std::string& payload, secpol::ResultCache& cache,
                         secpol::ClassMemo& memo, int job, int pass, bool* hit) {
  SpanScope root(tracer, "job", job, pass);
  std::optional<CheckJobSpec> spec;
  {
    SpanScope span(tracer, "protocol.decode", job, pass);
    spec = DecodeSubmit(payload);
  }
  if (!spec.has_value()) {
    return Invalid("");
  }
  std::optional<secpol::PreparedJob> prepared = PrepareTraced(tracer, *spec, job, pass);
  if (!prepared.has_value()) {
    return Invalid(spec->id);
  }
  JobResult slot;
  std::optional<secpol::CachedResult> cached;
  {
    SpanScope span(tracer, "result_cache.lookup", job, pass);
    cached = cache.Lookup(prepared->key);
  }
  *hit = cached.has_value();
  if (cached.has_value()) {
    slot = FromCache(*spec, *prepared, std::move(*cached));
  } else {
    {
      SpanScope span(tracer, "job.execute", job, pass);
      slot = secpol::RunPreparedJob(*spec, *prepared, secpol::ObsContext(), &memo);
    }
    if (slot.status == JobStatus::kCompleted) {
      SpanScope span(tracer, "result_cache.insert", job, pass);
      cache.Insert(prepared->key, ToCache(slot));
    }
  }
  Json job_json;
  {
    SpanScope span(tracer, "job.render", job, pass);
    job_json = secpol::JobResultToJson(slot);
  }
  SpanScope span(tracer, "protocol.encode", job, pass);
  EncodeResult(slot, std::move(job_json));
  return slot;
}

void ProbeJob(const CheckJobSpec& spec, int reps, Tallies* tallies) {
  secpol::Result<secpol::PreparedJob> prepared = secpol::PrepareJob(spec);
  if (!prepared.ok()) {
    return;
  }
  const Program& program = prepared.value().program;
  const InputDomain& domain = prepared.value().domain;
  const auto points = static_cast<double>(domain.size());
  const AllowPolicy policy(program.num_inputs(), spec.allow);
  const AllowPolicy policy2(program.num_inputs(), spec.allow2);
  const Observability obs =
      spec.observe_time ? Observability::kValueAndTime : Observability::kValueOnly;
  const auto add = [tallies](const std::string& name, double seconds, double items) {
    Tally& tally = (*tallies)[name];
    tally.seconds += seconds;
    tally.items += items;
  };

  // One column at a time, per exec mode, serially.
  const CheckOptions serial = CheckOptions::Serial();
  for (const char* mode : {"interpreted", "compiled"}) {
    std::string error;
    const auto m = secpol::MakeMechanismKind(spec.mechanism, program, spec.allow, mode, &error);
    const auto m2 = secpol::MakeMechanismKind(spec.mechanism2, program, spec.allow, mode, &error);
    for (const auto& [column, mechanism] :
         {std::pair<const char*, const ProtectionMechanism*>{"M", m.get()}, {"M2", m2.get()}}) {
      OutcomeTableSources sources;
      sources.mechanism = mechanism;
      add(std::string("outcome_table.") + column + "." + mode,
          BestOf(reps, [&] { secpol::BuildOutcomeTable(sources, domain, serial); }), points);
    }
    std::vector<secpol::PolicyImage> images(domain.size());
    std::vector<secpol::PolicyImage> images2(domain.size());
    add(std::string("outcome_table.images.") + mode, BestOf(reps, [&] {
          std::size_t rank = 0;
          domain.ForEach([&](secpol::InputView input) {
            images[rank] = policy.Image(input);
            images2[rank] = policy2.Image(input);
            ++rank;
          });
        }),
        points);
  }

  // All columns and all six reducers at one and at two threads.
  std::string error;
  const auto m =
      secpol::MakeMechanismKind(spec.mechanism, program, spec.allow, spec.exec_mode, &error);
  const auto m2 =
      secpol::MakeMechanismKind(spec.mechanism2, program, spec.allow, spec.exec_mode, &error);
  OutcomeTableSources sources;
  sources.mechanism = m.get();
  sources.mechanism2 = m2.get();
  sources.policy = &policy;
  sources.policy2 = &policy2;
  for (int threads : {1, 2}) {
    const CheckOptions options = CheckOptions::Threads(threads);
    const std::string suffix = threads == 1 ? ".1t" : ".2t";
    add("sweep.tabulate" + suffix,
        BestOf(reps, [&] { secpol::BuildOutcomeTable(sources, domain, options); }), 1.0);
    const OutcomeTable table = secpol::BuildOutcomeTable(sources, domain, options);
    const std::vector<std::function<void()>> reducers = {
        [&] { secpol::CheckSoundness(table, obs, options); },
        [&] { secpol::CheckInformationPreservation(table, obs, options); },
        [&] { secpol::CompareCompleteness(table, options); },
        [&] { secpol::SynthesizeMaximalMechanism(table, obs, options); },
        [&] { secpol::ComparePolicyDisclosure(table, options); },
        [&] { secpol::MeasureLeak(table, obs, options); }};
    double all = 0.0;
    for (std::size_t r = 0; r < reducers.size(); ++r) {
      const double seconds = BestOf(reps, reducers[r]);
      all += seconds;
      if (threads == 1) {
        add("reduce." + ReducerNames()[r], seconds, points);
      }
    }
    add("sweep.reduce" + suffix, all, 1.0);
  }

  add("compiled.compile",
      BestOf(reps, [&] { secpol::CompileSurveillance(program, spec.allow); }), 1.0);

  secpol::ClassPartition partition;
  add("classes.partition",
      BestOf(reps, [&] { partition = secpol::BuildClassPartition(domain, policy); }), 1.0);
  const secpol::ProgramDigestTree tree = program.DigestTree();
  secpol::ClassBuildStats stats;
  secpol::ClassSweepContext context;
  context.partition = &partition;
  context.program_tree = &tree;
  context.stats = &stats;
  OutcomeTableSources class_sources;
  class_sources.mechanism = m.get();
  class_sources.policy = &policy;
  secpol::BuildOutcomeTableWithClasses(class_sources, domain, context, serial);
  add("classes.certified", 0.0, static_cast<double>(stats.certified_classes));
  add("classes.multi_member", 0.0, static_cast<double>(stats.multi_member_classes));

  // The job's frames on the daemon side: decode the submit frame, render and
  // encode the result frame.
  Json submit = Json::MakeObject();
  submit.Set("type", Json::MakeString("submit"));
  submit.Set("job", secpol::CheckJobSpecToJson(spec));
  const std::string payload = submit.Serialize();
  add("protocol.decode", BestOf(reps, [&] { DecodeSubmit(payload); }), 1.0);
  const JobResult result = secpol::RunPreparedJob(spec, prepared.value());
  Json job_json;
  add("job.render_json", BestOf(reps, [&] { job_json = secpol::JobResultToJson(result); }), 1.0);
  add("protocol.encode", BestOf(reps, [&] { EncodeResult(result, job_json); }), 1.0);
}

}  // namespace perfbench
