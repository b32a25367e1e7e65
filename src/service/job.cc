#include "src/service/job.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/channels/timing.h"
#include "src/flowlang/lower.h"
#include "src/flowlang/parser.h"
#include "src/mechanism/check_options.h"
#include "src/mechanism/classes.h"
#include "src/mechanism/completeness.h"
#include "src/mechanism/fault.h"
#include "src/mechanism/integrity.h"
#include "src/mechanism/outcome.h"
#include "src/mechanism/outcome_table.h"
#include "src/mechanism/policy_compare.h"
#include "src/mechanism/soundness.h"
#include "src/service/audit.h"
#include "src/service/manifest.h"
#include "src/staticflow/static_mechanisms.h"
#include "src/surveillance/compiled.h"
#include "src/surveillance/surveillance.h"

namespace secpol {

namespace {

// Exit-code vocabulary shared with `secpol check`: 0 clean verdict,
// 2 failed verdict / genuine witness, 3 deadline without witness, 4 aborted.
int ExitForProgress(const CheckProgress& progress, bool clean_verdict, bool witness) {
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

JobStatus StatusForProgress(const CheckProgress& progress) {
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

// The audit job's status and exit code are the worst of its six sections',
// each section judged exactly as its standalone job would be.
JobStatus WorstAuditStatus(const AuditReport& audit) {
  JobStatus worst = JobStatus::kCompleted;
  const auto fold = [&worst](const CheckProgress& progress) {
    const JobStatus status = StatusForProgress(progress);
    if (static_cast<int>(status) > static_cast<int>(worst)) {
      worst = status;
    }
  };
  fold(audit.soundness.progress);
  fold(audit.integrity.progress);
  fold(audit.completeness.progress);
  fold(audit.maximal.progress);
  fold(audit.policy_compare.progress);
  fold(audit.leak.progress);
  return worst;
}

int WorstAuditExit(const AuditReport& audit) {
  const bool leaky = audit.leak.leaky_classes > 0;
  int worst = 0;
  for (const int code :
       {ExitForProgress(audit.soundness.progress, audit.soundness.sound,
                        audit.soundness.counterexample.has_value()),
        ExitForProgress(audit.integrity.progress, audit.integrity.preserved,
                        audit.integrity.counterexample.has_value()),
        ExitForProgress(audit.completeness.progress, /*clean_verdict=*/true,
                        /*witness=*/false),
        ExitForProgress(audit.maximal.progress, /*clean_verdict=*/true, /*witness=*/false),
        ExitForProgress(audit.policy_compare.progress, audit.policy_compare.reveals_at_most,
                        audit.policy_compare.violation_found),
        ExitForProgress(audit.leak.progress, !leaky, leaky)}) {
    worst = std::max(worst, code);
  }
  return worst;
}

std::string Header(const std::string& subject, const std::string& relation,
                   const std::string& object, const InputDomain& domain,
                   std::optional<Observability> obs) {
  std::string out = subject + " " + relation + " " + object + " over " + domain.ToString();
  if (obs.has_value()) {
    out += " [" + std::string(ObservabilityName(*obs)) + "]";
  }
  out += ":\n";
  return out;
}

}  // namespace

std::string CheckerKindName(CheckerKind kind) {
  switch (kind) {
    case CheckerKind::kSoundness:
      return "soundness";
    case CheckerKind::kIntegrity:
      return "integrity";
    case CheckerKind::kCompleteness:
      return "completeness";
    case CheckerKind::kMaximal:
      return "maximal";
    case CheckerKind::kPolicyCompare:
      return "policy-compare";
    case CheckerKind::kLeak:
      return "leak";
    case CheckerKind::kAudit:
      return "audit";
  }
  return "unknown";
}

std::optional<CheckerKind> ParseCheckerKind(const std::string& name) {
  for (CheckerKind kind :
       {CheckerKind::kSoundness, CheckerKind::kIntegrity, CheckerKind::kCompleteness,
        CheckerKind::kMaximal, CheckerKind::kPolicyCompare, CheckerKind::kLeak,
        CheckerKind::kAudit}) {
    if (CheckerKindName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

std::string JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kCompleted:
      return "completed";
    case JobStatus::kDeadlineExceeded:
      return "deadline exceeded";
    case JobStatus::kAborted:
      return "aborted";
    case JobStatus::kRejected:
      return "rejected";
    case JobStatus::kInvalid:
      return "invalid";
  }
  return "unknown";
}

std::unique_ptr<ProtectionMechanism> MakeMechanismKind(const std::string& kind,
                                                       const Program& program, VarSet allowed,
                                                       const std::string& exec_mode,
                                                       std::string* error) {
  // Under "compiled", the surveillance family swaps in the bytecode fast
  // path (a SurveillanceMechanism subclass: same name, same outcome
  // vocabulary, bit-identical behaviour by the differential suite). Kinds
  // without surveillance shadows have nothing to compile and keep their
  // usual objects, so their reports are identical across exec modes by
  // construction.
  const bool compiled = exec_mode == "compiled";
  const auto make_surveillance =
      [&](TimingMode timing,
          LabelDiscipline discipline) -> std::unique_ptr<SurveillanceMechanism> {
    if (compiled) {
      return std::make_unique<CompiledSurveillanceMechanism>(Program(program), allowed, timing,
                                                             discipline);
    }
    return std::make_unique<SurveillanceMechanism>(Program(program), allowed, timing,
                                                   discipline);
  };
  if (kind == "surveillance" || kind.empty()) {
    return make_surveillance(TimingMode::kTimeUnobservable, LabelDiscipline::kSurveillance);
  }
  if (kind == "mprime") {
    return make_surveillance(TimingMode::kTimeObservable, LabelDiscipline::kSurveillance);
  }
  if (kind == "highwater") {
    return make_surveillance(TimingMode::kTimeUnobservable, LabelDiscipline::kHighWater);
  }
  if (kind == "bare") {
    return std::make_unique<ProgramAsMechanism>(Program(program));
  }
  if (kind == "static") {
    return std::make_unique<StaticCertifiedMechanism>(Program(program), allowed);
  }
  if (kind == "residual") {
    return std::make_unique<ResidualGuardMechanism>(Program(program), allowed);
  }
  if (kind == "table") {
    // The surveillance mechanism tabulated over the canonical {-1..2}^k
    // grid. Checking it on a wider grid runs it outside the table and must
    // fail closed (OutOfDomainError -> kAborted), not kill the process.
    const InputDomain canonical = InputDomain::Range(program.num_inputs(), -1, 2);
    const std::optional<std::uint64_t> points = canonical.CheckedSize();
    constexpr std::uint64_t kMaxTablePoints = std::uint64_t{1} << 16;
    if (!points.has_value() || *points > kMaxTablePoints) {
      if (error != nullptr) {
        *error += "table mechanism: canonical grid too large to tabulate";
      }
      return nullptr;
    }
    const std::unique_ptr<SurveillanceMechanism> live =
        make_surveillance(TimingMode::kTimeUnobservable, LabelDiscipline::kSurveillance);
    auto table = std::make_unique<TableMechanism>("table(" + program.name() + ")",
                                                  program.num_inputs());
    canonical.ForEach([&](InputView input) {
      table->Set(Input(input.begin(), input.end()), live->Run(input));
    });
    return table;
  }
  if (error != nullptr) {
    *error += "unknown mechanism kind '" + kind + "'";
  }
  return nullptr;
}

Fingerprint JobCacheKey(const CheckJobSpec& spec, const Program& program,
                        const InputDomain& domain) {
  Fingerprinter fp;
  fp.Tag("check-job");
  fp.I32(1);  // cache-key format version; bump on any encoding change
  fp.I32(static_cast<int>(spec.checker));
  // The canonical *structure* of the lowered program, not the source text:
  // formatting-only edits to the flowlang source hit the same cache line.
  program.AppendFingerprint(&fp);
  fp.Tag("policy-allow");
  fp.U64(spec.allow.bits());
  fp.Tag("mechanism");
  fp.Str(spec.mechanism);
  fp.Tag("mechanism2");
  fp.Str(spec.mechanism2);
  fp.Tag("policy-allow2");
  fp.U64(spec.allow2.bits());
  // The exact grid, coordinate by coordinate (not just lo:hi — PerInput
  // domains must not collide with Range domains of the same corners).
  fp.Tag("grid");
  fp.I32(domain.num_inputs());
  for (int i = 0; i < domain.num_inputs(); ++i) {
    fp.I64List(domain.values_for(i));
  }
  fp.Bool(spec.observe_time);
  // Fault injection and the retry bound change what the checker observes,
  // so they are part of the job's identity. num_threads / deadline_ms /
  // priority are deliberately absent: the engine's determinism contract
  // makes a *completed* report independent of all three, and only completed
  // runs are cached (see DESIGN.md §9).
  fp.Tag("faults");
  fp.Str(spec.fault_spec);
  fp.I32(spec.retries);
  // Sweep-mode sub-key. "point" contributes NOTHING — every cache key minted
  // before sweep modes existed stays byte-identical (golden-pinned). "class"
  // gets its own cache line even though a completed class report is
  // byte-identical to the point report: the identity is a tested theorem,
  // not an assumption the cache is allowed to bank on, and keeping the lines
  // separate means a regression in the class path can never serve bytes to a
  // point-mode caller.
  if (spec.sweep_mode != "point") {
    fp.Tag("sweep-mode");
    fp.Str(spec.sweep_mode);
  }
  // Exec-mode sub-key, same philosophy: "interpreted" contributes NOTHING
  // (pre-existing cache keys stay byte-identical), and "compiled" gets its
  // own cache line so that a regression in the compiled path can never
  // serve bytes to an interpreted caller even though completed reports are
  // identical by the differential theorem.
  if (spec.exec_mode != "interpreted") {
    fp.Tag("exec-mode");
    fp.Str(spec.exec_mode);
  }
  return fp.Digest();
}

Fingerprint ClassMemoContextKey(const CheckJobSpec& spec, const Program& program,
                                const InputDomain& domain, const std::string& mechanism_kind) {
  Fingerprinter fp;
  fp.Tag("class-memo-context");
  fp.I32(1);  // memo-context format version
  fp.Str(mechanism_kind);
  // The allow set parameterizes every mechanism kind except "bare" (which
  // never consults a policy). Excluding it for bare lets entries survive a
  // policy edit, which is exactly when incremental recheck pays off.
  if (mechanism_kind != "bare" && !mechanism_kind.empty()) {
    fp.Tag("allow");
    fp.U64(spec.allow.bits());
  }
  // The exact grid: FaultInjectingMechanism fires by the input's grid RANK,
  // so the same representative tuple can fault differently on a different
  // grid. Same coordinate-by-coordinate encoding as JobCacheKey.
  fp.Tag("grid");
  fp.I32(domain.num_inputs());
  for (int i = 0; i < domain.num_inputs(); ++i) {
    fp.I64List(domain.values_for(i));
  }
  fp.Tag("faults");
  fp.Str(spec.fault_spec);
  fp.I32(spec.retries);
  // The program's SKELETON only — box contents are deliberately absent.
  // They are revalidated per lookup via TouchedBoxDigest, which is what lets
  // a program edit outside the executed boxes reuse the entry.
  fp.Nested(program.DigestTree().skeleton);
  // Exec-mode sub-key (mirrors JobCacheKey): compiled representatives get
  // their own memo lines, so a compiled-path regression can never feed a
  // memoized outcome to an interpreted job.
  if (spec.exec_mode != "interpreted") {
    fp.Tag("exec-mode");
    fp.Str(spec.exec_mode);
  }
  return fp.Digest();
}

Result<PreparedJob> PrepareJob(const CheckJobSpec& spec) {
  Result<SourceProgram> parsed = ParseProgram(spec.program_text);
  if (!parsed.ok()) {
    return Error{"program: " + parsed.error().ToString()};
  }
  Program program = Lower(parsed.value());
  const int num_inputs = program.num_inputs();
  const VarSet inputs = VarSet::FirstN(num_inputs);
  if (!spec.allow.SubsetOf(inputs)) {
    return Error{"allow: index out of range for " + std::to_string(num_inputs) + " inputs"};
  }
  if ((spec.checker == CheckerKind::kPolicyCompare || spec.checker == CheckerKind::kAudit) &&
      !spec.allow2.SubsetOf(inputs)) {
    return Error{"allow2: index out of range for " + std::to_string(num_inputs) + " inputs"};
  }
  // Ranges and word lists come from the job-field table, which manifests,
  // wire frames and CLI flags are checked against too.
  const Result<bool> fields = ValidateJobFields(spec);
  if (!fields.ok()) {
    return fields.error();
  }
  std::string mech_error;
  if (MakeMechanismKind(spec.mechanism, program, spec.allow, spec.exec_mode, &mech_error) ==
      nullptr) {
    return Error{"mechanism: " + mech_error};
  }
  if (spec.checker == CheckerKind::kCompleteness || spec.checker == CheckerKind::kAudit) {
    mech_error.clear();
    if (MakeMechanismKind(spec.mechanism2, program, spec.allow, spec.exec_mode, &mech_error) ==
        nullptr) {
      return Error{"mechanism2: " + mech_error};
    }
  }
  InputDomain domain = InputDomain::Range(num_inputs, spec.grid_lo, spec.grid_hi);
  const Fingerprint key = JobCacheKey(spec, program, domain);
  return PreparedJob{std::move(program), std::move(domain), key};
}

std::string RenderMaximalReport(const MaximalSynthesis& synthesis) {
  std::string out;
  out += "inputs tabulated: " + std::to_string(synthesis.inputs) + "\n";
  out += "policy classes: " + std::to_string(synthesis.policy_classes) + ", released " +
         std::to_string(synthesis.released_classes) + "\n";
  if (synthesis.mechanism != nullptr) {
    out += "mechanism: " + synthesis.mechanism->name() + " (" +
           std::to_string(synthesis.mechanism->table_size()) + " table entries)\n";
  } else {
    out += "mechanism: none (fail-closed: tabulation incomplete)\n";
  }
  out += "progress: " + synthesis.progress.ToString();
  return out;
}

JobResult RunPreparedJob(const CheckJobSpec& spec, const PreparedJob& prepared,
                         const ObsContext& obs_ctx, ClassMemo* class_memo) {
  JobResult result;
  result.id = spec.id;
  result.cache_key = prepared.key.ToHex();
  result.total = prepared.domain.size();

  CheckOptions options;
  options.num_threads = spec.num_threads;
  options.obs = obs_ctx;
  if (spec.deadline_ms > 0) {
    options.deadline = Deadline::AfterMillis(spec.deadline_ms);
  }
  const Observability obs =
      spec.observe_time ? Observability::kValueAndTime : Observability::kValueOnly;

  // Build the checked mechanism and wrap it in the fault-injection /
  // bounded-retry layers exactly the way `secpol check` does, so the batch
  // service and the standalone CLI check the very same object.
  std::string error;
  auto wrap = [&](std::shared_ptr<const ProtectionMechanism> m)
      -> std::shared_ptr<const ProtectionMechanism> {
    if (!spec.fault_spec.empty()) {
      auto faults = ParseFaultSpecs(spec.fault_spec);
      m = std::make_shared<FaultInjectingMechanism>(std::move(m), prepared.domain,
                                                    std::move(faults).value());
    }
    if (spec.retries >= 0) {
      m = std::make_shared<RetryingMechanism>(std::move(m), spec.retries);
    }
    return m;
  };
  std::shared_ptr<const ProtectionMechanism> mechanism =
      MakeMechanismKind(spec.mechanism, prepared.program, spec.allow, spec.exec_mode, &error);
  if (mechanism == nullptr) {
    result.status = JobStatus::kInvalid;
    result.error = error;
    result.exit_code = 1;
    return result;
  }
  mechanism = wrap(std::move(mechanism));

  const AllowPolicy policy(prepared.program.num_inputs(), spec.allow);

  // Class sweep mode (DESIGN.md §14): partition the grid by the allow-policy
  // image once per job, and route every table-feedable checker through the
  // class-backed build. The partition is sound for EVERY checker — class
  // certification only relies on the representative's read set being
  // class-constant, never on what the partition means to the checker — so
  // one allow(J) partition serves soundness and completeness alike. When the
  // grid exceeds the table cap the job silently degrades to the point path
  // (same fallback the audit uses).
  ClassPartition partition;
  ProgramDigestTree digest_tree;
  ClassBuildStats class_stats;
  ClassSweepContext class_ctx;
  bool use_classes = false;
  if (spec.sweep_mode == "class") {
    const std::optional<std::uint64_t> grid_points = prepared.domain.CheckedSize();
    if (grid_points.has_value() && *grid_points <= OutcomeTable::kMaxPoints) {
      partition = BuildClassPartition(prepared.domain, policy);
    }
    if (!partition.empty()) {
      digest_tree = prepared.program.DigestTree();
      class_ctx.partition = &partition;
      class_ctx.program_tree = &digest_tree;
      class_ctx.stats = &class_stats;
      if (class_memo != nullptr) {
        class_ctx.memo = class_memo;
        class_ctx.memo_context =
            ClassMemoContextKey(spec, prepared.program, prepared.domain, spec.mechanism);
        class_ctx.memo_context2 =
            ClassMemoContextKey(spec, prepared.program, prepared.domain, spec.mechanism2);
      }
      use_classes = true;
    }
  }
  // One class-backed table per single-checker job. An incomplete build is
  // never consumed: the caller fails closed on the build's progress, exactly
  // as the audit does for its shared table.
  const auto class_table = [&](const ProtectionMechanism* second_mechanism,
                               const SecurityPolicy* table_policy) {
    OutcomeTableSources sources;
    sources.mechanism = mechanism.get();
    sources.mechanism2 = second_mechanism;
    sources.policy = table_policy;
    return BuildOutcomeTableWithClasses(sources, prepared.domain, class_ctx, options);
  };

  const auto start = std::chrono::steady_clock::now();
  switch (spec.checker) {
    case CheckerKind::kSoundness: {
      SoundnessReport report;
      if (use_classes) {
        const OutcomeTable table = class_table(nullptr, &policy);
        if (table.complete()) {
          report = CheckSoundness(table, obs, options);
        } else {
          report.sound = false;
          report.inputs_checked = table.build().evaluated;
          report.progress = table.build();
        }
      } else {
        report = CheckSoundness(*mechanism, policy, prepared.domain, obs, options);
      }
      result.report = Header(mechanism->name(), "for", policy.name(), prepared.domain, obs) +
                      report.ToString() + "\n";
      result.status = StatusForProgress(report.progress);
      result.exit_code =
          ExitForProgress(report.progress, report.sound, report.counterexample.has_value());
      result.evaluated = report.progress.evaluated;
      break;
    }
    case CheckerKind::kIntegrity: {
      IntegrityReport report;
      if (use_classes) {
        const OutcomeTable table = class_table(nullptr, &policy);
        if (table.complete()) {
          report = CheckInformationPreservation(table, obs, options);
        } else {
          report.preserved = false;
          report.inputs_checked = table.build().evaluated;
          report.progress = table.build();
        }
      } else {
        report = CheckInformationPreservation(*mechanism, policy, prepared.domain, obs, options);
      }
      result.report =
          Header(mechanism->name(), "preserving", policy.name(), prepared.domain, obs) +
          report.ToString() + "\n";
      result.status = StatusForProgress(report.progress);
      result.exit_code =
          ExitForProgress(report.progress, report.preserved, report.counterexample.has_value());
      result.evaluated = report.progress.evaluated;
      break;
    }
    case CheckerKind::kCompleteness: {
      std::shared_ptr<const ProtectionMechanism> second = MakeMechanismKind(
          spec.mechanism2, prepared.program, spec.allow, spec.exec_mode, &error);
      if (second == nullptr) {
        result.status = JobStatus::kInvalid;
        result.error = error;
        result.exit_code = 1;
        return result;
      }
      second = wrap(std::move(second));
      CompletenessStats stats;
      if (use_classes) {
        const OutcomeTable table = class_table(second.get(), nullptr);
        if (table.complete()) {
          stats = CompareCompleteness(table, options);
        } else {
          stats.progress = table.build();
        }
      } else {
        stats = CompareCompleteness(*mechanism, *second, prepared.domain, options);
      }
      result.report =
          Header(mechanism->name(), "vs", second->name(), prepared.domain, std::nullopt) +
          stats.ToString() + "\n";
      result.status = StatusForProgress(stats.progress);
      // A completeness comparison has no failing verdict; any completed
      // relation is a clean exit.
      result.exit_code = ExitForProgress(stats.progress, /*clean_verdict=*/true,
                                         /*witness=*/false);
      result.evaluated = stats.progress.evaluated;
      break;
    }
    case CheckerKind::kMaximal: {
      MaximalSynthesis synthesis;
      if (use_classes) {
        const OutcomeTable table = class_table(nullptr, &policy);
        if (table.complete()) {
          synthesis = SynthesizeMaximalMechanism(table, obs, options);
        } else {
          synthesis.inputs = table.build().evaluated;
          synthesis.progress = table.build();
        }
      } else {
        synthesis = SynthesizeMaximalMechanism(*mechanism, policy, prepared.domain, obs, options);
      }
      result.report = Header("maximal", "for", policy.name(), prepared.domain, obs) +
                      RenderMaximalReport(synthesis) + "\n";
      result.status = StatusForProgress(synthesis.progress);
      result.exit_code = ExitForProgress(synthesis.progress, /*clean_verdict=*/true,
                                         /*witness=*/false);
      result.evaluated = synthesis.progress.evaluated;
      break;
    }
    case CheckerKind::kPolicyCompare: {
      // Policy comparison never evaluates a mechanism, so the class sweep
      // has nothing to save it; it runs the live path in both sweep modes
      // (the reports are identical either way).
      const AllowPolicy second(prepared.program.num_inputs(), spec.allow2);
      const PolicyCompareReport report =
          ComparePolicyDisclosure(policy, second, prepared.domain, options);
      result.report = Header(policy.name(), "reveals-at-most", second.name(), prepared.domain,
                             std::nullopt) +
                      report.ToString() + "\n";
      result.status = StatusForProgress(report.progress);
      result.exit_code =
          ExitForProgress(report.progress, report.reveals_at_most, report.violation_found);
      result.evaluated = report.progress.evaluated;
      break;
    }
    case CheckerKind::kLeak: {
      LeakReport report;
      if (use_classes) {
        const OutcomeTable table = class_table(nullptr, &policy);
        if (table.complete()) {
          report = MeasureLeak(table, obs, options);
        } else {
          report.progress = table.build();
        }
      } else {
        report = MeasureLeak(*mechanism, policy, prepared.domain, obs, options);
      }
      result.report = Header(mechanism->name(), "for", policy.name(), prepared.domain, obs) +
                      report.ToString() + "\n";
      result.status = StatusForProgress(report.progress);
      // An incomplete run that already saw two outcomes in one class is a
      // genuine leak witness (capacity is a lower bound).
      const bool leaky = report.leaky_classes > 0;
      result.exit_code = ExitForProgress(report.progress, !leaky, leaky);
      result.evaluated = report.progress.evaluated;
      break;
    }
    case CheckerKind::kAudit: {
      std::shared_ptr<const ProtectionMechanism> second = MakeMechanismKind(
          spec.mechanism2, prepared.program, spec.allow, spec.exec_mode, &error);
      if (second == nullptr) {
        result.status = JobStatus::kInvalid;
        result.error = error;
        result.exit_code = 1;
        return result;
      }
      second = wrap(std::move(second));
      const AllowPolicy policy2(prepared.program.num_inputs(), spec.allow2);
      const AuditReport audit =
          CheckAll(*mechanism, *second, policy, policy2, prepared.domain, obs, options,
                   use_classes ? &class_ctx : nullptr);
      // Six sections, each rendered exactly as its standalone job would be —
      // the differential contract is "audit report == the concatenation of
      // the six standalone job reports".
      result.report =
          Header(mechanism->name(), "for", policy.name(), prepared.domain, obs) +
          audit.soundness.ToString() + "\n" +
          Header(mechanism->name(), "preserving", policy.name(), prepared.domain, obs) +
          audit.integrity.ToString() + "\n" +
          Header(mechanism->name(), "vs", second->name(), prepared.domain, std::nullopt) +
          audit.completeness.ToString() + "\n" +
          Header("maximal", "for", policy.name(), prepared.domain, obs) +
          RenderMaximalReport(audit.maximal) + "\n" +
          Header(policy.name(), "reveals-at-most", policy2.name(), prepared.domain,
                 std::nullopt) +
          audit.policy_compare.ToString() + "\n" +
          Header(mechanism->name(), "for", policy.name(), prepared.domain, obs) +
          audit.leak.ToString() + "\n";
      result.status = WorstAuditStatus(audit);
      result.exit_code = WorstAuditExit(audit);
      result.evaluated = audit.EvaluatedPoints();
      break;
    }
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

JobResult ExecuteJob(const CheckJobSpec& spec, const ObsContext& obs, ClassMemo* class_memo) {
  Result<PreparedJob> prepared = PrepareJob(spec);
  if (!prepared.ok()) {
    JobResult result;
    result.id = spec.id;
    result.status = JobStatus::kInvalid;
    result.error = prepared.error().message;
    result.exit_code = 1;
    return result;
  }
  return RunPreparedJob(spec, prepared.value(), obs, class_memo);
}

std::vector<CheckJobSpec> AuditSectionSpecs(const CheckJobSpec& audit) {
  std::vector<CheckJobSpec> specs;
  for (CheckerKind kind :
       {CheckerKind::kSoundness, CheckerKind::kIntegrity, CheckerKind::kCompleteness,
        CheckerKind::kMaximal, CheckerKind::kPolicyCompare, CheckerKind::kLeak}) {
    CheckJobSpec spec = audit;
    spec.id = CheckerKindName(kind);
    spec.checker = kind;
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace secpol
