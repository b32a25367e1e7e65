#include "src/service/manifest.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/mechanism/fault.h"

namespace secpol {

namespace {

// Field-level helpers: every accessor takes a `where` prefix ("jobs[3]")
// so errors name the offending spot.

Result<std::int64_t> IntField(const Json& object, const std::string& key,
                              const std::string& where, std::int64_t fallback) {
  const Json* field = object.Find(key);
  if (field == nullptr) {
    return fallback;
  }
  if (!field->is_int()) {
    return Error{where + "." + key + ": expected an integer"};
  }
  return field->AsInt();
}

Result<bool> BoolField(const Json& object, const std::string& key, const std::string& where,
                       bool fallback) {
  const Json* field = object.Find(key);
  if (field == nullptr) {
    return fallback;
  }
  if (!field->is_bool()) {
    return Error{where + "." + key + ": expected a boolean"};
  }
  return field->AsBool();
}

Result<std::string> StringField(const Json& object, const std::string& key,
                                const std::string& where, std::string fallback) {
  const Json* field = object.Find(key);
  if (field == nullptr) {
    return fallback;
  }
  if (!field->is_string()) {
    return Error{where + "." + key + ": expected a string"};
  }
  return field->AsString();
}

const CheckJobSpec& DefaultSpec() {
  static const CheckJobSpec spec;
  return spec;
}

// Row accessors, one get/set pair per member type.
template <auto member>
Json GetText(const CheckJobSpec& spec) {
  return Json::MakeString(spec.*member);
}
template <auto member>
void SetText(const Json& value, CheckJobSpec* spec) {
  spec->*member = value.AsString();
}
template <auto member>
Json GetInt(const CheckJobSpec& spec) {
  return Json::MakeInt(spec.*member);
}
template <auto member>
void SetInt(const Json& value, CheckJobSpec* spec) {
  spec->*member = static_cast<std::remove_reference_t<decltype(spec->*member)>>(value.AsInt());
}
template <auto member>
Json GetBool(const CheckJobSpec& spec) {
  return Json::MakeBool(spec.*member);
}
template <auto member>
void SetBool(const Json& value, CheckJobSpec* spec) {
  spec->*member = value.AsBool();
}
template <auto member>
Json GetInputs(const CheckJobSpec& spec) {
  Json array = Json::MakeArray();
  (spec.*member).ForEachIndex([&array](int index) { array.Append(Json::MakeInt(index)); });
  return array;
}
template <auto member>
void SetInputs(const Json& value, CheckJobSpec* spec) {
  VarSet set;
  for (const Json& index : value.Items()) {
    set.Insert(static_cast<int>(index.AsInt()));
  }
  spec->*member = set;
}
Json GetGrid(const CheckJobSpec& spec) {
  Json grid = Json::MakeObject();
  grid.Set("lo", Json::MakeInt(spec.grid_lo));
  grid.Set("hi", Json::MakeInt(spec.grid_hi));
  return grid;
}
// A manifest may give one bound alone; the other keeps its current value.
void SetGrid(const Json& value, CheckJobSpec* spec) {
  if (const Json* lo = value.Find("lo"); lo != nullptr) {
    spec->grid_lo = lo->AsInt();
  }
  if (const Json* hi = value.Find("hi"); hi != nullptr) {
    spec->grid_hi = hi->AsInt();
  }
}
Json GetChecker(const CheckJobSpec& spec) {
  return Json::MakeString(CheckerKindName(spec.checker));
}
void SetChecker(const Json& value, CheckJobSpec* spec) {
  spec->checker = *ParseCheckerKind(value.AsString());
}

std::vector<std::string> CheckerNames() {
  std::vector<std::string> names;
  for (int kind = 0; kind <= static_cast<int>(CheckerKind::kAudit); ++kind) {
    names.push_back(CheckerKindName(static_cast<CheckerKind>(kind)));
  }
  return names;
}

const JobField* FindJobKey(const std::string& key) {
  for (const JobField& field : JobFields()) {
    if (key == field.key) {
      return &field;
    }
  }
  return nullptr;
}

// Why `value` cannot be stored in `field`, or nullopt when it can. This is
// the one place the table's types, ranges and word lists are checked. `cli`
// phrases the accepted form as the flag's text, which cannot name a default
// outside [min, max]: the CLI leaves the flag out instead.
std::optional<std::string> Reject(const JobField& field, const Json& value, bool cli) {
  switch (field.type) {
    case JobFieldType::kText:
    case JobFieldType::kFile:
      return value.is_string() ? std::nullopt : std::optional<std::string>("expected a string");
    case JobFieldType::kWord: {
      if (value.is_string() &&
          std::find(field.words.begin(), field.words.end(), value.AsString()) !=
              field.words.end()) {
        return std::nullopt;
      }
      std::string expected = "expected ";
      for (std::size_t i = 0; i < field.words.size(); ++i) {
        expected += (i == 0 ? "" : i + 1 == field.words.size() ? " or " : ", ") + field.words[i];
      }
      if (cli || !value.is_string()) {
        return expected;
      }
      return "unknown " + std::string(field.key) + " '" + value.AsString() + "' (" + expected +
             ")";
    }
    case JobFieldType::kInt: {
      if (value.is_int() && value.AsInt() >= field.min && value.AsInt() <= field.max) {
        return std::nullopt;
      }
      const std::int64_t unset = field.get(DefaultSpec()).AsInt();
      if (!cli && field.unset != nullptr && value.is_int() && value.AsInt() == unset) {
        return std::nullopt;
      }
      std::string expected = "expected an integer in [" + std::to_string(field.min) + ", " +
                             std::to_string(field.max) + "]";
      if (!cli && field.unset != nullptr) {
        expected += ", or " + std::to_string(unset) + " for " + field.unset;
      }
      return expected;
    }
    case JobFieldType::kBool:
      if (value.is_bool()) {
        return std::nullopt;
      }
      return cli ? "takes no value" : "expected a boolean";
    case JobFieldType::kInputSet: {
      const auto in_range = [](const Json& index) {
        return index.is_int() && index.AsInt() >= 0 && index.AsInt() <= VarSet::kMaxIndex;
      };
      if (value.is_array() && std::all_of(value.Items().begin(), value.Items().end(), in_range)) {
        return std::nullopt;
      }
      return std::string(cli ? "expected comma-separated input indices"
                             : "expected an array of input indices") +
             " in [0, " + std::to_string(VarSet::kMaxIndex) + "]";
    }
    case JobFieldType::kGrid: {
      const auto is_bound = [](const auto& member) {
        return (member.first == "lo" || member.first == "hi") && member.second.is_int();
      };
      if (!value.is_object() ||
          !std::all_of(value.Members().begin(), value.Members().end(), is_bound)) {
        return cli ? "expected lo:hi" : "expected an object {\"lo\": L, \"hi\": H}";
      }
      // A bound given alone is checked against the other once PrepareJob
      // sees the whole spec.
      const Json* lo = value.Find("lo");
      const Json* hi = value.Find("hi");
      if (lo != nullptr && hi != nullptr && lo->AsInt() > hi->AsInt()) {
        return "lo " + std::to_string(lo->AsInt()) + " exceeds hi " + std::to_string(hi->AsInt());
      }
      return std::nullopt;
    }
    case JobFieldType::kFaultSpec: {
      if (!value.is_string()) {
        return "expected a string";
      }
      if (value.AsString().empty()) {
        return std::nullopt;
      }
      const Result<std::vector<FaultSpec>> faults = ParseFaultSpecs(value.AsString());
      return faults.ok() ? std::nullopt : std::optional<std::string>(faults.error().ToString());
    }
  }
  return "unknown field type";
}

// The JSON value a CLI flag's text spells. Text that does not parse as the
// field's type stays a string, which Reject then refuses.
Json IntJson(std::string_view text) {
  std::int64_t value = 0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc() || end != text.data() + text.size()) {
    return Json::MakeString(std::string(text));
  }
  return Json::MakeInt(value);
}

Json FlagJson(const JobField& field, const std::string& text) {
  switch (field.type) {
    case JobFieldType::kInt:
      return IntJson(text);
    case JobFieldType::kBool:
      return text.empty() ? Json::MakeBool(true) : Json::MakeString(text);
    case JobFieldType::kInputSet: {
      Json indices = Json::MakeArray();
      for (std::size_t start = 0; !text.empty() && start <= text.size();) {
        const std::size_t comma = std::min(text.find(',', start), text.size());
        indices.Append(IntJson(std::string_view(text).substr(start, comma - start)));
        start = comma + 1;
      }
      return indices;
    }
    case JobFieldType::kGrid: {
      const std::size_t colon = text.find(':');
      if (colon == std::string::npos) {
        return Json::MakeString(text);
      }
      Json grid = Json::MakeObject();
      grid.Set("lo", IntJson(std::string_view(text).substr(0, colon)));
      grid.Set("hi", IntJson(std::string_view(text).substr(colon + 1)));
      return grid;
    }
    default:
      return Json::MakeString(text);
  }
}

}  // namespace

const std::vector<JobField>& JobFields() {
  using S = CheckJobSpec;
  using T = JobFieldType;
  // "mechanism" and "mechanism2" stay free text here: MakeMechanismKind,
  // which PrepareJob calls, owns that vocabulary.
  static const std::vector<JobField> fields = {
      {.key = "id", .get = GetText<&S::id>, .set = SetText<&S::id>, .omit_default = true},
      {.key = "checker", .type = T::kWord, .get = GetChecker, .set = SetChecker,
       .words = CheckerNames()},
      {.key = "program", .get = GetText<&S::program_text>, .set = SetText<&S::program_text>},
      {.key = "program_file", .type = T::kFile, .set = SetText<&S::program_text>,
       .local_only = true},
      {.key = "allow", .flag = "allow", .type = T::kInputSet, .get = GetInputs<&S::allow>,
       .set = SetInputs<&S::allow>},
      {.key = "allow2", .flag = "allow2", .type = T::kInputSet, .get = GetInputs<&S::allow2>,
       .set = SetInputs<&S::allow2>},
      {.key = "mechanism", .flag = "mechanism", .get = GetText<&S::mechanism>,
       .set = SetText<&S::mechanism>},
      {.key = "mechanism2", .flag = "mechanism2", .get = GetText<&S::mechanism2>,
       .set = SetText<&S::mechanism2>},
      {.key = "grid", .flag = "grid", .type = T::kGrid, .get = GetGrid, .set = SetGrid},
      {.key = "observe_time", .flag = "time", .type = T::kBool,
       .get = GetBool<&S::observe_time>, .set = SetBool<&S::observe_time>},
      // 0 = one worker per hardware thread.
      {.key = "threads", .flag = "threads", .type = T::kInt, .get = GetInt<&S::num_threads>,
       .set = SetInt<&S::num_threads>, .min = 0, .max = 4096},
      // The bound keeps the steady-clock deadline (in nanoseconds) from
      // overflowing; 2^40 ms is about 35 years.
      {.key = "deadline_ms", .flag = "deadline-ms", .type = T::kInt,
       .get = GetInt<&S::deadline_ms>, .set = SetInt<&S::deadline_ms>, .min = 1,
       .max = std::int64_t{1} << 40, .unset = "unbounded"},
      {.key = "priority", .type = T::kInt, .get = GetInt<&S::priority>,
       .set = SetInt<&S::priority>, .min = std::numeric_limits<int>::min(),
       .max = std::numeric_limits<int>::max()},
      {.key = "fault_spec", .flag = "fault-spec", .type = T::kFaultSpec,
       .get = GetText<&S::fault_spec>, .set = SetText<&S::fault_spec>},
      {.key = "retries", .flag = "retries", .type = T::kInt, .get = GetInt<&S::retries>,
       .set = SetInt<&S::retries>, .min = 0, .max = 1000000, .unset = "no retry wrapper"},
      {.key = "sweep_mode", .flag = "sweep-mode", .type = T::kWord,
       .get = GetText<&S::sweep_mode>, .set = SetText<&S::sweep_mode>,
       .words = {"point", "class"}, .omit_default = true},
      {.key = "exec_mode", .flag = "exec-mode", .type = T::kWord,
       .get = GetText<&S::exec_mode>, .set = SetText<&S::exec_mode>,
       .words = {"interpreted", "compiled"}, .omit_default = true},
  };
  return fields;
}

Result<bool> ApplyJobFlag(const JobField& field, const std::string& text, CheckJobSpec* spec) {
  const Json value = FlagJson(field, text);
  if (const std::optional<std::string> reason = Reject(field, value, /*cli=*/true)) {
    return Error{"bad --" + std::string(field.flag) + " value '" + text + "' (" + *reason + ")"};
  }
  field.set(value, spec);
  return true;
}

Result<bool> ValidateJobFields(const CheckJobSpec& spec) {
  for (const JobField& field : JobFields()) {
    // Free text, input sets and booleans hold any value the spec can.
    if (field.type == JobFieldType::kText || field.type == JobFieldType::kInputSet ||
        field.type == JobFieldType::kBool || field.get == nullptr) {
      continue;
    }
    if (const std::optional<std::string> reason = Reject(field, field.get(spec), false)) {
      return Error{std::string(field.key) + ": " + *reason};
    }
  }
  return true;
}

Result<bool> ApplyManifestJobFields(const Json& object, const std::string& where,
                                    CheckJobSpec* spec, JobFieldSource source) {
  for (const auto& [key, value] : object.Members()) {
    if (FindJobKey(key) == nullptr) {
      return Error{where + ": unknown key '" + key + "'"};
    }
  }
  // Table order, not the object's: "program_file" overrides "program".
  for (const JobField& field : JobFields()) {
    const Json* value = object.Find(field.key);
    if (value == nullptr) {
      continue;
    }
    const auto fail = [&](const std::string& why) {
      return Error{where + "." + field.key + ": " + why};
    };
    // "program_file" opens a path with this process's privileges. For a local
    // manifest that is the operator reading their own files; for a socket
    // submission it would let any client read (or probe for) files on the
    // daemon host, so the key is refused before its value is even looked at.
    if (field.local_only && source == JobFieldSource::kUntrustedSubmission) {
      return fail(
          "server-side file loading is not available for socket submissions; inline the "
          "source via 'program'");
    }
    if (const std::optional<std::string> reason = Reject(field, *value, /*cli=*/false)) {
      return fail(*reason);
    }
    if (field.type != JobFieldType::kFile) {
      field.set(*value, spec);
    } else if (!value->AsString().empty()) {
      std::ifstream stream(value->AsString());
      if (!stream) {
        return fail("cannot open '" + value->AsString() + "'");
      }
      std::stringstream buffer;
      buffer << stream.rdbuf();
      field.set(Json::MakeString(buffer.str()), spec);
    }
  }
  return true;
}

Result<BatchManifest> ParseBatchManifest(const std::string& text) {
  Result<Json> doc = Json::Parse(text);
  if (!doc.ok()) {
    return Error{"manifest: " + doc.error().ToString()};
  }
  if (!doc.value().is_object()) {
    return Error{"manifest: top level must be an object"};
  }
  BatchManifest manifest;

  if (const Json* service = doc.value().Find("service"); service != nullptr) {
    if (!service->is_object()) {
      return Error{"manifest.service: expected an object"};
    }
    for (const auto& [key, value] : service->Members()) {
      if (key != "concurrency" && key != "max_pending" && key != "cache_capacity" &&
          key != "cache_shards" && key != "cache_file" && key != "metrics") {
        return Error{"manifest.service: unknown key '" + key + "'"};
      }
    }
    Result<std::int64_t> concurrency =
        IntField(*service, "concurrency", "manifest.service", manifest.service.concurrency);
    if (!concurrency.ok()) return concurrency.error();
    if (concurrency.value() < 0) {
      return Error{"manifest.service.concurrency: must be >= 0 (0 = hardware threads)"};
    }
    manifest.service.concurrency = static_cast<int>(concurrency.value());

    Result<std::int64_t> max_pending =
        IntField(*service, "max_pending", "manifest.service", manifest.service.max_pending);
    if (!max_pending.ok()) return max_pending.error();
    if (max_pending.value() < 0) {
      return Error{"manifest.service.max_pending: must be >= 0"};
    }
    manifest.service.max_pending = static_cast<int>(max_pending.value());

    Result<std::int64_t> capacity =
        IntField(*service, "cache_capacity", "manifest.service",
                 static_cast<std::int64_t>(manifest.service.cache_capacity));
    if (!capacity.ok()) return capacity.error();
    if (capacity.value() < 1) {
      return Error{"manifest.service.cache_capacity: must be >= 1"};
    }
    manifest.service.cache_capacity = static_cast<std::size_t>(capacity.value());

    Result<std::int64_t> shards = IntField(*service, "cache_shards", "manifest.service",
                                           manifest.service.cache_shards);
    if (!shards.ok()) return shards.error();
    if (shards.value() < 1) {
      return Error{"manifest.service.cache_shards: must be >= 1"};
    }
    manifest.service.cache_shards = static_cast<int>(shards.value());

    Result<std::string> cache_file = StringField(*service, "cache_file", "manifest.service",
                                                 manifest.service.cache_file);
    if (!cache_file.ok()) return cache_file.error();
    manifest.service.cache_file = std::move(cache_file).value();

    // Opt-in metrics block in the batch report. Default off: the report's
    // JSON shape (and byte content with a pinned cache) predates this flag.
    Result<bool> metrics = BoolField(*service, "metrics", "manifest.service",
                                     manifest.service.report_metrics);
    if (!metrics.ok()) return metrics.error();
    manifest.service.report_metrics = metrics.value();
  }

  CheckJobSpec defaults;
  if (const Json* default_fields = doc.value().Find("defaults"); default_fields != nullptr) {
    if (!default_fields->is_object()) {
      return Error{"manifest.defaults: expected an object"};
    }
    Result<bool> applied = ApplyManifestJobFields(*default_fields, "manifest.defaults", &defaults,
                                                  JobFieldSource::kLocalManifest);
    if (!applied.ok()) return applied.error();
  }

  const Json* jobs = doc.value().Find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    return Error{"manifest.jobs: expected an array of job objects"};
  }
  for (std::size_t i = 0; i < jobs->Items().size(); ++i) {
    const Json& entry = jobs->Items()[i];
    const std::string where = "manifest.jobs[" + std::to_string(i) + "]";
    if (!entry.is_object()) {
      return Error{where + ": expected an object"};
    }
    CheckJobSpec spec = defaults;
    Result<bool> applied =
        ApplyManifestJobFields(entry, where, &spec, JobFieldSource::kLocalManifest);
    if (!applied.ok()) return applied.error();
    if (spec.id.empty()) {
      spec.id = "job-" + std::to_string(i);
    }
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

Json JobResultToJson(const JobResult& job) {
  Json entry = Json::MakeObject();
  entry.Set("id", Json::MakeString(job.id));
  entry.Set("status", Json::MakeString(JobStatusName(job.status)));
  entry.Set("exit_code", Json::MakeInt(job.exit_code));
  entry.Set("from_cache", Json::MakeBool(job.from_cache));
  entry.Set("cache_key", Json::MakeString(job.cache_key));
  entry.Set("evaluated", Json::MakeInt(static_cast<std::int64_t>(job.evaluated)));
  entry.Set("total", Json::MakeInt(static_cast<std::int64_t>(job.total)));
  entry.Set("wall_ms", Json::MakeDouble(job.wall_ms));
  if (!job.error.empty()) {
    entry.Set("error", Json::MakeString(job.error));
  }
  entry.Set("report", Json::MakeString(job.report));
  return entry;
}

Json CheckJobSpecToJson(const CheckJobSpec& spec) {
  Json object = Json::MakeObject();
  for (const JobField& field : JobFields()) {
    if (field.get == nullptr) {
      continue;  // program_file is read at parse time, never rendered
    }
    Json value = field.get(spec);
    // Fields added after the first manifests are left out at their defaults,
    // so renderings (and golden fixtures) that predate them keep their bytes.
    // The round-trip still holds: an absent key leaves the default.
    if (field.omit_default && value.Serialize() == field.get(DefaultSpec()).Serialize()) {
      continue;
    }
    object.Set(field.key, std::move(value));
  }
  return object;
}

Json BatchReportToJson(const BatchReport& report) {
  Json jobs = Json::MakeArray();
  for (const JobResult& job : report.jobs) {
    jobs.Append(JobResultToJson(job));
  }

  const BatchStats& stats = report.stats;
  Json scheduler = Json::MakeObject();
  scheduler.Set("submitted", Json::MakeInt(stats.submitted));
  scheduler.Set("admitted", Json::MakeInt(stats.admitted));
  scheduler.Set("rejected", Json::MakeInt(stats.rejected));
  scheduler.Set("invalid", Json::MakeInt(stats.invalid));
  scheduler.Set("executed", Json::MakeInt(stats.executed));
  scheduler.Set("cache_hits", Json::MakeInt(stats.cache_hits));
  scheduler.Set("completed", Json::MakeInt(stats.completed));
  scheduler.Set("deadline_exceeded", Json::MakeInt(stats.deadline_exceeded));
  scheduler.Set("aborted", Json::MakeInt(stats.aborted));
  scheduler.Set("wall_ms", Json::MakeDouble(stats.wall_ms));

  Json cache = Json::MakeObject();
  cache.Set("hits", Json::MakeInt(static_cast<std::int64_t>(stats.cache.hits)));
  cache.Set("misses", Json::MakeInt(static_cast<std::int64_t>(stats.cache.misses)));
  cache.Set("insertions", Json::MakeInt(static_cast<std::int64_t>(stats.cache.insertions)));
  cache.Set("evictions", Json::MakeInt(static_cast<std::int64_t>(stats.cache.evictions)));
  cache.Set("entries", Json::MakeInt(static_cast<std::int64_t>(stats.cache.entries)));
  cache.Set("preloaded", Json::MakeInt(stats.cache_preloaded));
  if (!stats.cache_load_error.empty()) {
    cache.Set("load_error", Json::MakeString(stats.cache_load_error));
  }

  Json doc = Json::MakeObject();
  doc.Set("jobs", std::move(jobs));
  doc.Set("scheduler", std::move(scheduler));
  doc.Set("cache", std::move(cache));
  if (report.metrics.is_object()) {
    doc.Set("metrics", report.metrics);
  }
  doc.Set("exit_code", Json::MakeInt(report.ExitCode()));
  return doc;
}

}  // namespace secpol
