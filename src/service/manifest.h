// JSON boundary of the batch service: manifest in, batch report out.
//
// A manifest is one JSON object:
//
//   {
//     "service": {                      // optional; ServiceConfig knobs
//       "concurrency": 2, "max_pending": 64,
//       "cache_capacity": 1024, "cache_shards": 8,
//       "cache_file": "secpol_cache.json",
//       "metrics": true                 // opt-in "metrics" report block
//     },
//     "defaults": { ... },              // optional; any per-job field
//     "jobs": [
//       {
//         "id": "logon-soundness",      // optional label
//         "checker": "soundness",       // soundness|integrity|completeness|
//                                       //   maximal|policy-compare|leak|audit
//         "program": "program p(a,b) { y = a; }",   // flowlang source, or
//         "program_file": "path/to/p.fl",           // read at parse time
//         "allow": [0],                 // released input coordinates
//         "allow2": [0, 1],             // policy-compare only
//         "mechanism": "surveillance",  // surveillance|mprime|highwater|
//                                       //   bare|static|residual
//         "mechanism2": "bare",         // completeness only
//         "grid": {"lo": -1, "hi": 2},
//         "observe_time": false,
//         "threads": 1, "deadline_ms": 0, "priority": 0,
//         "fault_spec": "", "retries": -1,
//         "sweep_mode": "point",        // point|class (DESIGN.md §14)
//         "exec_mode": "interpreted"    // interpreted|compiled (DESIGN.md §15)
//       }
//     ]
//   }
//
// Parsing is strict: unknown keys, wrong types, and out-of-range values are
// errors naming the offending job and field, so a typo cannot silently
// select a default. The job keys, their types, ranges and defaults are the
// rows of JobFields() below, which the CLI's job flags read too.

#ifndef SECPOL_SRC_SERVICE_MANIFEST_H_
#define SECPOL_SRC_SERVICE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/service/service.h"
#include "src/util/json.h"
#include "src/util/result.h"

namespace secpol {

struct BatchManifest {
  ServiceConfig service;
  std::vector<CheckJobSpec> jobs;
};

// Parses a manifest document. `text` is the raw JSON.
Result<BatchManifest> ParseBatchManifest(const std::string& text);

// Who authored the job object. Local manifests are written by whoever runs
// the process and may reference files ("program_file" loads server-side at
// parse time); socket submissions are adversary input crossing a trust
// boundary and must never be able to read the daemon's filesystem, so the
// key itself is rejected there.
enum class JobFieldSource { kLocalManifest, kUntrustedSubmission };

// What a job field holds, and how it is spelled in JSON and on the CLI.
enum class JobFieldType {
  kText,       // JSON string; CLI text as given
  kWord,       // JSON string from `words`; CLI the same word
  kInt,        // JSON integer in [min, max]; CLI the same in decimal
  kBool,       // JSON boolean; CLI a flag without a value, meaning true
  kInputSet,   // JSON array of input indices; CLI "0,2" ("" is the empty set)
  kGrid,       // JSON {"lo": L, "hi": H} with L <= H, either bound alone; CLI "L:H"
  kFaultSpec,  // JSON string in the ParseFaultSpecs grammar; CLI the same
  kFile,       // JSON path whose content is read into the bound field
};

// One row of the job vocabulary: a CheckJobSpec field with its JSON key, its
// CLI flag, its type and range, and who may set it. Its default is the
// CheckJobSpec member's initializer.
struct JobField {
  const char* key;             // manifest and wire key
  const char* flag = nullptr;  // CLI flag of the verbs that take it; nullptr if none
  JobFieldType type = JobFieldType::kText;
  Json (*get)(const CheckJobSpec&) = nullptr;  // the field as JSON; nullptr for kFile
  void (*set)(const Json&, CheckJobSpec*) = nullptr;  // stores a checked value
  std::vector<std::string> words = {};  // kWord: the accepted values
  std::int64_t min = 0;                 // kInt: the accepted range
  std::int64_t max = 0;
  // kInt: the meaning of a default that lies outside [min, max]. JSON may
  // send that default explicitly; the CLI says it by leaving the flag out.
  const char* unset = nullptr;
  bool local_only = false;    // only a kLocalManifest source may set it
  bool omit_default = false;  // CheckJobSpecToJson leaves it out at its default
};

// The table, in the key order CheckJobSpecToJson renders.
const std::vector<JobField>& JobFields();

// Parses one CLI flag value for `field` and stores it in `spec`. Errors read
// "bad --<flag> value '<text>' (...)" and name the accepted form.
Result<bool> ApplyJobFlag(const JobField& field, const std::string& text, CheckJobSpec* spec);

// Checks every range and word list of the table against an in-memory spec,
// with errors prefixed by the field's key. PrepareJob runs this for specs
// that never passed through ApplyManifestJobFields or ApplyJobFlag.
Result<bool> ValidateJobFields(const CheckJobSpec& spec);

// Applies one job object's fields over `spec` with manifest-grade strictness
// (unknown keys, wrong types and out-of-range values are errors naming
// `where`). This is the single job-vocabulary entry point: manifest
// "defaults", manifest "jobs[i]" entries, and serve-daemon submit frames all
// validate through it, so a job means the same thing on every path — except
// "program_file", which only a kLocalManifest source may use.
Result<bool> ApplyManifestJobFields(const Json& object, const std::string& where,
                                    CheckJobSpec* spec, JobFieldSource source);

// Renders one job result exactly as it appears in a batch report's "jobs"
// array. The serve daemon's result frames reuse this renderer, which is what
// makes the serve ≡ batch byte-identity contract hold by construction.
Json JobResultToJson(const JobResult& job);

// Renders a spec as a manifest-vocabulary job object (the inverse of
// ApplyManifestJobFields up to defaults). Round-trips: applying the rendered
// object onto a default spec reproduces the original. Used by the scenario
// runner and fuzzer to ship generated jobs over the serve socket.
Json CheckJobSpecToJson(const CheckJobSpec& spec);

// Renders a batch report as a JSON document (per-job results in submission
// order plus scheduler and cache stats).
Json BatchReportToJson(const BatchReport& report);

}  // namespace secpol

#endif  // SECPOL_SRC_SERVICE_MANIFEST_H_
