// The benchmark's seeded workloads.
//
// Every input is derived from the workload seed by the benchmark; the program
// under test only ever sees the generated job specs (in-process) or frames
// (over the daemon's socket), never the seed.
//
//   audit_loop  128 audit jobs, corpus programs with bounded loops over
//               {0..7}^3, one thread each; odd jobs opt in to
//               exec_mode "compiled", even jobs use the defaults.
//   audit_wide  112 audit jobs, loop-free branchy corpus programs over
//               {-4..3}^4, two threads each.
//   serve_mix   a Zipf(s = 1) stream over 4096 small jobs (soundness,
//               integrity, leak and audit over {-1..2}^3, by popularity rank;
//               programs of 700-1000 source bytes); one request in ten
//               resubmits a popular job with an explicit exec_mode "compiled"
//               or sweep_mode "class" override.
//
// Pass salting: a timed run makes whole passes over a fixed job list. Pass p
// renames every program to "<name>_<salt>", which changes the job's cache key
// (the program name is fingerprinted) but not one evaluation, so no cache
// can warm a later pass while every pass does identical work.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/flowlang/ast.h"
#include "src/service/job.h"

namespace perfbench {

enum class WorkloadKind { kAuditLoop, kAuditWide, kServeMix };

std::optional<WorkloadKind> ParseWorkload(const std::string& name);
std::string WorkloadName(WorkloadKind kind);

// One generated job: its program as an AST (the salt carrier) and the spec
// around it, whose program_text renders `source` unsalted.
struct JobTemplate {
  secpol::SourceProgram source;
  secpol::CheckJobSpec spec;
};

// A fixed-width "<prefix>NNNN" tag, used for job ids, program names and
// salts. Fixed width keeps every salted program name unique as a substring,
// which the oracle relies on when it maps a reference report onto a pass.
std::string Tag(const char* prefix, int index);

// `job` with its program renamed to "<name>_<salt>": a distinct cache key,
// identical work.
secpol::CheckJobSpec SaltedSpec(const JobTemplate& job, const std::string& salt);

// `spec` forced onto the reference path: interpreted, point sweep, one
// thread.
secpol::CheckJobSpec ReferenceSpec(secpol::CheckJobSpec spec);

struct AuditWorkload {
  std::vector<JobTemplate> jobs;
  int threads_per_job = 1;
  // Seconds one pass takes on the reference host (4-vCPU x86-64 VM, Release
  // build); a run makes round(seconds / nominal_pass_seconds) passes, so the
  // same --seconds always means the same work.
  double nominal_pass_seconds = 1.0;
};

AuditWorkload MakeAuditLoop(std::uint64_t seed);
AuditWorkload MakeAuditWide(std::uint64_t seed);

// How a serve request relates to its key's base job.
enum class Variant { kBase = 0, kCompiled = 1, kClass = 2 };
inline constexpr int kVariants = 3;

struct ServeMix {
  // The key space: one small job per key, in popularity order (key 0 is the
  // most requested).
  std::vector<JobTemplate> keys;
  // The request stream: spec index = key * kVariants + variant.
  std::vector<int> stream;
};

inline constexpr int kServeKeys = 4096;
inline constexpr int kServeOverridePercent = 10;

// A stream of `requests` requests over the kServeKeys key space.
ServeMix MakeServeMix(std::uint64_t seed, std::size_t requests);

// The spec a serve request submits.
secpol::CheckJobSpec ServeSpec(const ServeMix& mix, int spec_index);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
