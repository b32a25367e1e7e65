// The benchmark's correctness oracle.
//
// A job counts as failed unless all three hold:
//   1. it completed;
//   2. its exit code and report bytes equal the same job run on the
//      reference path (interpreted, point sweep, one thread), run outside
//      every timed span;
//   3. every surveillance soundness section reads SOUND. This last check
//      does not rely on the code under test: Jones & Lipton's Theorem 3 says
//      surveillance is sound for allow(J) under value-only observation.
// Serve results additionally carry the batch rendering's deterministic
// fields byte for byte (everything except wall_ms and from_cache).

#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstddef>
#include <string>

#include "src/service/job.h"
#include "src/util/json.h"

namespace perfbench {

// `text` with every occurrence of `from` replaced by `to`.
std::string Rename(std::string text, const std::string& from, const std::string& to);

// Empty when the report's soundness section (soundness and audit jobs over
// the surveillance mechanism) reads SOUND, or when the job has none;
// otherwise the reason.
std::string CheckTheorem3(const secpol::CheckJobSpec& spec, const std::string& report);

// Empty when `got` (a job whose program is named `got_name`) passes against
// `reference` (the same job on the reference path, program named
// `reference_name`); otherwise the reason.
std::string CheckAgainstReference(const secpol::CheckJobSpec& spec, const secpol::JobResult& got,
                                  const secpol::JobResult& reference,
                                  const std::string& reference_name,
                                  const std::string& got_name);

// Hash of a rendered job result's deterministic fields: everything but
// wall_ms and from_cache. A result frame's "job" object passes when its
// digest equals the batch rendering's (JobResultToJson).
std::size_t DeterministicDigest(const secpol::Json& job);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
