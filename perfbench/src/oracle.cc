#include "perfbench/src/oracle.h"

#include <functional>

namespace perfbench {

using secpol::CheckerKind;
using secpol::Json;
using secpol::JobResult;
using secpol::JobStatus;

std::string Rename(std::string text, const std::string& from, const std::string& to) {
  if (from.empty() || from == to) {
    return text;
  }
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

std::string CheckTheorem3(const secpol::CheckJobSpec& spec, const std::string& report) {
  const bool has_section =
      spec.checker == CheckerKind::kSoundness || spec.checker == CheckerKind::kAudit;
  if (!has_section || spec.mechanism != "surveillance" || spec.observe_time) {
    return "";
  }
  // The soundness section is first: a header line, then the verdict.
  const std::size_t eol = report.find('\n');
  if (eol == std::string::npos || report.compare(eol + 1, 6, "SOUND ") != 0) {
    return "surveillance soundness section does not read SOUND (Theorem 3)";
  }
  return "";
}

std::string CheckAgainstReference(const secpol::CheckJobSpec& spec, const JobResult& got,
                                  const JobResult& reference, const std::string& reference_name,
                                  const std::string& got_name) {
  if (got.status != JobStatus::kCompleted) {
    return "status " + secpol::JobStatusName(got.status) + (got.error.empty() ? "" : ": ") +
           got.error;
  }
  if (reference.status != JobStatus::kCompleted) {
    return "reference run status " + secpol::JobStatusName(reference.status);
  }
  if (got.exit_code != reference.exit_code) {
    return "exit code " + std::to_string(got.exit_code) + " != reference " +
           std::to_string(reference.exit_code);
  }
  if (got.report != Rename(reference.report, reference_name, got_name)) {
    return "report bytes differ from the reference path";
  }
  return CheckTheorem3(spec, got.report);
}

std::size_t DeterministicDigest(const Json& job) {
  Json kept = Json::MakeObject();
  for (const auto& [key, value] : job.Members()) {
    if (key != "wall_ms" && key != "from_cache") {
      kept.Set(key, value);
    }
  }
  return std::hash<std::string>()(kept.Serialize());
}

}  // namespace perfbench
