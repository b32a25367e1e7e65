#include "src/mechanism/check_options.h"

#include <algorithm>
#include <utility>

#include "src/util/thread_pool.h"

namespace secpol {

int CheckOptions::ResolvedThreads() const {
  if (num_threads <= 0) {
    return ThreadPool::HardwareThreads();
  }
  return num_threads;
}

std::uint64_t CheckOptions::ShardsFor(int threads, std::uint64_t grid_size) {
  const std::uint64_t want = static_cast<std::uint64_t>(std::max(1, threads)) * 8;
  return std::clamp<std::uint64_t>(grid_size, 1, want);
}

std::string CheckStatusName(CheckStatus status) {
  switch (status) {
    case CheckStatus::kCompleted:
      return "completed";
    case CheckStatus::kDeadlineExceeded:
      return "deadline exceeded";
    case CheckStatus::kAborted:
      return "aborted";
  }
  return "?";
}

std::string CheckProgress::ToString() const {
  std::string out = CheckStatusName(status);
  if (!complete()) {
    out += " after " + std::to_string(evaluated) + "/" + std::to_string(total) +
           " grid points";
    if (!message.empty()) {
      out += ": " + message;
    }
  }
  return out;
}

void MergeMeters(const std::vector<ShardMeter>& meters, CheckProgress* progress) {
  bool deadline = false;
  bool cancelled = false;
  for (const ShardMeter& meter : meters) {
    progress->evaluated += meter.evaluated;
    deadline = deadline || meter.gate.reason() == StopReason::kDeadline;
    cancelled = cancelled || meter.gate.reason() == StopReason::kCancelled;
  }
  if (deadline) {
    progress->status = CheckStatus::kDeadlineExceeded;
  } else if (cancelled) {
    progress->status = CheckStatus::kAborted;
    progress->message = "cancelled";
  }
}

void AbortProgress(CheckProgress* progress, std::string message) {
  progress->status = CheckStatus::kAborted;
  progress->message = std::move(message);
}

}  // namespace secpol
