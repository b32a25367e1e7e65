// Shared knobs for the exhaustive checkers, plus the structured status every
// checker reports.
//
// Every extensional check (soundness, completeness, integrity, maximal
// synthesis, policy comparison, leak measurement) scans the same kind of
// cross-product grid; CheckOptions carries the evaluation knobs they all
// share. The parallel engine is grid-sharded: the domain is split into
// contiguous lexicographic rank ranges, each shard accumulates a partial
// result, and the partials are merged by global rank so the final report is
// bit-for-bit the one a serial scan produces, at any thread count.
//
// Robustness: sweeps are bounded and cancellable. Every checker polls
// `deadline` and `cancel` cheaply per grid point (see util/deadline.h) and
// returns a CheckProgress: kCompleted runs keep the strict serial ≡ parallel
// determinism contract; kDeadlineExceeded / kAborted runs report how much of
// the grid was covered instead of crashing or hanging. A worker exception
// (e.g. a faulty mechanism throwing) surfaces as kAborted with the message —
// never as std::terminate.

#ifndef SECPOL_SRC_MECHANISM_CHECK_OPTIONS_H_
#define SECPOL_SRC_MECHANISM_CHECK_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/deadline.h"

namespace secpol {

struct CheckOptions {
  // Worker threads for grid evaluation: 0 = one per hardware thread,
  // 1 = the serial reference scan, n > 1 = parallel with n workers.
  int num_threads = 0;

  // Wall-clock bound for the sweep (unbounded by default). When it expires
  // the checker stops at the next poll and reports kDeadlineExceeded.
  Deadline deadline;

  // Cooperative cancellation: share a copy of this token and call
  // RequestCancel() from any thread; the checker reports kAborted.
  CancelToken cancel;

  // Observability sinks (metrics registry / trace recorder). Both default to
  // null — the disabled mode — and never influence verdicts or report bytes.
  ObsContext obs;

  static CheckOptions Serial() { return Threads(1); }
  static CheckOptions Threads(int n) {
    CheckOptions out;
    out.num_threads = n;
    return out;
  }

  CheckOptions WithDeadline(Deadline d) const {
    CheckOptions out = *this;
    out.deadline = d;
    return out;
  }

  // num_threads with 0 resolved to the hardware thread count.
  int ResolvedThreads() const;

  // Number of contiguous shards to split a grid of `grid_size` tuples into
  // when running on `threads` workers. A small multiple of the thread count
  // so an uneven shard cannot serialize the tail, capped by the grid itself.
  static std::uint64_t ShardsFor(int threads, std::uint64_t grid_size);
};

// How a checker run ended.
enum class CheckStatus {
  kCompleted,         // full grid covered; report is the exact serial report
  kDeadlineExceeded,  // deadline expired mid-sweep; coverage was partial
  kAborted,           // cancelled, or a worker raised an exception
};

std::string CheckStatusName(CheckStatus status);

// Structured outcome + coverage of one checker run. Verdict fields of a
// report are authoritative only when complete() — with one exception: a
// counterexample present on an incomplete run is still a genuine witness
// (it was actually evaluated), it just need not be the rank-minimal one.
struct CheckProgress {
  CheckStatus status = CheckStatus::kCompleted;
  std::uint64_t evaluated = 0;  // grid points actually evaluated
  std::uint64_t total = 0;      // grid size
  std::string message;          // abort cause (exception text / "cancelled")

  bool complete() const { return status == CheckStatus::kCompleted; }

  // e.g. "deadline exceeded after 1234/10000 grid points".
  std::string ToString() const;
};

// Per-shard sweep bookkeeping, cache-line padded so neighbouring shards'
// counters and poll gates never contend. Serial paths use a single meter.
struct alignas(64) ShardMeter {
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;        // 1 if this shard stopped on a prune bound
  std::int64_t first_visit_us = -1;  // trace timebase; -1 = never visited
  std::int64_t last_visit_us = -1;   // (only maintained while tracing)
  PollGate gate;

  explicit ShardMeter(const CheckOptions& options, CancelToken drain = CancelToken())
      : gate(options.deadline, options.cancel, std::move(drain)) {}
};

// Folds shard meters into `progress`: sums coverage and derives the status
// (deadline beats cancel; an exception is reported by the caller instead,
// via AbortProgress). Leaves status untouched if no shard stopped.
void MergeMeters(const std::vector<ShardMeter>& meters, CheckProgress* progress);

// Marks `progress` aborted-by-exception with the given message.
void AbortProgress(CheckProgress* progress, std::string message);

}  // namespace secpol

#endif  // SECPOL_SRC_MECHANISM_CHECK_OPTIONS_H_
