// The traced replays: the job path re-enacted call by call from the
// benchmark's own code, one span per layer call, plus the off-path probes
// that time a layer on a workload that does not exercise it.
//
// The replays call the same public functions, with the same arguments and
// in the same order, as the code they mirror:
//   ReplayBatchJob    CheckService::RunBatch for one audit job
//                     (PrepareJob, ResultCache, RunPreparedJob's audit arm)
//   ReplayServeJob    CheckServer's handling of one submit frame (decode,
//                     PrepareJob, ResultCache, RunPreparedJob, result frame)
// Nothing under src/ is changed to take these spans. The traced run checks
// every replayed result with the same oracle as the timed runs, so a replay
// that drifts from the path it mirrors fails the run.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/mechanism/classes.h"
#include "src/service/job.h"
#include "src/service/result_cache.h"

namespace perfbench {

// Replays RunBatch for one audit job (point sweep, no faults) under span
// "job". The returned report is rendered exactly as RunPreparedJob does.
secpol::JobResult ReplayBatchJob(Tracer& tracer, const secpol::CheckJobSpec& spec,
                                 secpol::ResultCache& cache, int job, int pass);

// Replays the daemon's handling of one submit frame payload under span
// "job": decode, PrepareJob, cache lookup, RunPreparedJob on a miss, insert,
// result rendering and result frame encoding. *hit reports the lookup. With a
// disabled tracer this is the untraced baseline for trace.overhead.
secpol::JobResult ReplayServeJob(Tracer& tracer, const std::string& payload,
                                 secpol::ResultCache& cache, secpol::ClassMemo& memo, int job,
                                 int pass, bool* hit);

// Accumulated seconds and item counts per probe name.
struct Tally {
  double seconds = 0.0;
  double items = 0.0;
  double PerItem() const { return items > 0.0 ? seconds / items : 0.0; }
};
using Tallies = std::map<std::string, Tally>;

// Off-path probes of one audit-shaped job, best of `reps` repetitions each,
// added to *tallies:
//   outcome_table.{M,M2,images}.{interpreted,compiled}  one column, per point
//   sweep.tabulate.{1t,2t}, sweep.reduce.{1t,2t}        all columns / all six
//                                                        reducers at 1 and 2
//                                                        threads, per job
//   reduce.<checker>                                    one reducer, per point
//   compiled.compile                                    CompileSurveillance
//   classes.partition, classes.classes,
//   classes.certified                                    a class-mode build
//   protocol.decode, protocol.encode, job.render_json    the job's frames
void ProbeJob(const secpol::CheckJobSpec& spec, int reps, Tallies* tallies);

// The names of the six table-backed reducers, in audit section order.
const std::vector<std::string>& ReducerNames();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
