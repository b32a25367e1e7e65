#include "perfbench/src/workload.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/corpus/generator.h"
#include "src/flowchart/interpreter.h"
#include "src/flowlang/lower.h"
#include "src/util/rng.h"

namespace perfbench {

using secpol::CheckerKind;
using secpol::CheckJobSpec;
using secpol::CorpusConfig;
using secpol::SourceProgram;
using secpol::Stmt;
using secpol::VarSet;

namespace {

bool Contains(const std::vector<Stmt>& body, Stmt::Kind kind) {
  return std::any_of(body.begin(), body.end(), [kind](const Stmt& stmt) {
    return stmt.kind == kind || Contains(stmt.then_body, kind) ||
           Contains(stmt.else_body, kind) || Contains(stmt.body, kind);
  });
}

// Mean steps the bare program takes per point over the sub-grid
// {lo, lo + stride, ...}^k: a cheap, machine-independent estimate of how much
// work a job over {lo..hi}^k does per point.
double MeanSteps(const SourceProgram& source, secpol::Value lo, secpol::Value hi,
                 secpol::Value stride) {
  const secpol::Program program = secpol::Lower(source);
  const int k = program.num_inputs();
  std::vector<secpol::Value> input(static_cast<std::size_t>(k), lo);
  double steps = 0.0;
  int points = 0;
  while (true) {
    steps += static_cast<double>(secpol::RunProgram(program, input).steps);
    ++points;
    int i = 0;
    for (; i < k; ++i) {
      input[static_cast<std::size_t>(i)] += stride;
      if (input[static_cast<std::size_t>(i)] <= hi) {
        break;
      }
      input[static_cast<std::size_t>(i)] = lo;
    }
    if (i == k) {
      return steps / points;
    }
  }
}

// Draws programs until one contains `required` (a while or an if) and takes
// between min_steps and max_steps per point on the job's grid. The band keeps
// job costs alike, so a run's totals and percentiles move little from one
// seed to the next.
SourceProgram DrawProgram(const CorpusConfig& config, secpol::Rng& rng, const std::string& name,
                          Stmt::Kind required, secpol::Value lo, secpol::Value hi,
                          double min_steps, double max_steps) {
  while (true) {
    SourceProgram program = secpol::GenerateProgram(config, rng.Next(), name);
    if (!Contains(program.body, required)) {
      continue;
    }
    const double steps = MeanSteps(program, lo, hi, 2);
    if (steps >= min_steps && steps <= max_steps) {
      return program;
    }
  }
}

// Draws programs until one's source text is min_bytes to max_bytes long.
// Every serve request parses its program, a cache hit included, and the few
// most popular keys take most of the hits: without the band their sizes, and
// with them the cost of a hit, change with the seed.
SourceProgram DrawSizedProgram(const CorpusConfig& config, secpol::Rng& rng,
                               const std::string& name, std::size_t min_bytes,
                               std::size_t max_bytes) {
  while (true) {
    SourceProgram program = secpol::GenerateProgram(config, rng.Next(), name);
    const std::size_t bytes = program.ToString().size();
    if (bytes >= min_bytes && bytes <= max_bytes) {
      return program;
    }
  }
}

JobTemplate MakeJob(SourceProgram source, CheckJobSpec spec) {
  spec.program_text = source.ToString();
  return JobTemplate{std::move(source), std::move(spec)};
}

CheckJobSpec AuditSpec(const std::string& id, secpol::Value lo, secpol::Value hi, int threads) {
  CheckJobSpec spec;
  spec.id = id;
  spec.checker = CheckerKind::kAudit;
  spec.allow = VarSet{0};
  spec.allow2 = VarSet{0, 1};
  spec.grid_lo = lo;
  spec.grid_hi = hi;
  spec.num_threads = threads;
  return spec;
}

}  // namespace

std::optional<WorkloadKind> ParseWorkload(const std::string& name) {
  for (WorkloadKind kind :
       {WorkloadKind::kAuditLoop, WorkloadKind::kAuditWide, WorkloadKind::kServeMix}) {
    if (WorkloadName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

std::string WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kAuditLoop:
      return "audit_loop";
    case WorkloadKind::kAuditWide:
      return "audit_wide";
    case WorkloadKind::kServeMix:
      return "serve_mix";
  }
  return "unknown";
}

std::string Tag(const char* prefix, int index) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s%04d", prefix, index);
  return buffer;
}

CheckJobSpec SaltedSpec(const JobTemplate& job, const std::string& salt) {
  SourceProgram source = job.source;
  source.name += "_" + salt;
  CheckJobSpec spec = job.spec;
  spec.program_text = source.ToString();
  return spec;
}

CheckJobSpec ReferenceSpec(CheckJobSpec spec) {
  spec.exec_mode = "interpreted";
  spec.sweep_mode = "point";
  spec.num_threads = 1;
  return spec;
}

AuditWorkload MakeAuditLoop(std::uint64_t seed) {
  CorpusConfig config;
  config.num_inputs = 3;
  config.num_value_locals = 2;
  config.num_counter_locals = 2;
  config.max_depth = 3;
  config.max_loop_bound = 12;
  config.percent_if = 25;
  config.percent_while = 35;
  secpol::Rng rng(seed ^ 0xa0d17100b5ULL);
  AuditWorkload workload;
  workload.threads_per_job = 1;
  workload.nominal_pass_seconds = 1.1;
  for (int j = 0; j < 128; ++j) {
    CheckJobSpec spec = AuditSpec(Tag("audit_loop-", j), 0, 7, 1);
    // Odd jobs stand for the clients that opted in to compiled execution.
    if (j % 2 == 1) {
      spec.exec_mode = "compiled";
    }
    workload.jobs.push_back(MakeJob(
        DrawProgram(config, rng, Tag("l", j), Stmt::Kind::kWhile, 0, 7, 250, 350), spec));
  }
  return workload;
}

AuditWorkload MakeAuditWide(std::uint64_t seed) {
  CorpusConfig config;
  config.num_inputs = 4;
  config.num_value_locals = 2;
  config.num_counter_locals = 0;
  config.max_depth = 3;
  config.percent_if = 45;
  config.percent_while = 0;
  secpol::Rng rng(seed ^ 0xa0d17b1deULL);
  AuditWorkload workload;
  workload.threads_per_job = 2;
  workload.nominal_pass_seconds = 1.4;
  for (int j = 0; j < 112; ++j) {
    workload.jobs.push_back(
        MakeJob(DrawProgram(config, rng, Tag("w", j), Stmt::Kind::kIf, -4, 3, 10, 24),
                AuditSpec(Tag("audit_wide-", j), -4, 3, 2)));
  }
  return workload;
}

ServeMix MakeServeMix(std::uint64_t seed, std::size_t requests) {
  secpol::Rng rng(seed ^ 0x5e7e3a1cULL);
  const CorpusConfig config;  // 3 inputs, loops of at most 3 iterations
  constexpr CheckerKind kCheckers[] = {CheckerKind::kSoundness, CheckerKind::kIntegrity,
                                       CheckerKind::kLeak, CheckerKind::kAudit};
  ServeMix mix;
  mix.keys.reserve(kServeKeys);
  for (int k = 0; k < kServeKeys; ++k) {
    CheckJobSpec spec;
    spec.id = Tag("k", k);
    // The checker follows the popularity rank, so the popular keys mix the
    // four checkers alike for every seed.
    spec.checker = kCheckers[k % 4];
    spec.allow = secpol::GenerateAllowSet(config.num_inputs, rng.Next());
    spec.allow2 = spec.allow;
    spec.allow2.Insert(static_cast<int>(rng.NextBelow(config.num_inputs)));
    spec.grid_lo = -1;
    spec.grid_hi = 2;
    mix.keys.push_back(MakeJob(DrawSizedProgram(config, rng, Tag("s", k), 700, 1000), spec));
  }

  // Zipf(s = 1): key k is requested with weight 1 / (k + 1).
  std::vector<double> cdf(kServeKeys);
  double total = 0.0;
  for (int k = 0; k < kServeKeys; ++k) {
    total += 1.0 / (k + 1);
    cdf[static_cast<std::size_t>(k)] = total;
  }
  const auto draw_key = [&] {
    const double u = rng.NextDouble() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(it - cdf.begin(), kServeKeys - 1));
  };
  mix.stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    Variant variant = Variant::kBase;
    if (rng.Chance(kServeOverridePercent, 100)) {
      variant = rng.Chance(1, 2) ? Variant::kCompiled : Variant::kClass;
    }
    mix.stream.push_back(draw_key() * kVariants + static_cast<int>(variant));
  }
  return mix;
}

CheckJobSpec ServeSpec(const ServeMix& mix, int spec_index) {
  CheckJobSpec spec = mix.keys[static_cast<std::size_t>(spec_index / kVariants)].spec;
  switch (static_cast<Variant>(spec_index % kVariants)) {
    case Variant::kBase:
      break;
    case Variant::kCompiled:
      spec.exec_mode = "compiled";
      spec.id += "c";
      break;
    case Variant::kClass:
      spec.sweep_mode = "class";
      spec.id += "k";
      break;
  }
  return spec;
}

}  // namespace perfbench
