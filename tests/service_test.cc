// Tests for the batch checking service: the differential guarantee (batch
// report ≡ standalone checker report, byte for byte, at any thread count,
// cached or uncached, faults injected or not), the result cache's boundary
// behaviour, persistence robustness, and the scheduler's admission control
// and deadline handling.

#include "src/service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/channels/timing.h"
#include "src/flowlang/lower.h"
#include "src/flowlang/parser.h"
#include "src/mechanism/completeness.h"
#include "src/mechanism/fault.h"
#include "src/mechanism/integrity.h"
#include "src/mechanism/maximal.h"
#include "src/mechanism/outcome.h"
#include "src/mechanism/policy_compare.h"
#include "src/mechanism/soundness.h"
#include "src/policy/policy.h"
#include "src/service/manifest.h"
#include "src/service/result_cache.h"
#include "tests/testlib.h"

namespace secpol {
namespace {

using testlib::MustLower;

// A program leaky enough that soundness/leak verdicts are interesting, with
// loops and branches so structural hashing has something to chew on.
constexpr char kLeakyProgram[] =
    "program leaky(pub, sec) { if (sec > 0) { y = pub + 1; } else { y = pub; } }";
constexpr char kCleanProgram[] = "program clean(pub, sec) { y = pub * pub; }";
constexpr char kLoopProgram[] =
    "program looper(n, sec) { locals c; c = n; while (c > 0) { y = y + 1; c = c - 1; } }";

CheckJobSpec BaseSpec(const std::string& program, CheckerKind checker) {
  CheckJobSpec spec;
  spec.program_text = program;
  spec.checker = checker;
  spec.allow = VarSet{0};
  spec.grid_lo = -1;
  spec.grid_hi = 1;
  return spec;
}

// Renders the expected report for `spec` by calling the underlying checker
// directly — independent re-derivation, duplicated on purpose so a drift in
// either path breaks the byte-for-byte comparison.
std::string ExpectedReport(const CheckJobSpec& spec, int num_threads) {
  const Program program = MustLower(spec.program_text);
  const InputDomain domain =
      InputDomain::Range(program.num_inputs(), spec.grid_lo, spec.grid_hi);
  const Observability obs =
      spec.observe_time ? Observability::kValueAndTime : Observability::kValueOnly;
  CheckOptions options;
  options.num_threads = num_threads;
  const AllowPolicy policy(program.num_inputs(), spec.allow);

  std::string error;
  std::shared_ptr<const ProtectionMechanism> mechanism =
      MakeMechanismKind(spec.mechanism, program, spec.allow, &error);
  EXPECT_NE(mechanism, nullptr) << error;
  if (!spec.fault_spec.empty()) {
    mechanism = std::make_shared<FaultInjectingMechanism>(
        std::move(mechanism), domain, std::move(ParseFaultSpecs(spec.fault_spec)).value());
  }
  if (spec.retries >= 0) {
    mechanism = std::make_shared<RetryingMechanism>(std::move(mechanism), spec.retries);
  }

  const std::string obs_tag = " [" + std::string(ObservabilityName(obs)) + "]";
  switch (spec.checker) {
    case CheckerKind::kSoundness:
      return mechanism->name() + " for " + policy.name() + " over " + domain.ToString() +
             obs_tag + ":\n" +
             CheckSoundness(*mechanism, policy, domain, obs, options).ToString() + "\n";
    case CheckerKind::kIntegrity:
      return mechanism->name() + " preserving " + policy.name() + " over " +
             domain.ToString() + obs_tag + ":\n" +
             CheckInformationPreservation(*mechanism, policy, domain, obs, options)
                 .ToString() +
             "\n";
    case CheckerKind::kCompleteness: {
      std::shared_ptr<const ProtectionMechanism> second =
          MakeMechanismKind(spec.mechanism2, program, spec.allow, &error);
      EXPECT_NE(second, nullptr) << error;
      return mechanism->name() + " vs " + second->name() + " over " + domain.ToString() +
             ":\n" + CompareCompleteness(*mechanism, *second, domain, options).ToString() +
             "\n";
    }
    case CheckerKind::kMaximal:
      return "maximal for " + policy.name() + " over " + domain.ToString() + obs_tag + ":\n" +
             RenderMaximalReport(
                 SynthesizeMaximalMechanism(*mechanism, policy, domain, obs, options)) +
             "\n";
    case CheckerKind::kPolicyCompare: {
      const AllowPolicy second(program.num_inputs(), spec.allow2);
      return policy.name() + " reveals-at-most " + second.name() + " over " +
             domain.ToString() + ":\n" +
             ComparePolicyDisclosure(policy, second, domain, options).ToString() + "\n";
    }
    case CheckerKind::kLeak:
      return mechanism->name() + " for " + policy.name() + " over " + domain.ToString() +
             obs_tag + ":\n" +
             MeasureLeak(*mechanism, policy, domain, obs, options).ToString() + "\n";
    case CheckerKind::kAudit:
      // The audit job's concatenation contract has its own differential
      // suite (tests/audit_test.cc); this helper only re-derives the six
      // single-checker jobs.
      ADD_FAILURE() << "ExpectedReport does not cover kAudit";
      return "";
  }
  return "";
}

Fingerprint KeyOf(char tag) {
  Fingerprinter fp;
  fp.Tag("test-key");
  fp.Str(std::string(1, tag));
  return fp.Digest();
}

CachedResult ValueOf(const std::string& report) {
  CachedResult value;
  value.report = report;
  value.exit_code = 0;
  value.evaluated = 1;
  value.total = 1;
  return value;
}

std::string TempPath(const std::string& stem) {
  return testlib::TempPath("service_test", stem);
}

// ---------------------------------------------------------------------------
// The differential guarantee.

TEST(ServiceDifferentialTest, EveryCheckerMatchesStandaloneAtEveryThreadCount) {
  const struct {
    const char* program;
    CheckerKind checker;
  } cases[] = {
      {kLeakyProgram, CheckerKind::kSoundness},
      {kCleanProgram, CheckerKind::kSoundness},
      {kLoopProgram, CheckerKind::kSoundness},
      {kLeakyProgram, CheckerKind::kIntegrity},
      {kLeakyProgram, CheckerKind::kCompleteness},
      {kCleanProgram, CheckerKind::kMaximal},
      {kLeakyProgram, CheckerKind::kPolicyCompare},
      {kLeakyProgram, CheckerKind::kLeak},
  };
  for (const auto& test_case : cases) {
    for (const int threads : {1, 2, 7}) {
      CheckJobSpec spec = BaseSpec(test_case.program, test_case.checker);
      spec.num_threads = threads;
      if (test_case.checker == CheckerKind::kPolicyCompare) {
        spec.allow2 = VarSet{0, 1};
      }
      const std::string expected = ExpectedReport(spec, threads);

      // Standalone execution.
      const JobResult direct = ExecuteJob(spec);
      EXPECT_EQ(direct.status, JobStatus::kCompleted);
      EXPECT_EQ(direct.report, expected)
          << CheckerKindName(test_case.checker) << " t=" << threads;

      // Cold batch, then warm batch on the same service: the cached bytes
      // must equal the cold bytes must equal the standalone bytes.
      CheckService service(ServiceConfig{});
      const BatchReport cold = service.RunBatch({spec});
      ASSERT_EQ(cold.jobs.size(), 1u);
      EXPECT_FALSE(cold.jobs[0].from_cache);
      EXPECT_EQ(cold.jobs[0].report, expected);

      const BatchReport warm = service.RunBatch({spec});
      ASSERT_EQ(warm.jobs.size(), 1u);
      EXPECT_TRUE(warm.jobs[0].from_cache);
      EXPECT_EQ(warm.jobs[0].report, expected);
      EXPECT_EQ(warm.jobs[0].exit_code, cold.jobs[0].exit_code);
    }
  }
}

TEST(ServiceDifferentialTest, FaultInjectionMatchesStandalone) {
  for (const char* fault : {"wrong@2", "fuel@1+3"}) {
    for (const int threads : {1, 2, 7}) {
      CheckJobSpec spec = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
      spec.fault_spec = fault;
      spec.num_threads = threads;
      const std::string expected = ExpectedReport(spec, threads);
      const JobResult direct = ExecuteJob(spec);
      EXPECT_EQ(direct.report, expected) << fault << " t=" << threads;

      CheckService service(ServiceConfig{});
      const BatchReport batch = service.RunBatch({spec});
      EXPECT_EQ(batch.jobs[0].report, expected) << fault << " t=" << threads;
    }
  }
}

TEST(ServiceDifferentialTest, TransientFaultWithRetryMatchesFaultFreeRun) {
  CheckJobSpec faulty = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  faulty.fault_spec = "throw!@4";
  faulty.retries = 1;
  CheckJobSpec clean = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);

  const JobResult faulty_result = ExecuteJob(faulty);
  const JobResult clean_result = ExecuteJob(clean);
  EXPECT_EQ(faulty_result.status, JobStatus::kCompleted);
  // The retry wrapper changes the mechanism *name* but must not change the
  // verdict or coverage: compare everything after the header line.
  const auto body = [](const std::string& report) {
    return report.substr(report.find(":\n"));
  };
  EXPECT_EQ(body(faulty_result.report), body(clean_result.report));
  EXPECT_EQ(faulty_result.exit_code, clean_result.exit_code);
}

TEST(ServiceDifferentialTest, PersistentFaultAborts) {
  CheckJobSpec spec = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  spec.fault_spec = "throw@4";
  const JobResult result = ExecuteJob(spec);
  EXPECT_EQ(result.status, JobStatus::kAborted);
  EXPECT_EQ(result.exit_code, 4);

  // Aborted runs are never cached: a rerun on the same service re-executes.
  CheckService service(ServiceConfig{});
  const BatchReport first = service.RunBatch({spec});
  EXPECT_EQ(first.jobs[0].status, JobStatus::kAborted);
  const BatchReport second = service.RunBatch({spec});
  EXPECT_FALSE(second.jobs[0].from_cache);
  EXPECT_EQ(service.cache().Stats().entries, 0u);
}

TEST(ServiceDifferentialTest, CacheKeyIgnoresThreadCountSafely) {
  // A warm hit from a 1-thread run must serve a 7-thread request the exact
  // same bytes — legal only because completed reports are thread-invariant.
  CheckJobSpec spec = BaseSpec(kLoopProgram, CheckerKind::kSoundness);
  spec.num_threads = 1;
  CheckService service(ServiceConfig{});
  const BatchReport cold = service.RunBatch({spec});

  spec.num_threads = 7;
  const BatchReport warm = service.RunBatch({spec});
  EXPECT_TRUE(warm.jobs[0].from_cache);
  EXPECT_EQ(warm.jobs[0].report, cold.jobs[0].report);
  EXPECT_EQ(warm.jobs[0].report, ExpectedReport(spec, 7));
}

TEST(ServiceDifferentialTest, DuplicateJobsInOneBatchHitTheCache) {
  CheckJobSpec spec = BaseSpec(kCleanProgram, CheckerKind::kSoundness);
  ServiceConfig config;
  config.concurrency = 1;  // deterministic: first occurrence computes
  CheckService service(config);
  const BatchReport report = service.RunBatch({spec, spec, spec});
  EXPECT_EQ(report.stats.executed, 1);
  EXPECT_EQ(report.stats.cache_hits, 2);
  EXPECT_EQ(report.jobs[0].report, report.jobs[1].report);
  EXPECT_EQ(report.jobs[1].report, report.jobs[2].report);
}

// ---------------------------------------------------------------------------
// Scheduler behaviour.

TEST(SchedulerTest, AdmissionControlRejectsBeyondTheBound) {
  CheckJobSpec spec = BaseSpec(kCleanProgram, CheckerKind::kSoundness);
  ServiceConfig config;
  config.max_pending = 2;
  CheckService service(config);
  std::vector<CheckJobSpec> specs(5, spec);
  for (int i = 0; i < 5; ++i) {
    specs[i].id = "job-" + std::to_string(i);
  }
  const BatchReport report = service.RunBatch(specs);
  ASSERT_EQ(report.jobs.size(), 5u);
  EXPECT_EQ(report.stats.admitted, 2);
  EXPECT_EQ(report.stats.rejected, 3);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(report.jobs[i].status, JobStatus::kCompleted) << i;
  }
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(report.jobs[i].status, JobStatus::kRejected) << i;
    EXPECT_EQ(report.jobs[i].exit_code, 5) << i;
    EXPECT_NE(report.jobs[i].error.find("queue bound"), std::string::npos) << i;
    EXPECT_TRUE(report.jobs[i].report.empty()) << i;
  }
  EXPECT_EQ(report.ExitCode(), 5);
  // Results stay in submission order even though job-0/1 ran and 2-4 did not.
  EXPECT_EQ(report.jobs[4].id, "job-4");
}

TEST(SchedulerTest, HigherPriorityRunsFirst) {
  // Two jobs with identical cache keys and one worker: whichever runs first
  // computes, the other hits the cache. Priority must decide.
  CheckJobSpec low = BaseSpec(kLoopProgram, CheckerKind::kSoundness);
  low.id = "low";
  low.priority = 0;
  CheckJobSpec high = low;
  high.id = "high";
  high.priority = 5;
  ServiceConfig config;
  config.concurrency = 1;
  CheckService service(config);
  const BatchReport report = service.RunBatch({low, high});
  EXPECT_TRUE(report.jobs[0].from_cache) << "low priority should have been served second";
  EXPECT_FALSE(report.jobs[1].from_cache) << "high priority should have computed";
}

TEST(SchedulerTest, PerJobDeadlineYieldsStructuredStatus) {
  CheckJobSpec spec;
  // 11^6 ≈ 1.7M surveilled evaluations: far more than 1ms of work.
  spec.program_text =
      "program big(a, b, c, d, e, f) { y = a + b + c + d + e + f; }";
  spec.checker = CheckerKind::kSoundness;
  spec.allow = VarSet{0};
  spec.grid_lo = -5;
  spec.grid_hi = 5;
  spec.deadline_ms = 1;
  CheckService service(ServiceConfig{});
  const BatchReport report = service.RunBatch({spec});
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(report.jobs[0].exit_code, 3);
  EXPECT_LT(report.jobs[0].evaluated, report.jobs[0].total);
  EXPECT_EQ(report.stats.deadline_exceeded, 1);
  // Partial runs must not poison the cache.
  EXPECT_EQ(service.cache().Stats().entries, 0u);
}

TEST(SchedulerTest, InvalidSpecsAreReportedNotRun) {
  const struct {
    void (*mutate)(CheckJobSpec*);
    const char* expect_in_error;
  } cases[] = {
      {[](CheckJobSpec* s) { s->program_text = "progrm oops"; }, "program:"},
      {[](CheckJobSpec* s) { s->allow = VarSet{7}; }, "allow:"},
      {[](CheckJobSpec* s) { s->mechanism = "warp"; }, "mechanism:"},
      {[](CheckJobSpec* s) { s->grid_lo = 3; s->grid_hi = 1; }, "grid:"},
      {[](CheckJobSpec* s) { s->num_threads = -2; }, "threads:"},
      {[](CheckJobSpec* s) { s->deadline_ms = -1; }, "deadline_ms:"},
      {[](CheckJobSpec* s) { s->fault_spec = "sproing"; }, "fault_spec:"},
  };
  CheckService service(ServiceConfig{});
  for (const auto& test_case : cases) {
    CheckJobSpec spec = BaseSpec(kCleanProgram, CheckerKind::kSoundness);
    test_case.mutate(&spec);
    const BatchReport report = service.RunBatch({spec});
    EXPECT_EQ(report.jobs[0].status, JobStatus::kInvalid);
    EXPECT_EQ(report.jobs[0].exit_code, 1);
    EXPECT_NE(report.jobs[0].error.find(test_case.expect_in_error), std::string::npos)
        << "error was: " << report.jobs[0].error;
  }
}

TEST(SchedulerTest, ConcurrentBatchMatchesSerialBatch) {
  // 12 distinct jobs, executed with 1 worker and with 4: identical reports.
  std::vector<CheckJobSpec> specs;
  for (int hi = 1; hi <= 3; ++hi) {
    for (const CheckerKind checker :
         {CheckerKind::kSoundness, CheckerKind::kIntegrity, CheckerKind::kCompleteness,
          CheckerKind::kLeak}) {
      CheckJobSpec spec = BaseSpec(kLeakyProgram, checker);
      spec.grid_hi = hi;
      specs.push_back(spec);
    }
  }
  ServiceConfig serial_config;
  serial_config.concurrency = 1;
  CheckService serial(serial_config);
  ServiceConfig parallel_config;
  parallel_config.concurrency = 4;
  CheckService parallel(parallel_config);

  const BatchReport a = serial.RunBatch(specs);
  const BatchReport b = parallel.RunBatch(specs);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].report, b.jobs[i].report) << i;
    EXPECT_EQ(a.jobs[i].exit_code, b.jobs[i].exit_code) << i;
  }
}

// ---------------------------------------------------------------------------
// Cache boundary conditions.

TEST(ResultCacheTest, CapacityOneIsATrueLru) {
  ResultCache cache(1, /*num_shards=*/8);  // shards clamp to capacity
  EXPECT_EQ(cache.num_shards(), 1);
  cache.Insert(KeyOf('a'), ValueOf("A"));
  EXPECT_TRUE(cache.Lookup(KeyOf('a')).has_value());
  cache.Insert(KeyOf('b'), ValueOf("B"));
  EXPECT_FALSE(cache.Lookup(KeyOf('a')).has_value()) << "a should have been evicted";
  EXPECT_EQ(cache.Lookup(KeyOf('b'))->report, "B");
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  ResultCache cache(2, /*num_shards=*/1);
  cache.Insert(KeyOf('a'), ValueOf("A"));
  cache.Insert(KeyOf('b'), ValueOf("B"));
  EXPECT_TRUE(cache.Lookup(KeyOf('a')).has_value());  // freshen a
  cache.Insert(KeyOf('c'), ValueOf("C"));             // evicts b, not a
  EXPECT_TRUE(cache.Lookup(KeyOf('a')).has_value());
  EXPECT_FALSE(cache.Lookup(KeyOf('b')).has_value());
  EXPECT_TRUE(cache.Lookup(KeyOf('c')).has_value());
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(2, 1);
  cache.Insert(KeyOf('a'), ValueOf("A1"));
  cache.Insert(KeyOf('a'), ValueOf("A2"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(KeyOf('a'))->report, "A2");
}

TEST(ResultCacheTest, EvictionUnderConcurrentInsert) {
  // Hammer a small sharded cache from many threads; TSan (CI) checks the
  // locking, this test checks the capacity invariant survives the race.
  ResultCache cache(16, 4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &hits, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Fingerprinter fp;
        fp.Tag("concurrent");
        fp.I32(t % 3);  // overlapping key ranges across threads
        fp.I32(i % 40);
        const Fingerprint key = fp.Digest();
        if (i % 2 == 0) {
          cache.Insert(key, ValueOf("value"));
        } else if (cache.Lookup(key).has_value()) {
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_LE(cache.size(), 16u);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, cache.size());
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ResultCacheTest, PersistenceRoundTrip) {
  const std::string path = TempPath("cache.json");
  {
    ResultCache cache(8, 2);
    CachedResult value;
    value.report = "line one\nline \"quoted\" two\n";
    value.exit_code = 2;
    value.evaluated = 81;
    value.total = 81;
    cache.Insert(KeyOf('a'), value);
    cache.Insert(KeyOf('b'), ValueOf("B"));
    const Result<int> saved = cache.SaveToFile(path);
    ASSERT_TRUE(saved.ok());
    EXPECT_EQ(saved.value(), 2);
  }
  ResultCache restored(8, 2);
  const Result<int> loaded = restored.LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), 2);
  const auto hit = restored.Lookup(KeyOf('a'));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report, "line one\nline \"quoted\" two\n");
  EXPECT_EQ(hit->exit_code, 2);
  EXPECT_EQ(hit->evaluated, 81u);
  std::remove(path.c_str());
}

TEST(ResultCacheTest, MissingFileIsAColdStartNotAnError) {
  ResultCache cache(8, 2);
  const Result<int> loaded = cache.LoadFromFile(TempPath("nonexistent.json"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), 0);
}

TEST(ResultCacheTest, CorruptAndTruncatedFilesDegradeToColdStart) {
  const std::string garbage_path = TempPath("garbage.json");
  {
    std::ofstream out(garbage_path);
    out << "this is not json {]";
  }
  ResultCache cache(8, 2);
  EXPECT_FALSE(cache.LoadFromFile(garbage_path).ok());
  EXPECT_EQ(cache.size(), 0u);

  // A valid file truncated mid-write (the failure rename() exists to
  // prevent, simulated here) must also degrade, not crash.
  const std::string truncated_path = TempPath("truncated.json");
  {
    ResultCache full(8, 2);
    full.Insert(KeyOf('a'), ValueOf("A"));
    full.Insert(KeyOf('b'), ValueOf("B"));
    ASSERT_TRUE(full.SaveToFile(truncated_path).ok());
    std::ifstream in(truncated_path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
    out << contents.substr(0, contents.size() / 2);
  }
  ResultCache cache2(8, 2);
  EXPECT_FALSE(cache2.LoadFromFile(truncated_path).ok());

  // Wrong version and malformed entries are rejected too.
  const std::string versioned_path = TempPath("version.json");
  {
    std::ofstream out(versioned_path);
    out << R"({"version": 999, "entries": []})";
  }
  ResultCache cache3(8, 2);
  EXPECT_FALSE(cache3.LoadFromFile(versioned_path).ok());

  const std::string badentry_path = TempPath("badentry.json");
  {
    std::ofstream out(badentry_path);
    out << R"({"version": 1, "entries": [{"key": "tooshort", "report": "r",)"
        << R"( "exit_code": 0, "evaluated": 1, "total": 1}]})";
  }
  ResultCache cache4(8, 2);
  EXPECT_FALSE(cache4.LoadFromFile(badentry_path).ok());

  std::remove(garbage_path.c_str());
  std::remove(truncated_path.c_str());
  std::remove(versioned_path.c_str());
  std::remove(badentry_path.c_str());
}

TEST(ResultCacheTest, ServiceWarmStartsFromPersistedCache) {
  const std::string path = TempPath("service_cache.json");
  CheckJobSpec spec = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  std::string cold_report;
  {
    ServiceConfig config;
    config.cache_file = path;
    CheckService service(config);
    const BatchReport report = service.RunBatch({spec});
    EXPECT_FALSE(report.jobs[0].from_cache);
    cold_report = report.jobs[0].report;
  }  // destructor persists
  {
    ServiceConfig config;
    config.cache_file = path;
    CheckService service(config);
    const BatchReport report = service.RunBatch({spec});
    EXPECT_TRUE(report.jobs[0].from_cache);
    EXPECT_EQ(report.jobs[0].report, cold_report);
    EXPECT_EQ(report.stats.cache_preloaded, 1);
  }
  // Corrupt the persisted file: the next service cold-starts and says why.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{broken";
  }
  {
    ServiceConfig config;
    config.cache_file = path;
    CheckService service(config);
    const BatchReport report = service.RunBatch({spec});
    EXPECT_FALSE(report.jobs[0].from_cache);
    EXPECT_EQ(report.jobs[0].report, cold_report);
    EXPECT_NE(report.stats.cache_load_error.find("corrupt"), std::string::npos);
  }
  std::remove(path.c_str());
}

// Regression for the racy persistence path: SaveToFile used to stage through
// one fixed "<path>.tmp", so two concurrent writers interleaved into the
// same temporary and could rename a torn file into place. With per-writer
// temporaries every rename publishes a complete snapshot — whichever save
// wins, the file on disk always loads.
TEST(ResultCacheTest, ConcurrentSavesToOnePathNeverPublishATornFile) {
  const std::string path = TempPath("contended.json");
  ResultCache cache(64, 4);
  for (char tag = 'a'; tag <= 'p'; ++tag) {
    cache.Insert(KeyOf(tag), ValueOf(std::string(200, tag)));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        if (!cache.SaveToFile(path).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ResultCache restored(64, 4);
  const Result<int> loaded = restored.LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  EXPECT_EQ(loaded.value(), 16);
  std::remove(path.c_str());
}

TEST(ResultCacheTest, PersistFailureBumpsCounterAndAttemptIsCounted) {
  MetricsRegistry registry;
  ResultCache cache(8, 2);
  cache.AttachObs(ObsContext{&registry, nullptr});
  cache.Insert(KeyOf('a'), ValueOf("A"));
  // A path inside a directory that does not exist: open fails immediately.
  const std::string bad_path = TempPath("no_such_dir") + "/cache.json";
  EXPECT_FALSE(cache.SaveToFile(bad_path).ok());
  EXPECT_EQ(registry.GetCounter("cache.persist_attempts")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("cache.persist_failures")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("cache.persisted_entries")->Value(), 0u);
  // A good save afterwards counts entries and adds no failure.
  const std::string good_path = TempPath("good.json");
  EXPECT_TRUE(cache.SaveToFile(good_path).ok());
  EXPECT_EQ(registry.GetCounter("cache.persist_attempts")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("cache.persist_failures")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("cache.persisted_entries")->Value(), 1u);
  std::remove(good_path.c_str());
}

// Regression for the silently-discarded shutdown persist: ~CheckService used
// to ignore SaveToFile's Result entirely, so an unwritable cache_file left
// the next run cold with no evidence why. Now the failure is one stderr line
// plus a cache.persist_failures bump.
TEST(ResultCacheTest, ServiceShutdownPersistFailureIsLoudNotSilent) {
  MetricsRegistry registry;
  ServiceConfig config;
  config.cache_file = TempPath("absent_dir") + "/cache.json";
  config.obs.metrics = &registry;
  ::testing::internal::CaptureStderr();
  {
    CheckService service(std::move(config));
    const BatchReport report =
        service.RunBatch({BaseSpec(kCleanProgram, CheckerKind::kSoundness)});
    EXPECT_EQ(report.jobs[0].status, JobStatus::kCompleted);
  }  // destructor attempts (and fails) the persist
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("failed to persist result cache"), std::string::npos) << err;
  EXPECT_EQ(registry.GetCounter("cache.persist_failures")->Value(), 1u);
}

// ---------------------------------------------------------------------------
// The "table" mechanism kind and the out-of-domain fail-closed path.

// Within the canonical tabulation range {-1..2}^k, a "table" job replays the
// surveillance mechanism exactly, so the two reports agree byte for byte.
TEST(TableKindTest, TableJobMatchesSurveillanceInsideCanonicalDomain) {
  CheckJobSpec surveillance = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  CheckJobSpec table = surveillance;
  table.mechanism = "table";
  const JobResult live = ExecuteJob(surveillance);
  const JobResult replayed = ExecuteJob(table);
  ASSERT_EQ(live.status, JobStatus::kCompleted);
  ASSERT_EQ(replayed.status, JobStatus::kCompleted);
  // The report header names the mechanism ("table(leaky)" vs
  // "surveillance[M](leaky)"); everything after it — the verdict, the counts,
  // the witness if any — must agree byte for byte.
  EXPECT_NE(replayed.report.find("table(leaky)"), std::string::npos);
  const auto body = [](const std::string& report) {
    return report.substr(report.find('\n'));
  };
  EXPECT_EQ(body(replayed.report), body(live.report));
  EXPECT_EQ(replayed.exit_code, live.exit_code);
  // Distinct mechanism recipes must never share a cache identity.
  EXPECT_NE(replayed.cache_key, live.cache_key);
}

// Regression for the process-killing abort: TableMechanism used to fprintf
// and abort() on an out-of-domain input, so one misconfigured job killed the
// whole batch. Now the typed OutOfDomainError fails that job closed
// (kAborted, exit 4) while sibling jobs complete untouched.
TEST(ServiceDifferentialTest, OutOfDomainJobAbortsWithoutKillingSiblings) {
  CheckJobSpec good = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  good.id = "good";
  CheckJobSpec oob = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  oob.id = "oob";
  oob.mechanism = "table";
  oob.grid_lo = -1;
  oob.grid_hi = 3;  // 3 is outside the canonical {-1..2} tabulation
  CheckJobSpec trailing = BaseSpec(kCleanProgram, CheckerKind::kLeak);
  trailing.id = "trailing";

  MetricsRegistry registry;
  ServiceConfig config;
  config.obs.metrics = &registry;
  CheckService service(std::move(config));
  const BatchReport report = service.RunBatch({good, oob, trailing});

  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_EQ(report.jobs[0].status, JobStatus::kCompleted);
  EXPECT_EQ(report.jobs[0].report, ExpectedReport(good, 1));
  EXPECT_EQ(report.jobs[1].status, JobStatus::kAborted);
  EXPECT_EQ(report.jobs[1].exit_code, 4);
  EXPECT_EQ(report.jobs[2].status, JobStatus::kCompleted);
  EXPECT_EQ(report.jobs[2].report, ExpectedReport(trailing, 1));
  EXPECT_EQ(report.stats.aborted, 1);
  EXPECT_EQ(report.stats.completed, 2);
  EXPECT_EQ(report.ExitCode(), 4);
  EXPECT_EQ(registry.GetCounter("sweep.out_of_domain")->Value(), 1u);
  EXPECT_GE(registry.GetCounter("sweep.exceptions")->Value(), 1u);
}

// ---------------------------------------------------------------------------
// Manifest boundary.

TEST(ManifestTest, ParsesDefaultsAndJobs) {
  const std::string text = R"({
    "service": {"concurrency": 2, "max_pending": 9, "cache_capacity": 33},
    "defaults": {"program": "program p(a, b) { y = a; }", "allow": [0],
                 "grid": {"lo": 0, "hi": 1}},
    "jobs": [
      {"id": "first"},
      {"id": "second", "checker": "leak", "observe_time": true, "priority": 3},
      {"id": "third", "checker": "policy-compare", "allow2": [0, 1]}
    ]
  })";
  Result<BatchManifest> manifest = ParseBatchManifest(text);
  ASSERT_TRUE(manifest.ok()) << manifest.error().message;
  EXPECT_EQ(manifest.value().service.concurrency, 2);
  EXPECT_EQ(manifest.value().service.max_pending, 9);
  EXPECT_EQ(manifest.value().service.cache_capacity, 33u);
  ASSERT_EQ(manifest.value().jobs.size(), 3u);
  const CheckJobSpec& second = manifest.value().jobs[1];
  EXPECT_EQ(second.id, "second");
  EXPECT_EQ(second.checker, CheckerKind::kLeak);
  EXPECT_TRUE(second.observe_time);
  EXPECT_EQ(second.priority, 3);
  EXPECT_EQ(second.grid_lo, 0);
  EXPECT_EQ(second.grid_hi, 1);
  EXPECT_EQ(manifest.value().jobs[2].allow2, (VarSet{0, 1}));

  const BatchReport report = CheckService(manifest.value().service)
                                 .RunBatch(manifest.value().jobs);
  EXPECT_EQ(report.stats.completed, 3);
}

TEST(ManifestTest, ProgramFileIsALocalManifestOnlyKey) {
  const std::string path = ::testing::TempDir() + "/manifest_program.fl";
  std::ofstream(path) << "program p(a) { y = a; }";

  // A local manifest is operator-authored and may load files at parse time.
  const Result<BatchManifest> manifest = ParseBatchManifest(
      R"({"jobs": [{"program_file": ")" + path + R"(", "allow": [0]}]})");
  ASSERT_TRUE(manifest.ok()) << manifest.error().message;
  ASSERT_EQ(manifest.value().jobs.size(), 1u);
  EXPECT_EQ(manifest.value().jobs[0].program_text, "program p(a) { y = a; }");

  // An untrusted submission must not: the key itself is refused, with the
  // same error whether or not the path exists (no existence oracle).
  const auto reject = [](const std::string& file_path) {
    Json object = Json::MakeObject();
    object.Set("program_file", Json::MakeString(file_path));
    CheckJobSpec spec;
    const Result<bool> applied = ApplyManifestJobFields(
        object, "submit.job", &spec, JobFieldSource::kUntrustedSubmission);
    EXPECT_FALSE(applied.ok());
    EXPECT_TRUE(spec.program_text.empty()) << "file content must never load";
    return applied.ok() ? std::string() : applied.error().message;
  };
  const std::string exists = reject(path);
  const std::string missing = reject(path + ".does-not-exist");
  EXPECT_EQ(exists, missing);
  EXPECT_NE(exists.find("program_file"), std::string::npos);
}

TEST(ManifestTest, RejectsUnknownAndMistypedFields) {
  EXPECT_FALSE(ParseBatchManifest("[1]").ok());
  EXPECT_FALSE(ParseBatchManifest("{}").ok());  // no jobs array
  const auto error_of = [](const std::string& text) {
    const Result<BatchManifest> result = ParseBatchManifest(text);
    EXPECT_FALSE(result.ok());
    return result.ok() ? std::string() : result.error().message;
  };
  EXPECT_NE(error_of(R"({"jobs": [{"checkr": "soundness"}]})").find("unknown key 'checkr'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"jobs": [{"checker": "vibes"}]})").find("unknown checker"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"jobs": [{"allow": [0, "one"]}]})").find("allow"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"jobs": [{"threads": "four"}]})").find("threads"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"service": {"cache_capacity": 0}, "jobs": []})")
                .find("cache_capacity"),
            std::string::npos);
  // Errors name the offending job.
  EXPECT_NE(error_of(R"({"jobs": [{}, {"grid": 5}]})").find("jobs[1]"), std::string::npos);
}

// Every member of the spec, so a round trip cannot drop one unnoticed.
void ExpectSameSpec(const CheckJobSpec& got, const CheckJobSpec& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.checker, want.checker);
  EXPECT_EQ(got.program_text, want.program_text);
  EXPECT_EQ(got.allow, want.allow);
  EXPECT_EQ(got.mechanism, want.mechanism);
  EXPECT_EQ(got.mechanism2, want.mechanism2);
  EXPECT_EQ(got.allow2, want.allow2);
  EXPECT_EQ(got.grid_lo, want.grid_lo);
  EXPECT_EQ(got.grid_hi, want.grid_hi);
  EXPECT_EQ(got.observe_time, want.observe_time);
  EXPECT_EQ(got.sweep_mode, want.sweep_mode);
  EXPECT_EQ(got.exec_mode, want.exec_mode);
  EXPECT_EQ(got.num_threads, want.num_threads);
  EXPECT_EQ(got.deadline_ms, want.deadline_ms);
  EXPECT_EQ(got.priority, want.priority);
  EXPECT_EQ(got.fault_spec, want.fault_spec);
  EXPECT_EQ(got.retries, want.retries);
}

const JobField& FieldNamed(const std::string& key) {
  for (const JobField& field : JobFields()) {
    if (key == field.key) {
      return field;
    }
  }
  ADD_FAILURE() << "no job field " << key;
  return JobFields().front();
}

// The error ApplyManifestJobFields reports for `text`, or "" when it applies.
std::string JobFieldsError(const std::string& text,
                           JobFieldSource source = JobFieldSource::kLocalManifest) {
  CheckJobSpec spec;
  const Result<bool> applied =
      ApplyManifestJobFields(Json::Parse(text).value(), "job", &spec, source);
  return applied.ok() ? std::string() : applied.error().message;
}

TEST(ManifestTest, EveryJobFieldRoundTripsFromFlagThroughJson) {
  const std::string program_path = ::testing::TempDir() + "/round_trip_program.fl";
  std::ofstream(program_path) << "program q(a) { y = a; }";
  // One non-default value per row, as CLI flag text (rows with a flag) and as
  // the JSON a manifest spells the same value with.
  struct Sample {
    std::string flag_text;
    std::string json;
  };
  const std::map<std::string, Sample> samples = {
      {"id", {"", R"("job-7")"}},
      {"checker", {"", R"("audit")"}},
      {"program", {"", R"("program p(a, b) { y = a; }")"}},
      {"program_file", {"", "\"" + program_path + "\""}},
      {"allow", {"0,2", "[0, 2]"}},
      {"allow2", {"1", "[1]"}},
      {"mechanism", {"static", R"("static")"}},
      {"mechanism2", {"highwater", R"("highwater")"}},
      {"grid", {"-2:3", R"({"lo": -2, "hi": 3})"}},
      {"observe_time", {"", "true"}},
      {"threads", {"3", "3"}},
      {"deadline_ms", {"250", "250"}},
      {"priority", {"", "4"}},
      {"fault_spec", {"throw!@4", R"("throw!@4")"}},
      {"retries", {"2", "2"}},
      {"sweep_mode", {"class", R"("class")"}},
      {"exec_mode", {"compiled", R"("compiled")"}},
  };
  const std::string defaults = CheckJobSpecToJson(CheckJobSpec()).Serialize();
  for (const JobField& field : JobFields()) {
    SCOPED_TRACE(field.key);
    const auto sample = samples.find(field.key);
    ASSERT_NE(sample, samples.end()) << "every row needs a round-trip sample";
    const Result<Json> object =
        Json::Parse("{\"" + std::string(field.key) + "\": " + sample->second.json + "}");
    ASSERT_TRUE(object.ok());
    CheckJobSpec spec;
    const Result<bool> from_json =
        ApplyManifestJobFields(object.value(), "job", &spec, JobFieldSource::kLocalManifest);
    ASSERT_TRUE(from_json.ok()) << from_json.error().message;
    if (field.flag != nullptr) {
      // The flag spells the same value as the manifest key.
      CheckJobSpec from_flag;
      const Result<bool> applied = ApplyJobFlag(field, sample->second.flag_text, &from_flag);
      ASSERT_TRUE(applied.ok()) << applied.error().message;
      ExpectSameSpec(from_flag, spec);
      spec = from_flag;
    }
    const Json rendered = CheckJobSpecToJson(spec);
    EXPECT_NE(rendered.Serialize(), defaults) << "the sample must leave the default";
    // The value renders back as written; program_file renders as the text it read.
    const Json* value = rendered.Find(field.local_only ? "program" : field.key);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->Serialize(), field.local_only ? R"("program q(a) { y = a; }")"
                                                   : object.value().Find(field.key)->Serialize());
    CheckJobSpec decoded;
    const Result<bool> applied =
        ApplyManifestJobFields(rendered, "job", &decoded, JobFieldSource::kLocalManifest);
    ASSERT_TRUE(applied.ok()) << applied.error().message;
    ExpectSameSpec(decoded, spec);
  }
  std::remove(program_path.c_str());
}

TEST(ManifestTest, RangesAreCheckedAlikeOnEveryPath) {
  // -1 retries is how JSON says "no retry wrapper"; any other negative count
  // is an error naming the field, in a manifest and in a submit frame alike.
  EXPECT_EQ(JobFieldsError(R"({"retries": -1})"), "");
  for (const JobFieldSource source :
       {JobFieldSource::kLocalManifest, JobFieldSource::kUntrustedSubmission}) {
    EXPECT_NE(JobFieldsError(R"({"retries": -7})", source).find("job.retries"),
              std::string::npos);
  }
  const Result<BatchManifest> manifest = ParseBatchManifest(
      R"({"jobs": [{"program": "program p(a) { y = a; }", "retries": -7}]})");
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.error().message.find("jobs[0].retries"), std::string::npos);
  // The CLI says "no retry wrapper" by leaving the flag out.
  CheckJobSpec spec;
  EXPECT_FALSE(ApplyJobFlag(FieldNamed("retries"), "-1", &spec).ok());

  // Likewise 0 for an unbounded deadline.
  EXPECT_EQ(JobFieldsError(R"({"deadline_ms": 0})"), "");
  EXPECT_NE(JobFieldsError(R"({"deadline_ms": -1})").find("job.deadline_ms"), std::string::npos);
  EXPECT_FALSE(ApplyJobFlag(FieldNamed("deadline_ms"), "0", &spec).ok());

  EXPECT_NE(JobFieldsError(R"({"threads": 5000})").find("job.threads"), std::string::npos);
  EXPECT_NE(JobFieldsError(R"({"grid": {"lo": 3, "hi": 1}})").find("lo 3 exceeds hi 1"),
            std::string::npos);
  const Result<bool> inverted = ApplyJobFlag(FieldNamed("grid"), "3:1", &spec);
  ASSERT_FALSE(inverted.ok());
  EXPECT_EQ(inverted.error().message, "bad --grid value '3:1' (lo 3 exceeds hi 1)");

  // A bound given alone keeps the other; PrepareJob checks the merged grid.
  CheckJobSpec partial = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  ASSERT_TRUE(ApplyManifestJobFields(Json::Parse(R"({"grid": {"lo": 0}})").value(), "job",
                                     &partial, JobFieldSource::kLocalManifest)
                  .ok());
  EXPECT_EQ(partial.grid_lo, 0);
  EXPECT_EQ(partial.grid_hi, 1);
  partial.grid_lo = 3;
  const Result<PreparedJob> prepared = PrepareJob(partial);
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.error().message, "grid: lo 3 exceeds hi 1");

  // Specs built in memory meet the same rows in PrepareJob.
  CheckJobSpec in_memory = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  in_memory.retries = -7;
  ASSERT_FALSE(PrepareJob(in_memory).ok());
  EXPECT_NE(PrepareJob(in_memory).error().message.find("retries"), std::string::npos);
}

TEST(ManifestTest, BatchReportJsonIsWellFormed) {
  CheckJobSpec good = BaseSpec(kLeakyProgram, CheckerKind::kSoundness);
  good.id = "good";
  CheckJobSpec bad = good;
  bad.id = "bad";
  bad.mechanism = "warp";
  ServiceConfig config;
  config.max_pending = 2;
  CheckService service(config);
  const BatchReport report = service.RunBatch({good, bad, good});

  const Json doc = BatchReportToJson(report);
  // The serialized report must parse back — the CI step validating
  // BENCH_*.json relies on the same property for bench output.
  const Result<Json> parsed = Json::Parse(doc.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().Find("jobs")->Items().size(), 3u);
  EXPECT_EQ(parsed.value().Find("jobs")->Items()[0].Find("status")->AsString(), "completed");
  EXPECT_EQ(parsed.value().Find("jobs")->Items()[1].Find("status")->AsString(), "invalid");
  EXPECT_EQ(parsed.value().Find("jobs")->Items()[2].Find("status")->AsString(), "rejected");
  EXPECT_EQ(parsed.value().Find("exit_code")->AsInt(), 5);
  EXPECT_EQ(parsed.value().Find("scheduler")->Find("rejected")->AsInt(), 1);
  EXPECT_NE(parsed.value().Find("cache"), nullptr);
}

}  // namespace
}  // namespace secpol
