// Tests of the benchmark's own machinery: pass salting, the percentile rule,
// the correctness oracle and the tracer's untraced mode.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <gtest/gtest.h>

#include <set>

#include "perfbench/src/oracle.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/timed.h"
#include "perfbench/src/workload.h"
#include "src/service/manifest.h"

namespace perfbench {
namespace {

using secpol::CheckJobSpec;
using secpol::JobResult;

TEST(PassSalting, DistinctCacheKeysIdenticalWork) {
  for (const AuditWorkload& workload : {MakeAuditLoop(7), MakeAuditWide(7)}) {
    for (std::size_t j = 0; j < 2; ++j) {
      const JobTemplate& job = workload.jobs[j];
      std::set<std::string> keys;
      std::set<std::uint64_t> evaluated;
      for (const char* salt : {"p000", "p001", "p002"}) {
        const CheckJobSpec spec = SaltedSpec(job, salt);
        const auto prepared = secpol::PrepareJob(spec);
        ASSERT_TRUE(prepared.ok()) << prepared.error().message;
        keys.insert(prepared.value().key.ToHex());
        const JobResult result = secpol::ExecuteJob(spec);
        ASSERT_EQ(result.status, secpol::JobStatus::kCompleted);
        evaluated.insert(result.evaluated);
      }
      EXPECT_EQ(keys.size(), 3u) << job.spec.id;
      EXPECT_EQ(evaluated.size(), 1u) << job.spec.id;
    }
  }
}

TEST(PassSalting, ServiceNeverHitsAcrossPasses) {
  const AuditWorkload workload = MakeAuditLoop(11);
  secpol::CheckService service{secpol::ServiceConfig()};
  for (const char* salt : {"p000", "p001"}) {
    std::vector<CheckJobSpec> specs;
    for (std::size_t j = 0; j < 4; ++j) {
      specs.push_back(SaltedSpec(workload.jobs[j], salt));
    }
    const AuditPass pass = RunAuditPass(service, specs);
    for (const JobResult& result : pass.results) {
      EXPECT_FALSE(result.from_cache) << result.id;
    }
  }
}

TEST(Percentiles, NeedTenSamplesBeyond) {
  const auto ramp = [](int n) {
    std::vector<double> values;
    for (int i = n; i >= 1; --i) {
      values.push_back(i);
    }
    return values;
  };
  EXPECT_FALSE(TailPercentile(ramp(19), 0.5).has_value());
  EXPECT_EQ(TailPercentile(ramp(20), 0.5), 10.0);
  EXPECT_FALSE(TailPercentile(ramp(99), 0.9).has_value());
  EXPECT_EQ(TailPercentile(ramp(100), 0.9), 90.0);
  EXPECT_FALSE(TailPercentile(ramp(999), 0.99).has_value());
  EXPECT_EQ(TailPercentile(ramp(1000), 0.99), 990.0);
  EXPECT_EQ(SamplesBeyond(128, 0.9), 12u);
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(Percentiles, Median) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    job_ = MakeAuditLoop(3).jobs[1];  // a compiled job
    spec_ = SaltedSpec(job_, "p004");
    got_ = secpol::ExecuteJob(spec_);
    reference_ = secpol::ExecuteJob(ReferenceSpec(SaltedSpec(job_, "r000")));
  }
  std::string Check(const JobResult& got) const {
    return CheckAgainstReference(spec_, got, reference_, job_.source.name + "_r000",
                                 job_.source.name + "_p004");
  }

  JobTemplate job_;
  CheckJobSpec spec_;
  JobResult got_;
  JobResult reference_;
};

TEST_F(OracleTest, AcceptsASaltedPassOfTheSameJob) {
  ASSERT_EQ(spec_.exec_mode, "compiled");
  EXPECT_EQ(Check(got_), "");
}

TEST_F(OracleTest, FlagsACorruptedReportByte) {
  for (std::size_t at : {std::size_t{0}, got_.report.size() / 2, got_.report.size() - 1}) {
    JobResult corrupted = got_;
    corrupted.report[at] ^= 0x01;
    EXPECT_NE(Check(corrupted), "") << "byte " << at;
  }
}

TEST_F(OracleTest, FlagsAnExitCodeOrStatusChange) {
  JobResult exit = got_;
  exit.exit_code += 1;
  EXPECT_NE(Check(exit), "");
  JobResult aborted = got_;
  aborted.status = secpol::JobStatus::kAborted;
  EXPECT_NE(Check(aborted), "");
}

TEST_F(OracleTest, Theorem3FlagsAnUnsoundSurveillanceSection) {
  std::string report = got_.report;
  const std::size_t at = report.find("\nSOUND ");
  ASSERT_NE(at, std::string::npos);
  report.replace(at + 1, 5, "UNSOUND");
  EXPECT_NE(CheckTheorem3(spec_, report), "");
  EXPECT_EQ(CheckTheorem3(spec_, got_.report), "");
}

TEST_F(OracleTest, FlagsAResultFrameThatDiffersFromTheBatchRendering) {
  const std::size_t batch = DeterministicDigest(secpol::JobResultToJson(got_));
  // Timing and cache state may differ between a frame and the batch rendering.
  secpol::Json frame_job = secpol::JobResultToJson(got_);
  frame_job.Set("wall_ms", secpol::Json::MakeDouble(123.0));
  frame_job.Set("from_cache", secpol::Json::MakeBool(true));
  EXPECT_EQ(DeterministicDigest(frame_job), batch);
  std::string report = got_.report;
  report.back() ^= 0x01;
  frame_job.Set("report", secpol::Json::MakeString(report));
  EXPECT_NE(DeterministicDigest(frame_job), batch);
  frame_job = secpol::JobResultToJson(got_);
  frame_job.Set("exit_code", secpol::Json::MakeInt(got_.exit_code + 1));
  EXPECT_NE(DeterministicDigest(frame_job), batch);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer(/*enabled=*/false);
  {
    SpanScope outer(tracer, "job", 0, 0);
    SpanScope inner(tracer, "flowlang.parse", 0, 0);
  }
  EXPECT_TRUE(tracer.spans().empty());
  Tracer enabled;
  {
    SpanScope outer(enabled, "job", 0, 0);
    SpanScope inner(enabled, "flowlang.parse", 0, 0);
  }
  ASSERT_EQ(enabled.spans().size(), 2u);
  EXPECT_EQ(enabled.spans()[1].parent, 0);
}

TEST(Workloads, SameSeedSameInputs) {
  EXPECT_EQ(MakeAuditLoop(5).jobs[17].spec.program_text,
            MakeAuditLoop(5).jobs[17].spec.program_text);
  EXPECT_NE(MakeAuditLoop(5).jobs[17].spec.program_text,
            MakeAuditLoop(6).jobs[17].spec.program_text);
  EXPECT_EQ(MakeServeMix(5, 100).stream, MakeServeMix(5, 100).stream);
}

}  // namespace
}  // namespace perfbench
