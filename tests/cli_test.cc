// Tests for the secpol command-line driver.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/server/server.h"
#include "src/tools/cli.h"
#include "src/util/json.h"
#include "tests/testlib.h"

namespace secpol {
namespace {

// Writes a temp program file and returns its path.
class CliTest : public ::testing::Test {
 protected:
  std::string WriteProgram(const std::string& source) {
    // The test name keeps paths unique across CLI test processes running
    // concurrently under `ctest -j` (they all share TempDir).
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string path = ::testing::TempDir() + "cli_test_" + test_name + "_" +
                             std::to_string(counter_++) + ".fl";
    std::ofstream out(path);
    out << source;
    out.close();
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) {
      std::remove(path.c_str());
    }
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  // Runs the CLI, returning the exit code; stdout/stderr captured.
  int Run(std::vector<std::string> args) {
    out_.clear();
    err_.clear();
    return RunCli(args, &out_, &err_);
  }

  std::string out_;
  std::string err_;

 private:
  int counter_ = 0;
  std::vector<std::string> paths_;
};

TEST_F(CliTest, RunExecutesProgram) {
  const std::string path = WriteProgram("program p(a, b) { y = a * b; }");
  EXPECT_EQ(Run({"run", path, "--input=6,7"}), 0);
  EXPECT_NE(out_.find("y = 42"), std::string::npos);
}

TEST_F(CliTest, RunRejectsWrongArity) {
  const std::string path = WriteProgram("program p(a, b) { y = a; }");
  EXPECT_EQ(Run({"run", path, "--input=1"}), 1);
  EXPECT_NE(err_.find("expected 2 inputs"), std::string::npos);
}

TEST_F(CliTest, MonitorReleasesAndViolates) {
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  EXPECT_EQ(Run({"monitor", path, "--allow=0", "--input=5,9"}), 0);
  EXPECT_NE(out_.find("value 5"), std::string::npos);

  const std::string leaky = WriteProgram("program p(pub, sec) { y = sec; }");
  EXPECT_EQ(Run({"monitor", leaky, "--allow=0", "--input=5,9"}), 0);
  EXPECT_NE(out_.find("VIOLATION"), std::string::npos);
}

TEST_F(CliTest, MonitorVariants) {
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  EXPECT_EQ(Run({"monitor", path, "--allow=0", "--input=1,2", "--high-water"}), 0);
  EXPECT_NE(out_.find("high-water"), std::string::npos);
  EXPECT_EQ(Run({"monitor", path, "--allow=0", "--input=1,2", "--time-safe"}), 0);
  EXPECT_NE(out_.find("[M']"), std::string::npos);
}

TEST_F(CliTest, CheckVerdictDrivesExitCode) {
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  EXPECT_EQ(Run({"check", path, "--allow=0"}), 0);
  EXPECT_NE(out_.find("SOUND"), std::string::npos);

  // The bare program leaking sec: exit code 2 signals "unsound".
  const std::string leaky = WriteProgram("program p(pub, sec) { y = sec; }");
  EXPECT_EQ(Run({"check", leaky, "--allow=0", "--mechanism=bare"}), 2);
  EXPECT_NE(out_.find("UNSOUND"), std::string::npos);
}

TEST_F(CliTest, CheckDeadlineExceededDrivesExitCode) {
  // A slow program over an oversized grid cannot finish in 1ms: the run
  // reports partial progress and exits 3 (bounded, no verdict).
  const std::string path = WriteProgram(
      "program p(a, b, c, d) { locals i; i = 500; while (i != 0) { i = i - 1; } y = a; }");
  EXPECT_EQ(Run({"check", path, "--allow=0", "--grid=0:9", "--mechanism=bare",
                 "--deadline-ms=1", "--threads=1"}),
            3);
  EXPECT_NE(out_.find("UNKNOWN"), std::string::npos);
  EXPECT_NE(out_.find("deadline exceeded"), std::string::npos);
}

TEST_F(CliTest, CheckRejectsBadDeadline) {
  const std::string path = WriteProgram("program p(a) { y = a; }");
  EXPECT_EQ(Run({"check", path, "--allow=0", "--deadline-ms=zero"}), 1);
  EXPECT_NE(err_.find("bad --deadline-ms"), std::string::npos);
  EXPECT_EQ(Run({"check", path, "--allow=0", "--deadline-ms=-4"}), 1);
}

TEST_F(CliTest, CheckFaultSpecInjectsFaults) {
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  // Persistent throw: structured abort, exit 4.
  EXPECT_EQ(Run({"check", path, "--allow=0", "--mechanism=bare", "--fault-spec=throw@4"}), 4);
  EXPECT_NE(out_.find("aborted"), std::string::npos);
  EXPECT_NE(out_.find("injected fault"), std::string::npos);
  // Wrong-value corruption surfaces as an ordinary unsound verdict (exit 2).
  EXPECT_EQ(Run({"check", path, "--allow=0", "--mechanism=bare", "--fault-spec=wrong@2"}), 2);
  EXPECT_NE(out_.find("UNSOUND"), std::string::npos);
  // A transient fault absorbed by one retry leaves the verdict untouched.
  EXPECT_EQ(Run({"check", path, "--allow=0", "--mechanism=bare", "--fault-spec=throw!@4",
                 "--retries=1"}),
            0);
  EXPECT_NE(out_.find("SOUND"), std::string::npos);
}

TEST_F(CliTest, CheckRejectsBadFaultFlags) {
  const std::string path = WriteProgram("program p(a) { y = a; }");
  EXPECT_EQ(Run({"check", path, "--allow=0", "--fault-spec=explode@1"}), 1);
  EXPECT_NE(err_.find("bad --fault-spec"), std::string::npos);
  EXPECT_EQ(Run({"check", path, "--allow=0", "--retries=-1"}), 1);
  EXPECT_NE(err_.find("bad --retries"), std::string::npos);
}

TEST_F(CliTest, CheckWithTimeAndGrid) {
  const std::string path = WriteProgram(
      "program p(sec) { locals c; c = sec; while (c != 0) { c = c - 1; } y = 1; }");
  EXPECT_EQ(Run({"check", path, "--allow=", "--grid=0:3", "--time", "--mechanism=bare"}), 2);
  EXPECT_EQ(Run({"check", path, "--allow=", "--grid=0:3", "--time", "--mechanism=mprime"}), 0);
}

TEST_F(CliTest, CheckAllMechanismKinds) {
  const std::string path = WriteProgram("program p(pub, sec) { y = pub + 1; }");
  for (const char* kind :
       {"surveillance", "mprime", "highwater", "static", "residual"}) {
    EXPECT_EQ(Run({"check", path, "--allow=0", std::string("--mechanism=") + kind}), 0)
        << kind;
  }
}

TEST_F(CliTest, AuditRunsAllSixChecksInOnePass) {
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  EXPECT_EQ(Run({"audit", path, "--allow=0"}), 0);
  // One section per checker, in order.
  for (const char* marker : {"SOUND", "PRESERVED", "M1 == M2", "maximal for",
                             "reveals-at-most", "leak:"}) {
    EXPECT_NE(out_.find(marker), std::string::npos) << marker;
  }

  // Worst section drives the exit code: the bare mechanism leaks sec.
  const std::string leaky = WriteProgram("program p(pub, sec) { y = sec; }");
  EXPECT_EQ(Run({"audit", leaky, "--allow=0", "--mechanism=bare"}), 2);
  EXPECT_NE(out_.find("UNSOUND"), std::string::npos);

  // Flag validation mirrors the other verbs.
  EXPECT_EQ(Run({"audit", path}), 1);  // missing --allow
  EXPECT_NE(err_.find("--allow"), std::string::npos);
  EXPECT_EQ(Run({"audit", path, "--allow=0", "--allow2=9"}), 1);
  EXPECT_NE(err_.find("allow index 9 out of range"), std::string::npos);
  EXPECT_EQ(Run({"audit", path, "--allow=0", "--mechanism2=warp"}), 1);
  EXPECT_NE(err_.find("mechanism2"), std::string::npos);
}

TEST_F(CliTest, GridErrorsAreByteIdenticalAcrossVerbs) {
  // Every grid-taking verb funnels --grid through one parser, so a malformed
  // or inverted value produces one message, byte-for-byte, no matter the
  // verb.
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  for (const auto& [grid, expected] : std::vector<std::pair<std::string, std::string>>{
           {"1-3", "bad --grid value '1-3' (expected lo:hi)\n"},
           {"3:1", "bad --grid value '3:1' (lo 3 exceeds hi 1)\n"}}) {
    for (const char* verb : {"check", "audit", "advise"}) {
      EXPECT_EQ(Run({verb, path, "--allow=0", "--grid=" + grid}), 1) << verb << " " << grid;
      EXPECT_EQ(err_, expected) << verb;
      EXPECT_EQ(out_, "") << verb;
    }
  }
}

TEST_F(CliTest, UndeclaredFlagsExitOneOnEveryVerb) {
  // A misspelt flag must not leave a default in place. On this witness the
  // default surveillance mechanism is sound and the static one is not.
  const std::string nested = WriteProgram(
      "program nested(x0, x1, x2) { locals r1; "
      "if ((x2 * -3) < x1) { if (r1 == 0) { r1 = -2; } } y = r1; }");
  EXPECT_EQ(Run({"check", nested, "--allow=0,1", "--grid=-1:1", "--mechansim=static"}), 1);
  EXPECT_NE(err_.find("--mechansim"), std::string::npos) << err_;
  EXPECT_EQ(out_, "");
  EXPECT_EQ(Run({"check", nested, "--allow=0,1", "--grid=-1:1", "--mechanism=static"}), 2);
  EXPECT_NE(out_.find("UNSOUND"), std::string::npos);

  // `check` has one policy and one mechanism; the second ones are audit's.
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  for (const char* flag : {"--allow2=0", "--mechanism2=bare"}) {
    EXPECT_EQ(Run({"check", path, "--allow=0", flag}), 1) << flag;
    EXPECT_NE(err_.find(std::string(flag).substr(0, std::string(flag).find('='))),
              std::string::npos)
        << err_;
  }

  // Every verb refuses a flag it does not read before doing anything else:
  // serve starts no daemon, fuzz runs no iteration.
  for (const std::string verb :
       {"run", "monitor", "check", "audit", "batch", "--batch", "serve", "submit", "fuzz",
        "analyze", "instrument", "advise", "optimize", "decompile", "dot", "bytecode"}) {
    EXPECT_EQ(Run({verb, path, "--no-such-flag=1"}), 1) << verb;
    const std::string name = verb == "--batch" ? "batch" : verb;
    EXPECT_NE(err_.find("unknown flag --no-such-flag for " + name), std::string::npos)
        << verb << ": " << err_;
    EXPECT_EQ(out_, "") << verb;
  }
}

TEST_F(CliTest, SweepModeValidatesAndPreservesReportBytes) {
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  const std::string expected =
      "bad --sweep-mode value 'banana' (expected point or class)\n";
  EXPECT_EQ(Run({"check", path, "--allow=0", "--sweep-mode=banana"}), 1);
  EXPECT_EQ(err_, expected);
  EXPECT_EQ(Run({"audit", path, "--allow=0", "--sweep-mode=banana"}), 1);
  EXPECT_EQ(err_, expected);

  // The class sweep's contract at the CLI layer: same stdout, same exit code.
  for (const char* verb : {"check", "audit"}) {
    EXPECT_EQ(Run({verb, path, "--allow=0", "--sweep-mode=point"}), 0) << verb;
    const std::string point_out = out_;
    EXPECT_EQ(Run({verb, path, "--allow=0", "--sweep-mode=class"}), 0) << verb;
    EXPECT_EQ(out_, point_out) << verb;
    // And the default is "point".
    EXPECT_EQ(Run({verb, path, "--allow=0"}), 0) << verb;
    EXPECT_EQ(out_, point_out) << verb;
  }
}

TEST_F(CliTest, AnalyzeReportsLabels) {
  const std::string path = WriteProgram(
      "program p(pub, sec) { if (sec > 0) { y = 1; } else { y = 2; } }");
  EXPECT_EQ(Run({"analyze", path, "--allow=0"}), 0);
  EXPECT_NE(out_.find("NOT CERTIFIED"), std::string::npos);
  EXPECT_EQ(Run({"analyze", path, "--allow=0,1"}), 0);
  EXPECT_NE(out_.find("CERTIFIED"), std::string::npos);
}

TEST_F(CliTest, InstrumentPrintsShadowVariables) {
  const std::string path = WriteProgram("program p(a) { y = a; }");
  EXPECT_EQ(Run({"instrument", path, "--allow=0"}), 0);
  EXPECT_NE(out_.find("a_bar"), std::string::npos);
  EXPECT_NE(out_.find("C_bar"), std::string::npos);
}

TEST_F(CliTest, AdviseShowsCandidates) {
  const std::string path = WriteProgram(R"(
    program ex7(x1, x2) {
      locals r;
      if (x1 == 1) { r = 1; } else { r = 2; }
      if (r == 1) { y = 1; } else { y = 1; }
    })");
  EXPECT_EQ(Run({"advise", path, "--allow=1", "--grid=0:2"}), 0);
  EXPECT_NE(out_.find("if-to-select"), std::string::npos);
  EXPECT_NE(out_.find("chosen rewriting"), std::string::npos);
}

TEST_F(CliTest, OptimizeSimplifiesAndReports) {
  const std::string path = WriteProgram("program p(a) { y = a * 1 + 0; }");
  EXPECT_EQ(Run({"optimize", path}), 0);
  EXPECT_NE(out_.find("simplified 1 expressions"), std::string::npos);
  EXPECT_NE(out_.find("y <- a"), std::string::npos);
}

TEST_F(CliTest, DecompileRoundTripsAndAudits) {
  const std::string path = WriteProgram(
      "program p(n) { locals c; c = n; if (n > 0) { y = 1; } else { y = 2; } }");
  EXPECT_EQ(Run({"decompile", path}), 0);
  EXPECT_NE(out_.find("program p(n)"), std::string::npos);
  EXPECT_NE(out_.find("if ("), std::string::npos);
}

TEST_F(CliTest, DotEmitsGraph) {
  const std::string path = WriteProgram("program p(a) { if (a) { y = 1; } }");
  EXPECT_EQ(Run({"dot", path}), 0);
  EXPECT_NE(out_.find("digraph"), std::string::npos);
}

TEST_F(CliTest, BytecodeListsInstructions) {
  const std::string path = WriteProgram("program p(a) { y = a + 1; }");
  EXPECT_EQ(Run({"bytecode", path}), 0);
  EXPECT_NE(out_.find("halt"), std::string::npos);
}

TEST_F(CliTest, FuzzSmokeRunIsCleanAndWitnessesReplay) {
  const std::string dir = ::testing::TempDir() + "cli_fuzz_witnesses";
  std::filesystem::create_directories(dir);
  EXPECT_EQ(Run({"fuzz", "--seed=20260809", "--iterations=30", "--threads=7",
                 "--out-dir=" + dir}),
            0);
  EXPECT_NE(out_.find("30 iterations"), std::string::npos);
  EXPECT_NE(out_.find("0 disagreements"), std::string::npos);
  ASSERT_NE(out_.find("wrote "), std::string::npos) << out_;

  // Replay one of the witnesses it just wrote: expected findings are
  // permanent exhibits, so the phenomenon must still reproduce (exit 0).
  const size_t at = out_.find("wrote ") + 6;
  const std::string witness = out_.substr(at, out_.find('\n', at) - at);
  EXPECT_EQ(Run({"fuzz", "--replay=" + witness}), 0) << err_;
  EXPECT_NE(out_.find(": reproduces"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(CliTest, FuzzReplayReportsNonReproducingWitness) {
  // A hand-written timing-leak witness over a program with no leak at all:
  // the replay must run cleanly and report that nothing reproduces (exit 2).
  const std::string witness = WriteProgram(
      "{\"kind\": \"timing-leak-witness\", \"program\": \"program p(a) { y = a; }\", "
      "\"allow_bits\": 1, \"grid_lo\": -1, \"grid_hi\": 1}");
  EXPECT_EQ(Run({"fuzz", "--replay=" + witness}), 2) << err_;
  EXPECT_NE(out_.find("does not reproduce"), std::string::npos);
}

TEST_F(CliTest, FuzzRejectsBadFlags) {
  EXPECT_EQ(Run({"fuzz", "--seed=banana"}), 1);
  EXPECT_NE(err_.find("bad --seed"), std::string::npos);
  EXPECT_EQ(Run({"fuzz", "--iterations=0"}), 1);  // unbounded without a budget
  EXPECT_NE(err_.find("--budget-ms"), std::string::npos);
  EXPECT_EQ(Run({"fuzz", "--iterations=5", "--threads=-2"}), 1);
  EXPECT_EQ(Run({"fuzz", "--replay=/nonexistent/witness.json"}), 1);
  EXPECT_NE(err_.find("cannot open"), std::string::npos);
  const std::string junk = WriteProgram("not json");
  EXPECT_EQ(Run({"fuzz", "--replay=" + junk}), 1);
}

TEST_F(CliTest, ErrorsAreReported) {
  EXPECT_EQ(Run({}), 1);
  EXPECT_NE(err_.find("usage"), std::string::npos);

  EXPECT_EQ(Run({"frobnicate", "x.fl"}), 1);
  EXPECT_NE(err_.find("unknown command"), std::string::npos);

  EXPECT_EQ(Run({"run", "/nonexistent/file.fl", "--input="}), 1);
  EXPECT_NE(err_.find("cannot open"), std::string::npos);

  const std::string bad = WriteProgram("program p( { }");
  EXPECT_EQ(Run({"run", bad, "--input="}), 1);

  const std::string path = WriteProgram("program p(a) { y = a; }");
  EXPECT_EQ(Run({"monitor", path, "--input=1"}), 1);  // missing --allow
  EXPECT_NE(err_.find("--allow"), std::string::npos);
  EXPECT_EQ(Run({"monitor", path, "--allow=7", "--input=1"}), 1);  // out of range
  EXPECT_EQ(Run({"check", path, "--allow=0", "--mechanism=warp"}), 1);
}

TEST_F(CliTest, BatchRunsManifestAndPrintsJsonReport) {
  const std::string manifest = WriteProgram(R"({
    "defaults": {"program": "program p(pub, sec) { y = pub; }", "allow": [0]},
    "jobs": [
      {"id": "sound"},
      {"id": "leaky", "program": "program p(pub, sec) { y = sec; }",
       "mechanism": "bare"}
    ]
  })");
  // Worst per-job code wins: "sound" exits 0, "leaky" proves unsound (2).
  EXPECT_EQ(Run({"batch", manifest}), 2);
  EXPECT_NE(out_.find("\"id\": \"sound\""), std::string::npos);
  EXPECT_NE(out_.find("\"status\": \"completed\""), std::string::npos);
  EXPECT_NE(out_.find("\"exit_code\": 2"), std::string::npos);
  EXPECT_NE(out_.find("\"scheduler\""), std::string::npos);
  EXPECT_NE(out_.find("\"cache\""), std::string::npos);
  EXPECT_NE(out_.find("UNSOUND"), std::string::npos);  // embedded report text

  // The flag spelling and --pretty both work.
  EXPECT_EQ(Run({"--batch", manifest, "--pretty"}), 2);
  EXPECT_NE(out_.find("\"jobs\": ["), std::string::npos);
}

TEST_F(CliTest, BatchRejectsBadManifests) {
  EXPECT_EQ(Run({"batch"}), 1);
  EXPECT_NE(err_.find("missing manifest"), std::string::npos);

  EXPECT_EQ(Run({"batch", "/nonexistent/manifest.json"}), 1);
  EXPECT_NE(err_.find("cannot open"), std::string::npos);

  const std::string garbage = WriteProgram("{not json");
  EXPECT_EQ(Run({"batch", garbage}), 1);
  EXPECT_NE(err_.find("manifest"), std::string::npos);

  const std::string typo = WriteProgram(
      R"({"jobs": [{"cheker": "soundness", "program": "program p(a) { y = a; }"}]})");
  EXPECT_EQ(Run({"batch", typo}), 1);
  EXPECT_NE(err_.find("unknown key 'cheker'"), std::string::npos);
}

TEST_F(CliTest, BatchInvalidJobSpecExitsOneWithStructuredReport) {
  // The manifest parses, but the job itself is invalid (allow index out of
  // range): the batch still runs and reports the job as invalid.
  const std::string manifest = WriteProgram(
      R"({"jobs": [{"program": "program p(a) { y = a; }", "allow": [7]}]})");
  EXPECT_EQ(Run({"batch", manifest}), 1);
  EXPECT_NE(out_.find("\"status\": \"invalid\""), std::string::npos);
  EXPECT_NE(out_.find("allow:"), std::string::npos);
}

TEST_F(CliTest, CheckEmitsMetricsAndTraceFilesWithoutChangingStdout) {
  const std::string path = WriteProgram("program p(pub, sec) { y = pub; }");
  EXPECT_EQ(Run({"check", path, "--allow=0"}), 0);
  const std::string plain_stdout = out_;

  const std::string metrics_path = WriteProgram("");  // unique, auto-removed
  const std::string trace_path = WriteProgram("");
  EXPECT_EQ(Run({"check", path, "--allow=0", "--metrics-out=" + metrics_path,
                 "--trace-out=" + trace_path}),
            0);
  // Observability is a side channel: the human-facing report is unchanged.
  EXPECT_EQ(out_, plain_stdout);

  const Result<Json> metrics = Json::Parse(Slurp(metrics_path));
  ASSERT_TRUE(metrics.ok()) << metrics.error().ToString();
  const Json* counters = metrics.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("check.soundness.runs"), nullptr);
  EXPECT_EQ(counters->Find("check.soundness.runs")->AsInt(), 1);
  EXPECT_GE(counters->Find("sweep.points")->AsInt(), 1);

  const Result<Json> trace = Json::Parse(Slurp(trace_path));
  ASSERT_TRUE(trace.ok()) << trace.error().ToString();
  const Json* events = trace.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->Items().empty());
}

TEST_F(CliTest, AuditAndBatchEmitObsFiles) {
  const std::string program = WriteProgram("program p(pub, sec) { y = pub; }");
  const std::string metrics_path = WriteProgram("");
  const std::string trace_path = WriteProgram("");
  EXPECT_EQ(Run({"audit", program, "--allow=0", "--metrics-out=" + metrics_path,
                 "--trace-out=" + trace_path}),
            0);
  const Result<Json> metrics = Json::Parse(Slurp(metrics_path));
  ASSERT_TRUE(metrics.ok());
  // The audit runs every checker once over the shared table.
  for (const char* name : {"check.soundness.runs", "check.integrity.runs",
                           "check.completeness.runs", "check.maximal.runs",
                           "check.policy_compare.runs", "check.leak.runs",
                           "check.tabulate.runs"}) {
    ASSERT_NE(metrics.value().Find("counters")->Find(name), nullptr) << name;
    EXPECT_EQ(metrics.value().Find("counters")->Find(name)->AsInt(), 1) << name;
  }
  const Result<Json> trace = Json::Parse(Slurp(trace_path));
  ASSERT_TRUE(trace.ok());
  bool saw_audit_span = false;
  for (const Json& event : trace.value().Find("traceEvents")->Items()) {
    saw_audit_span = saw_audit_span || event.Find("name")->AsString() == "audit";
  }
  EXPECT_TRUE(saw_audit_span);

  const std::string manifest = WriteProgram(
      R"({"jobs": [{"program": "program p(pub, sec) { y = pub; }", "allow": [0]}]})");
  EXPECT_EQ(Run({"batch", manifest, "--metrics-out=" + metrics_path}), 0);
  const Result<Json> batch_metrics = Json::Parse(Slurp(metrics_path));
  ASSERT_TRUE(batch_metrics.ok());
  EXPECT_EQ(batch_metrics.value().Find("counters")->Find("service.batches")->AsInt(), 1);
  // The batch report on stdout stays metrics-free unless the manifest opts in.
  EXPECT_EQ(out_.find("\"metrics\""), std::string::npos);
}

TEST_F(CliTest, ObsFlagErrorsAndWriteFailures) {
  const std::string path = WriteProgram("program p(a) { y = a; }");
  EXPECT_EQ(Run({"check", path, "--allow=0", "--metrics-out="}), 1);
  EXPECT_NE(err_.find("--metrics-out"), std::string::npos);
  EXPECT_EQ(Run({"check", path, "--allow=0", "--trace-out="}), 1);

  // An unwritable sink upgrades a clean exit to 1 and says why...
  EXPECT_EQ(Run({"check", path, "--allow=0", "--metrics-out=/nonexistent/dir/m.json"}), 1);
  EXPECT_NE(err_.find("cannot write"), std::string::npos);

  // ...but never masks a worse verdict code: the unsound verdict's 2 wins.
  const std::string leaky = WriteProgram("program p(pub, sec) { y = sec; }");
  EXPECT_EQ(Run({"check", leaky, "--allow=0", "--mechanism=bare",
                 "--metrics-out=/nonexistent/dir/m.json"}),
            2);
}

TEST_F(CliTest, ParserErrorsCarryLocation) {
  const std::string bad = WriteProgram("program p(a) {\n  y = ;\n}");
  EXPECT_EQ(Run({"run", bad, "--input=1"}), 1);
  EXPECT_NE(err_.find(":2:"), std::string::npos);
}

TEST_F(CliTest, SubmitInlinesProgramFileClientSide) {
  ServerConfig config;
  config.unix_path = testlib::TempSocketPath("cli_submit");
  CheckServer server(std::move(config));
  ASSERT_TRUE(server.Start().ok());

  // The daemon refuses "program_file" on the wire, so `secpol submit` must
  // resolve it against the client's filesystem and inline the text.
  const std::string program = WriteProgram("program p(a) { y = a; }");
  const std::string job = WriteProgram(R"({"checker": "soundness", "allow": [0],
    "program_file": ")" + program + R"("})");
  EXPECT_EQ(Run({"submit", "--socket=" + server.unix_path(), "--job-file=" + job}), 0);
  EXPECT_NE(out_.find("\"status\": \"completed\""), std::string::npos) << out_;

  // A path the client cannot open is a client-side error; no frame is sent.
  const std::string bad_job = WriteProgram(R"({"program_file": "/no/such/file.fl"})");
  EXPECT_EQ(Run({"submit", "--socket=" + server.unix_path(), "--job-file=" + bad_job}), 1);
  EXPECT_NE(err_.find("cannot open"), std::string::npos) << err_;
  server.Shutdown();
}

}  // namespace
}  // namespace secpol
