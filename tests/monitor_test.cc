// Tests for the reference-monitor substrate: Example 2's file system,
// Example 4's leaky violation notices, Example 5's logon program, and the
// MLS lattice kernel.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "src/mechanism/completeness.h"
#include "src/mechanism/soundness.h"
#include "src/monitor/filesys.h"
#include "src/monitor/logon.h"
#include "src/monitor/mls.h"
#include "src/policy/policy.h"

namespace secpol {
namespace {

// A small 2-file domain: dirs in {0,1}, contents in {0,1,2}.
InputDomain TwoFileDomain() {
  return InputDomain::PerInput({{0, 1}, {0, 1}, {0, 1, 2}, {0, 1, 2}});
}

TEST(FileSystemTest, GrantsByDirectoryValue) {
  const FileSystem fs({1, 0}, {7, 9}, /*grant_value=*/1);
  EXPECT_EQ(fs.num_files(), 2);
  EXPECT_TRUE(fs.Granted(0));
  EXPECT_FALSE(fs.Granted(1));
  EXPECT_EQ(fs.RawContent(1), 9);
}

TEST(MonitorSessionTest, GrantedReadReturnsContent) {
  const FileSystem fs({1, 0}, {7, 9}, 1);
  MonitorSession session(fs, DenialMode::kFailStop);
  EXPECT_EQ(session.ReadFile(0), 7);
  EXPECT_FALSE(session.aborted());
  EXPECT_EQ(session.syscalls(), 1u);
}

TEST(MonitorSessionTest, FailStopLatchesAbort) {
  const FileSystem fs({1, 0}, {7, 9}, 1);
  MonitorSession session(fs, DenialMode::kFailStop);
  EXPECT_EQ(session.ReadFile(1), 0);
  EXPECT_TRUE(session.aborted());
  // The Example 2 notice.
  EXPECT_EQ(session.abort_notice(), "Illegal access attempted, run aborted");
  // Post-abort reads are inert.
  EXPECT_EQ(session.ReadFile(0), 0);
}

TEST(MonitorSessionTest, ZeroFillContinues) {
  const FileSystem fs({0, 1}, {7, 9}, 1);
  MonitorSession session(fs, DenialMode::kZeroFill);
  EXPECT_EQ(session.ReadFile(0), 0);
  EXPECT_FALSE(session.aborted());
  EXPECT_EQ(session.ReadFile(1), 9);
}

TEST(MonitorSessionTest, OutOfRangeReadsAreZero) {
  const FileSystem fs({1}, {7}, 1);
  MonitorSession session(fs, DenialMode::kFailStop);
  EXPECT_EQ(session.ReadFile(5), 0);
  EXPECT_EQ(session.ReadDirectory(-1), 0);
  EXPECT_FALSE(session.aborted());
}

// --- Example 2: soundness of the monitored mechanisms ---

struct MonitorCase {
  DenialMode mode;
  bool greedy;  // greedy summer vs compliant summer
  bool expect_sound;
};

// Names the test case by its parameter ("fail-stop greedy -> sound")
// instead of gtest's raw object bytes, whose padding differs from build to
// build.
void PrintTo(const MonitorCase& c, std::ostream* os) {
  *os << DenialModeName(c.mode) << (c.greedy ? " greedy" : " compliant") << " -> "
      << (c.expect_sound ? "sound" : "unsound");
}

class MonitorSoundnessTest : public ::testing::TestWithParam<MonitorCase> {};

TEST_P(MonitorSoundnessTest, AgainstDirectoryGatedPolicy) {
  const MonitorCase& c = GetParam();
  const auto mech =
      MakeMonitoredMechanism("sum", 2, 1, c.mode,
                             c.greedy ? MakeGreedySummer() : MakeCompliantSummer());
  const DirectoryGatedPolicy policy(2, 1);
  const auto report =
      CheckSoundness(*mech, policy, TwoFileDomain(), Observability::kValueOnly);
  EXPECT_EQ(report.sound, c.expect_sound)
      << DenialModeName(c.mode) << (c.greedy ? " greedy" : " compliant") << "\n"
      << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MonitorSoundnessTest,
    ::testing::Values(
        MonitorCase{DenialMode::kFailStop, false, true},
        MonitorCase{DenialMode::kFailStop, true, true},
        MonitorCase{DenialMode::kZeroFill, false, true},
        MonitorCase{DenialMode::kZeroFill, true, true},
        // Example 4: the notice-dependent-on-content monitor is unsound,
        // regardless of which program runs against it... the compliant
        // program never triggers a denial, so only the greedy one exposes
        // the leak.
        MonitorCase{DenialMode::kLeakyLenient, false, true},
        MonitorCase{DenialMode::kLeakyLenient, true, false}));

TEST(Example4, LeakIsThroughTheNoticeItself) {
  const auto mech =
      MakeMonitoredMechanism("sum", 2, 1, DenialMode::kLeakyLenient, MakeGreedySummer());
  // Same directories (file 1 denied), different protected contents: the
  // abort decision differs.
  const Outcome zero = mech->Run(Input{1, 0, 5, 0});
  const Outcome nonzero = mech->Run(Input{1, 0, 5, 3});
  EXPECT_TRUE(zero.IsValue());
  EXPECT_TRUE(nonzero.IsViolation());
}

TEST(MonitorCompletenessTest, ZeroFillMoreCompleteThanFailStopForGreedy) {
  const auto failstop =
      MakeMonitoredMechanism("sum", 2, 1, DenialMode::kFailStop, MakeGreedySummer());
  const auto zerofill =
      MakeMonitoredMechanism("sum", 2, 1, DenialMode::kZeroFill, MakeGreedySummer());
  const CompletenessStats stats = CompareCompleteness(*zerofill, *failstop, TwoFileDomain());
  EXPECT_EQ(stats.Relation(), CompletenessRelation::kFirstMore);
}

TEST(MonitorTest, AdaptiveReaderSoundUnderHonestMonitors) {
  const DirectoryGatedPolicy policy(2, 1);
  for (const DenialMode mode : {DenialMode::kFailStop, DenialMode::kZeroFill}) {
    const auto mech = MakeMonitoredMechanism("adaptive", 2, 1, mode, MakeAdaptiveReader());
    EXPECT_TRUE(
        CheckSoundness(*mech, policy, TwoFileDomain(), Observability::kValueOnly).sound)
        << DenialModeName(mode);
  }
}

TEST(MonitorTest, AdaptiveReaderExposesLeakyMonitor) {
  const auto mech = MakeMonitoredMechanism("adaptive", 2, 1, DenialMode::kLeakyLenient,
                                           MakeAdaptiveReader());
  const DirectoryGatedPolicy policy(2, 1);
  const auto report =
      CheckSoundness(*mech, policy, TwoFileDomain(), Observability::kValueOnly);
  EXPECT_FALSE(report.sound);
}

TEST(MonitorTest, CompliantSummerComputesTheGatedSum) {
  const auto mech =
      MakeMonitoredMechanism("sum", 2, 1, DenialMode::kFailStop, MakeCompliantSummer());
  EXPECT_EQ(mech->Run(Input{1, 1, 5, 7}).value, 12);
  EXPECT_EQ(mech->Run(Input{1, 0, 5, 7}).value, 5);
  EXPECT_EQ(mech->Run(Input{0, 0, 5, 7}).value, 0);
}

// --- Example 5: the logon program ---

TEST(LogonTest, AcceptsExactlyTheStoredPassword) {
  // Base-4 table 0b...: table = 2 + 1*4 = 6: user0 -> 2, user1 -> 1.
  const auto logon = MakeLogonProgram(2, 4);
  EXPECT_EQ(logon->Run(Input{0, 6, 2}).value, 1);
  EXPECT_EQ(logon->Run(Input{0, 6, 1}).value, 0);
  EXPECT_EQ(logon->Run(Input{1, 6, 1}).value, 1);
  EXPECT_EQ(logon->Run(Input{1, 6, 2}).value, 0);
}

TEST(LogonTest, OutOfRangeUidRejected) {
  const auto logon = MakeLogonProgram(2, 4);
  EXPECT_EQ(logon->Run(Input{7, 6, 2}).value, 0);
  EXPECT_EQ(logon->Run(Input{-1, 6, 2}).value, 0);
}

TEST(LogonTest, PasswordOfDigits) {
  EXPECT_EQ(PasswordOf(6, 0, 4), 2);
  EXPECT_EQ(PasswordOf(6, 1, 4), 1);
  EXPECT_EQ(PasswordOf(6, 2, 4), 0);
  EXPECT_EQ(PasswordOf(-1, 0, 4), -1);
}

TEST(Example5, LogonAsItsOwnMechanismIsUnsound) {
  const auto logon = MakeLogonProgram(2, 2);
  const AllowPolicy policy = MakeLogonPolicy();
  const InputDomain domain = InputDomain::PerInput({
      {0, 1},        // uid
      {0, 1, 2, 3},  // all 2-user tables over a binary alphabet
      {0, 1},        // guess
  });
  const auto report = CheckSoundness(*logon, policy, domain, Observability::kValueOnly);
  EXPECT_FALSE(report.sound);
  // "The amount of information obtained by the user is small": one accept /
  // reject bit per run.
}

TEST(Example5, TimingIsUniformSoTheLeakIsValueOnly) {
  const auto logon = MakeLogonProgram(2, 2);
  const Outcome a = logon->Run(Input{0, 0, 0});
  const Outcome b = logon->Run(Input{1, 3, 1});
  EXPECT_EQ(a.steps, b.steps);
}

// --- The MLS kernel ---

MlsUserProgram SumAllFiles() {
  return [](MlsSession& session) {
    Value sum = 0;
    for (int i = 0; i < session.num_files(); ++i) {
      sum += session.ReadFile(i);
    }
    return sum;
  };
}

MlsUserProgram SumVisibleFiles(ClassId clearance) {
  return [clearance](MlsSession& session) {
    Value sum = 0;
    for (int i = 0; i < session.num_files(); ++i) {
      if (session.FileClass(i) <= clearance) {  // linear lattice order
        sum += session.ReadFile(i);
      }
    }
    return sum;
  };
}

TEST(MlsTest, NoReadUpZeroFillsHighFiles) {
  const auto lattice = std::make_shared<LinearLattice>(LinearLattice::Military());
  // Files: unclassified, secret, top-secret; clearance: secret.
  const auto mech = MakeMlsMechanism("sum", lattice, {0, 2, 3}, 2, MlsMonitorKind::kNoReadUp,
                                     SumAllFiles());
  EXPECT_EQ(mech->Run(Input{1, 2, 4}).value, 3);  // top-secret read as 0
}

TEST(MlsTest, TaintAndCheckBlocksAtOutput) {
  const auto lattice = std::make_shared<LinearLattice>(LinearLattice::Military());
  const auto mech = MakeMlsMechanism("sum", lattice, {0, 2, 3}, 2,
                                     MlsMonitorKind::kTaintAndCheck, SumAllFiles());
  EXPECT_TRUE(mech->Run(Input{1, 2, 4}).IsViolation());
}

TEST(MlsTest, BothMonitorsSoundForTheInducedPolicy) {
  const auto lattice = std::make_shared<LinearLattice>(LinearLattice::Military());
  const std::vector<ClassId> classes = {0, 2, 3};
  const ClassId clearance = 2;
  const AllowPolicy policy = MakeMlsPolicy(*lattice, classes, clearance);
  ASSERT_EQ(policy.allowed(), (VarSet{0, 1}));

  const InputDomain domain = InputDomain::Uniform(3, {0, 1, 2});
  for (const MlsMonitorKind kind :
       {MlsMonitorKind::kNoReadUp, MlsMonitorKind::kTaintAndCheck}) {
    for (const bool greedy : {true, false}) {
      const auto mech = MakeMlsMechanism(
          "sum", lattice, classes, clearance, kind,
          greedy ? SumAllFiles() : SumVisibleFiles(clearance));
      EXPECT_TRUE(
          CheckSoundness(*mech, policy, domain, Observability::kValueOnly).sound)
          << MlsMonitorKindName(kind) << (greedy ? " greedy" : " visible-only");
    }
  }
}

TEST(MlsTest, NoReadUpMoreCompleteForGreedyPrograms) {
  // The greedy program touches a top-secret file; taint-and-check must then
  // refuse the output, while no-read-up degrades gracefully.
  const auto lattice = std::make_shared<LinearLattice>(LinearLattice::Military());
  const std::vector<ClassId> classes = {0, 3};
  const auto no_read_up = MakeMlsMechanism("sum", lattice, classes, 2,
                                           MlsMonitorKind::kNoReadUp, SumAllFiles());
  const auto taint = MakeMlsMechanism("sum", lattice, classes, 2,
                                      MlsMonitorKind::kTaintAndCheck, SumAllFiles());
  const InputDomain domain = InputDomain::Uniform(2, {0, 1});
  const CompletenessStats stats = CompareCompleteness(*no_read_up, *taint, domain);
  EXPECT_EQ(stats.Relation(), CompletenessRelation::kFirstMore);
}

TEST(MlsTest, TaintAndCheckMoreCompleteForCarefulPrograms) {
  // A program that reads only low files: both release; and a program that
  // reads high data into a dead variable — no-read-up zero-fills it (wrong
  // value would be computed by a program relying on the read), while
  // taint-and-check lets the read happen and only gates the output. Model
  // the latter: read high, discard, output a constant.
  const auto lattice = std::make_shared<LinearLattice>(LinearLattice::Military());
  const std::vector<ClassId> classes = {0, 3};
  const MlsUserProgram discard = [](MlsSession& session) {
    (void)session.ReadFile(1);  // top-secret, discarded
    return session.ReadFile(0);
  };
  const auto no_read_up =
      MakeMlsMechanism("discard", lattice, classes, 2, MlsMonitorKind::kNoReadUp, discard);
  const auto taint = MakeMlsMechanism("discard", lattice, classes, 2,
                                      MlsMonitorKind::kTaintAndCheck, discard);
  // Values agree (the discard makes them equal) but taint refuses: here
  // no-read-up wins. The label is conservative exactly like high-water.
  EXPECT_TRUE(no_read_up->Run(Input{5, 9}).IsValue());
  EXPECT_TRUE(taint->Run(Input{5, 9}).IsViolation());
}

// --- Writes and the *-property ---

TEST(MlsWriteTest, WriteUpAllowedWriteDownRefused) {
  const LinearLattice lattice = LinearLattice::Military();
  // Files: unclassified, top-secret. Writer cleared secret.
  MlsSession session(lattice, {0, 3}, {5, 9}, /*clearance=*/2, MlsMonitorKind::kNoReadUp,
                     WriteDiscipline::kStarProperty);
  EXPECT_TRUE(session.WriteFile(1, 42));   // write up: secret -> top-secret
  EXPECT_EQ(session.FinalContent(1), 42);
  EXPECT_FALSE(session.WriteFile(0, 77));  // write down: refused
  EXPECT_EQ(session.FinalContent(0), 5);
}

TEST(MlsWriteTest, UnrestrictedWritesGoAnywhere) {
  const LinearLattice lattice = LinearLattice::Military();
  MlsSession session(lattice, {0, 3}, {5, 9}, 2, MlsMonitorKind::kNoReadUp,
                     WriteDiscipline::kUnrestrictedWrite);
  EXPECT_TRUE(session.WriteFile(0, 77));
  EXPECT_EQ(session.FinalContent(0), 77);
}

TEST(MlsWriteTest, TaintedEffectiveLabelGovernsWrites) {
  const LinearLattice lattice = LinearLattice::Military();
  // Taint mode: a top-secret-cleared process that has read NOTHING may still
  // write an unclassified file; after reading top-secret data it may not.
  MlsSession session(lattice, {0, 3}, {5, 9}, /*clearance=*/3,
                     MlsMonitorKind::kTaintAndCheck, WriteDiscipline::kStarProperty);
  EXPECT_TRUE(session.WriteFile(0, 11));  // label still bottom
  (void)session.ReadFile(1);              // taint with top-secret
  EXPECT_FALSE(session.WriteFile(0, 22));
  EXPECT_EQ(session.FinalContent(0), 11);
}

// The laundering experiment: a secret-cleared program copies a high file
// into a low file; an unclassified observer then reads the low file.
MlsUserProgram MakeDowngrader() {
  return [](MlsSession& session) {
    const Value high = session.ReadFile(1);
    session.WriteFile(0, high);
    return Value{0};
  };
}

TEST(MlsWriteTest, UnrestrictedWritesLaunderHighDataAndCheckerConvicts) {
  const auto lattice = std::make_shared<LinearLattice>(LinearLattice::Military());
  // Observer is cleared only for file 0 (unclassified).
  const AllowPolicy observer_policy = MakeMlsPolicy(*lattice, {0, 3}, /*clearance=*/0);
  ASSERT_EQ(observer_policy.allowed(), VarSet{0});

  const auto leaky = MakeMlsObserverMechanism(
      "downgrade", lattice, {0, 3}, /*writer_clearance=*/3, MlsMonitorKind::kTaintAndCheck,
      WriteDiscipline::kUnrestrictedWrite, MakeDowngrader(), /*observed_file=*/0);
  const InputDomain domain = InputDomain::Uniform(2, {0, 1, 2});
  EXPECT_FALSE(
      CheckSoundness(*leaky, observer_policy, domain, Observability::kValueOnly).sound);
}

TEST(MlsWriteTest, StarPropertyClosesTheDowngrade) {
  const auto lattice = std::make_shared<LinearLattice>(LinearLattice::Military());
  const AllowPolicy observer_policy = MakeMlsPolicy(*lattice, {0, 3}, 0);
  const auto guarded = MakeMlsObserverMechanism(
      "downgrade", lattice, {0, 3}, 3, MlsMonitorKind::kTaintAndCheck,
      WriteDiscipline::kStarProperty, MakeDowngrader(), 0);
  const InputDomain domain = InputDomain::Uniform(2, {0, 1, 2});
  EXPECT_TRUE(
      CheckSoundness(*guarded, observer_policy, domain, Observability::kValueOnly).sound);
  // The write was refused, so the observer sees the original low content.
  EXPECT_EQ(guarded->Run(Input{5, 9}).value, 5);
}

TEST(MlsWriteTest, CleanWritersStillWorkUnderStarProperty) {
  // A writer that only copies low data to a low file: permitted and sound.
  const auto lattice = std::make_shared<LinearLattice>(LinearLattice::Military());
  const MlsUserProgram low_updater = [](MlsSession& session) {
    const Value low = session.ReadFile(0);
    session.WriteFile(0, low + 1);
    return Value{0};
  };
  const auto mech = MakeMlsObserverMechanism("low-update", lattice, {0, 3}, 3,
                                             MlsMonitorKind::kTaintAndCheck,
                                             WriteDiscipline::kStarProperty, low_updater, 0);
  EXPECT_EQ(mech->Run(Input{5, 9}).value, 6);
  const AllowPolicy observer_policy = MakeMlsPolicy(*lattice, {0, 3}, 0);
  EXPECT_TRUE(CheckSoundness(*mech, observer_policy, InputDomain::Uniform(2, {0, 1, 2}),
                             Observability::kValueOnly)
                  .sound);
}

}  // namespace
}  // namespace secpol
