// Tests for covert-channel measurement, the paging simulator, and the
// page-boundary password attack (Section 2's closing example).

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "src/channels/paging.h"
#include "src/channels/password_attack.h"
#include "src/channels/timing.h"
#include "src/flowlang/lower.h"
#include "src/mechanism/mechanism.h"
#include "src/policy/policy.h"
#include "src/surveillance/surveillance.h"

namespace secpol {
namespace {

TEST(LeakMeasureTest, SoundMechanismLeaksZeroBits) {
  const Program q = MustCompile("program q(pub, sec) { y = pub; }");
  const SurveillanceMechanism m = MakeSurveillanceM(Program(q), VarSet{0});
  const AllowPolicy policy(2, VarSet{0});
  const InputDomain domain = InputDomain::Range(2, 0, 3);
  const LeakReport report = MeasureLeak(m, policy, domain, Observability::kValueOnly);
  EXPECT_EQ(report.max_distinct_outcomes, 1u);
  EXPECT_DOUBLE_EQ(report.max_leak_bits, 0.0);
  EXPECT_EQ(report.leaky_classes, 0u);
}

TEST(LeakMeasureTest, TimingChannelQuantified) {
  // The loop program: 4 secret values -> 4 distinct step counts -> 2 bits.
  const Program q = MustCompile(
      "program loop(sec) { locals c; c = sec; while (c != 0) { c = c - 1; } y = 1; }");
  const ProgramAsMechanism m{Program(q)};
  const AllowPolicy policy = AllowPolicy::AllowNone(1);
  const InputDomain domain = InputDomain::Range(1, 0, 3);

  const LeakReport value_only = MeasureLeak(m, policy, domain, Observability::kValueOnly);
  EXPECT_DOUBLE_EQ(value_only.max_leak_bits, 0.0);

  const LeakReport with_time = MeasureLeak(m, policy, domain, Observability::kValueAndTime);
  EXPECT_EQ(with_time.max_distinct_outcomes, 4u);
  EXPECT_DOUBLE_EQ(with_time.max_leak_bits, 2.0);
  EXPECT_EQ(with_time.leaky_classes, 1u);
  EXPECT_NE(with_time.ToString().find("bits/run"), std::string::npos);
}

TEST(LeakMeasureTest, UnsoundValueLeakVisibleWithoutTime) {
  const Program q = MustCompile("program q(sec) { y = sec; }");
  const ProgramAsMechanism m{Program(q)};
  const LeakReport report = MeasureLeak(m, AllowPolicy::AllowNone(1),
                                        InputDomain::Range(1, 0, 7), Observability::kValueOnly);
  EXPECT_DOUBLE_EQ(report.max_leak_bits, 3.0);
}

TEST(PagedMemoryTest, FaultsOncePerPage) {
  PagedMemory memory(4);
  memory.Access(0);
  memory.Access(1);
  memory.Access(3);
  EXPECT_EQ(memory.faults(), 1u);
  memory.Access(4);
  EXPECT_EQ(memory.faults(), 2u);
  EXPECT_TRUE(memory.Resident(0));
  EXPECT_TRUE(memory.Resident(1));
  EXPECT_FALSE(memory.Resident(2));
}

TEST(PagedMemoryTest, FlushEvictsEverything) {
  PagedMemory memory(4);
  memory.Access(0);
  memory.FlushAll();
  EXPECT_FALSE(memory.Resident(0));
  memory.Access(0);
  EXPECT_EQ(memory.faults(), 2u);
}

TEST(PasswordCheckerTest, AcceptsOnlyTheSecret) {
  PasswordChecker checker({1, 2, 3}, 4);
  PagedMemory memory(1024);
  EXPECT_TRUE(checker.Check({1, 2, 3}, memory, 0));
  EXPECT_FALSE(checker.Check({1, 2, 0}, memory, 0));
  EXPECT_FALSE(checker.Check({1, 2}, memory, 0));
  EXPECT_EQ(checker.attempts(), 3u);
}

TEST(PasswordCheckerTest, EarlyExitTouchesOnlyComparedCells) {
  PasswordChecker checker({5, 5, 5}, 6);
  PagedMemory memory(1);  // one cell per page: faults == cells touched
  checker.Check({0, 5, 5}, memory, 0);
  EXPECT_EQ(memory.faults(), 1u);  // mismatch at position 0
  memory.FlushAll();
  checker.Check({5, 0, 5}, memory, 0);
  EXPECT_EQ(memory.faults(), 3u);  // 1 flushed + positions 0 and 1 touched
}

TEST(BruteForceTest, RecoversTheSecret) {
  PasswordChecker checker({2, 1}, 3);
  const AttackResult result = BruteForceAttack(checker, 1000);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.recovered, (std::vector<int>{2, 1}));
  // Lexicographic position of (2,1) in base 3 is 2*3+1 = 7 -> 8 guesses.
  EXPECT_EQ(result.guesses, 8u);
}

TEST(BruteForceTest, GivesUpAtTheGuessCap) {
  PasswordChecker checker({2, 2, 2}, 3);
  const AttackResult result = BruteForceAttack(checker, 5);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.guesses, 5u);
}

TEST(PageBoundaryTest, RecoversTheSecret) {
  PasswordChecker checker({3, 0, 2, 1}, 4);
  const AttackResult result = PageBoundaryAttack(checker);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.recovered, (std::vector<int>{3, 0, 2, 1}));
}

// The headline claim: n^k brute force vs n*k page probing.
struct WorkFactorCase {
  int k;
  int n;
};

// Names the test case by its parameter ("k=2 n=2"), not by raw bytes.
void PrintTo(const WorkFactorCase& c, std::ostream* os) { *os << "k=" << c.k << " n=" << c.n; }

class WorkFactorTest : public ::testing::TestWithParam<WorkFactorCase> {};

TEST_P(WorkFactorTest, PageAttackIsLinearPerPosition) {
  const auto& c = GetParam();
  // Worst-case secret for both attacks: the lexicographically last string.
  std::vector<int> secret(static_cast<size_t>(c.k), c.n - 1);

  PasswordChecker brute_victim(secret, c.n);
  const std::uint64_t space = static_cast<std::uint64_t>(std::pow(c.n, c.k));
  const AttackResult brute = BruteForceAttack(brute_victim, space + 1);
  ASSERT_TRUE(brute.found);
  EXPECT_EQ(brute.guesses, space);  // the full n^k

  PasswordChecker page_victim(secret, c.n);
  const AttackResult page = PageBoundaryAttack(page_victim);
  ASSERT_TRUE(page.found);
  EXPECT_LE(page.guesses, static_cast<std::uint64_t>(c.n) * c.k);
  if (space > static_cast<std::uint64_t>(c.n) * c.k) {
    EXPECT_LT(page.guesses, brute.guesses);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkFactorTest,
                         ::testing::Values(WorkFactorCase{2, 2}, WorkFactorCase{3, 3},
                                           WorkFactorCase{4, 4}, WorkFactorCase{5, 3},
                                           WorkFactorCase{6, 2}, WorkFactorCase{4, 8}));

TEST(PageBoundaryTest, WorksForEverySecretInASmallSpace) {
  // Exhaustive: every 3-symbol secret over a 3-letter alphabet.
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 3; ++c) {
        PasswordChecker checker({a, b, c}, 3);
        const AttackResult result = PageBoundaryAttack(checker);
        ASSERT_TRUE(result.found) << a << b << c;
        EXPECT_EQ(result.recovered, (std::vector<int>{a, b, c}));
        EXPECT_LE(result.guesses, 9u);
      }
    }
  }
}

}  // namespace
}  // namespace secpol
