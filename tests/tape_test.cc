// Tests for the one-way tape machine and the tab(i) soundness matrix (E15).

#include <gtest/gtest.h>

#include <ostream>

#include "src/mechanism/soundness.h"
#include "src/policy/policy.h"
#include "src/tape/tape.h"

namespace secpol {
namespace {

TEST(TapeMachineTest, MaterializesBlocks) {
  TapeMachine tape({{2, 7}, {3, 9}});
  EXPECT_EQ(tape.Read(), 7);
  tape.Advance();
  tape.Advance();
  EXPECT_EQ(tape.Read(), 9);
}

TEST(TapeMachineTest, ReadPastEndYieldsZero) {
  TapeMachine tape({{1, 5}});
  tape.Advance();
  EXPECT_EQ(tape.Read(), 0);
}

TEST(TapeMachineTest, WalkCostDependsOnSkippedLengths) {
  TapeMachine a({{2, 7}, {1, 9}});
  a.Tab(1, SeekStrategy::kWalk);
  TapeMachine b({{5, 7}, {1, 9}});
  b.Tab(1, SeekStrategy::kWalk);
  EXPECT_LT(a.steps(), b.steps());
}

TEST(TapeMachineTest, TabLinearAlsoDependsOnSkippedLengths) {
  TapeMachine a({{2, 7}, {1, 9}});
  a.Tab(1, SeekStrategy::kTabLinear);
  TapeMachine b({{5, 7}, {1, 9}});
  b.Tab(1, SeekStrategy::kTabLinear);
  EXPECT_LT(a.steps(), b.steps());
}

TEST(TapeMachineTest, TabConstantIsUniform) {
  TapeMachine a({{2, 7}, {1, 9}});
  a.Tab(1, SeekStrategy::kTabConstant);
  TapeMachine b({{50, 7}, {1, 9}});
  b.Tab(1, SeekStrategy::kTabConstant);
  EXPECT_EQ(a.steps(), b.steps());
  EXPECT_EQ(a.steps(), 1u);
}

TEST(BlockReaderTest, ReadsTargetSymbol) {
  const auto reader = MakeBlockReader(2, 1, SeekStrategy::kTabConstant);
  // (len0, sym0, len1, sym1)
  EXPECT_EQ(reader->Run(Input{3, 7, 2, 9}).value, 9);
  EXPECT_EQ(reader->Run(Input{0, 7, 2, 9}).value, 9);
}

TEST(BlockReaderTest, EmptyTargetBlockReadsZero) {
  const auto reader = MakeBlockReader(2, 1, SeekStrategy::kTabConstant);
  EXPECT_EQ(reader->Run(Input{3, 7, 0, 9}).value, 0);
}

TEST(BlockReaderTest, BlockCoordinatesHelper) {
  EXPECT_EQ(BlockCoordinates(0), (VarSet{0, 1}));
  EXPECT_EQ(BlockCoordinates(2), (VarSet{4, 5}));
}

// --- The E15 soundness matrix ---

struct TapeCase {
  SeekStrategy strategy;
  Observability obs;
  bool expect_sound;
};

// Names the test case by its parameter ("walk / value-only -> sound")
// instead of gtest's raw object bytes, whose padding differs from build to
// build.
void PrintTo(const TapeCase& c, std::ostream* os) {
  *os << SeekStrategyName(c.strategy) << " / " << ObservabilityName(c.obs) << " -> "
      << (c.expect_sound ? "sound" : "unsound");
}

class TapeSoundnessTest : public ::testing::TestWithParam<TapeCase> {};

TEST_P(TapeSoundnessTest, MatrixEntry) {
  const TapeCase& c = GetParam();
  // Two blocks; policy allow(z2) — the paper's allow(2), coordinates {2,3}.
  const auto reader = MakeBlockReader(2, 1, c.strategy);
  const AllowPolicy policy(4, BlockCoordinates(1));
  const InputDomain domain = InputDomain::PerInput({
      {0, 1, 3},  // len of z1 — the disallowed length the walk leaks
      {5, 6},     // symbol of z1
      {1, 2},     // len of z2
      {8, 9},     // symbol of z2
  });
  const auto report = CheckSoundness(*reader, policy, domain, c.obs);
  EXPECT_EQ(report.sound, c.expect_sound)
      << SeekStrategyName(c.strategy) << " / " << ObservabilityName(c.obs) << "\n"
      << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TapeSoundnessTest,
    ::testing::Values(
        // Time unobservable: every strategy is sound (the value never
        // depends on z1).
        TapeCase{SeekStrategy::kWalk, Observability::kValueOnly, true},
        TapeCase{SeekStrategy::kTabLinear, Observability::kValueOnly, true},
        TapeCase{SeekStrategy::kTabConstant, Observability::kValueOnly, true},
        // Time observable: "no program Q can read z2 and also be sound...
        // it will encode the length of z1" — unless tab is constant-time.
        TapeCase{SeekStrategy::kWalk, Observability::kValueAndTime, false},
        TapeCase{SeekStrategy::kTabLinear, Observability::kValueAndTime, false},
        TapeCase{SeekStrategy::kTabConstant, Observability::kValueAndTime, true}));

TEST(TapeSoundnessTest, ReadingOwnBlockIsAlwaysFine) {
  // Reading block 0 crosses nothing: sound in every configuration.
  for (const SeekStrategy s :
       {SeekStrategy::kWalk, SeekStrategy::kTabLinear, SeekStrategy::kTabConstant}) {
    const auto reader = MakeBlockReader(2, 0, s);
    const AllowPolicy policy(4, BlockCoordinates(0));
    const InputDomain domain = InputDomain::PerInput({{1, 2}, {5, 6}, {0, 3}, {8, 9}});
    EXPECT_TRUE(
        CheckSoundness(*reader, policy, domain, Observability::kValueAndTime).sound)
        << SeekStrategyName(s);
  }
}

}  // namespace
}  // namespace secpol
