// Tests for the Minsky machine substrate and Fenton's data-mark machine
// (Example 1): the negative-inference leak and its repairs.

#include <gtest/gtest.h>

#include <ostream>

#include "src/mechanism/soundness.h"
#include "src/minsky/data_mark.h"
#include "src/minsky/minsky.h"
#include "src/policy/policy.h"

namespace secpol {
namespace {

TEST(MinskyTest, ProgramsValidate) {
  EXPECT_TRUE(MakeAddProgram().Valid());
  EXPECT_TRUE(MakeMoveProgram().Valid());
  EXPECT_TRUE(MakeIsZeroProgram().Valid());
  EXPECT_TRUE(MakeMinProgram().Valid());
  EXPECT_TRUE(MakeNegativeInferenceWitness().Valid());

  MinskyProgram bad = MakeAddProgram();
  bad.code[0].reg = 9;
  EXPECT_FALSE(bad.Valid());
}

struct BinaryMachineCase {
  Value a;
  Value b;
  Value expected;
};

// Names the test case by its parameter ("(3, 4) -> 7"), not by raw bytes.
void PrintTo(const BinaryMachineCase& c, std::ostream* os) {
  *os << '(' << c.a << ", " << c.b << ") -> " << c.expected;
}

class AddMachineTest : public ::testing::TestWithParam<BinaryMachineCase> {};

TEST_P(AddMachineTest, Computes) {
  const auto& c = GetParam();
  const MinskyResult r = RunMinsky(MakeAddProgram(), Input{c.a, c.b});
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.output, c.expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AddMachineTest,
                         ::testing::Values(BinaryMachineCase{0, 0, 0},
                                           BinaryMachineCase{3, 4, 7},
                                           BinaryMachineCase{0, 5, 5},
                                           BinaryMachineCase{7, 0, 7},
                                           BinaryMachineCase{-2, 3, 3}));  // clamp to 0

class MinMachineTest : public ::testing::TestWithParam<BinaryMachineCase> {};

TEST_P(MinMachineTest, Computes) {
  const auto& c = GetParam();
  const MinskyResult r = RunMinsky(MakeMinProgram(), Input{c.a, c.b});
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.output, c.expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinMachineTest,
                         ::testing::Values(BinaryMachineCase{0, 0, 0},
                                           BinaryMachineCase{2, 3, 2},
                                           BinaryMachineCase{3, 2, 2},
                                           BinaryMachineCase{5, 5, 5},
                                           BinaryMachineCase{0, 9, 0},
                                           BinaryMachineCase{9, 0, 0}));

TEST(MinskyTest, MoveAndIsZero) {
  EXPECT_EQ(RunMinsky(MakeMoveProgram(), Input{9, 4}).output, 4);
  EXPECT_EQ(RunMinsky(MakeIsZeroProgram(), Input{0}).output, 1);
  EXPECT_EQ(RunMinsky(MakeIsZeroProgram(), Input{7}).output, 0);
}

TEST(MinskyTest, StepsCountInstructions) {
  // add(0, n): DecJz is executed n+1 times plus n Inc and n Jmp, then Halt.
  const MinskyResult r0 = RunMinsky(MakeAddProgram(), Input{0, 0});
  const MinskyResult r2 = RunMinsky(MakeAddProgram(), Input{0, 2});
  EXPECT_EQ(r0.steps, 2u);               // DecJz (jump), Halt
  EXPECT_EQ(r2.steps, r0.steps + 2 * 3); // 2 iterations of DecJz/Inc/Jmp
}

TEST(MinskyTest, FuelExhaustion) {
  MinskyProgram spin;
  spin.name = "spin";
  spin.num_registers = 1;
  spin.num_inputs = 0;
  spin.code = {MinskyInst::Jmp(0)};
  const MinskyResult r = RunMinsky(spin, {}, /*fuel=*/100);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.steps, 100u);
}

TEST(MinskyTest, FallOffEndIsFlagged) {
  MinskyProgram p;
  p.name = "falls";
  p.num_registers = 1;
  p.num_inputs = 0;
  p.code = {MinskyInst::Inc(0)};
  const MinskyResult r = RunMinsky(p, {});
  EXPECT_TRUE(r.halted);
  EXPECT_TRUE(r.fell_off_end);
}

// --- The data-mark machine ---

TEST(DataMarkTest, NullComputationReleases) {
  DataMarkConfig config;  // nothing priv
  const DataMarkMachine m(MakeAddProgram(), config);
  const Outcome o = m.Run(Input{2, 3});
  ASSERT_TRUE(o.IsValue());
  EXPECT_EQ(o.value, 5);
}

TEST(DataMarkTest, PrivInputTaintsOutput) {
  DataMarkConfig config;
  config.priv_registers = VarSet{1};  // the added amount is priv
  const DataMarkMachine m(MakeAddProgram(), config);
  EXPECT_TRUE(m.Run(Input{2, 3}).IsViolation());
}

TEST(DataMarkTest, PcTaintPropagatesThroughWrites) {
  // is_zero branches on its (priv) input and then writes the output under a
  // priv pc: the output must be marked priv.
  DataMarkConfig config;
  config.priv_registers = VarSet{0};
  const DataMarkMachine m(MakeIsZeroProgram(), config);
  EXPECT_TRUE(m.Run(Input{0}).IsViolation());
  EXPECT_TRUE(m.Run(Input{3}).IsViolation());
}

// --- Example 1 continued: the unsound halt interpretation ---

TEST(NegativeInference, ErrorInterpretationLeaksWhetherXIsZero) {
  DataMarkConfig config;
  config.priv_registers = VarSet{0};
  config.guarded_halt = GuardedHaltSemantics::kErrorWhenPriv;
  const DataMarkMachine m(MakeNegativeInferenceWitness(), config);

  // "a program can be written that will output an error message if and only
  // if x = 0."
  EXPECT_TRUE(m.Run(Input{0}).IsViolation());
  EXPECT_TRUE(m.Run(Input{1}).IsValue());
  EXPECT_TRUE(m.Run(Input{5}).IsValue());

  const auto report = CheckSoundness(m, AllowPolicy::AllowNone(1),
                                     InputDomain::Range(1, 0, 3), Observability::kValueOnly);
  EXPECT_FALSE(report.sound);
}

TEST(NegativeInference, SkipInterpretationIsSoundOnTheWitness) {
  DataMarkConfig config;
  config.priv_registers = VarSet{0};
  config.guarded_halt = GuardedHaltSemantics::kSkipWhenPriv;
  const DataMarkMachine m(MakeNegativeInferenceWitness(), config);

  // Both paths fall through to the plain halt and release 0.
  EXPECT_TRUE(m.Run(Input{0}).IsValue());
  EXPECT_TRUE(m.Run(Input{4}).IsValue());
  EXPECT_TRUE(CheckSoundness(m, AllowPolicy::AllowNone(1), InputDomain::Range(1, 0, 3),
                             Observability::kValueOnly)
                  .sound);
}

TEST(NegativeInference, RepairedMachineUniformlyViolates) {
  DataMarkConfig config;
  config.priv_registers = VarSet{0};
  config.guarded_halt = GuardedHaltSemantics::kErrorWhenPriv;
  config.check_pc_at_halt = true;
  const DataMarkMachine m(MakeNegativeInferenceWitness(), config);

  // Checking P at the plain halt closes the channel: every input violates.
  EXPECT_TRUE(m.Run(Input{0}).IsViolation());
  EXPECT_TRUE(m.Run(Input{4}).IsViolation());
  EXPECT_TRUE(CheckSoundness(m, AllowPolicy::AllowNone(1), InputDomain::Range(1, 0, 3),
                             Observability::kValueOnly)
                  .sound);
}

TEST(DataMarkTest, GuardedHaltAsLastStatementIsUndefined) {
  // "the semantics of the halt statement are undefined in case the halt
  // statement is the last program statement."
  MinskyProgram p;
  p.name = "ends_with_guard";
  p.num_registers = 1;
  p.num_inputs = 1;
  p.code = {
      MinskyInst::DecJz(0, 1),    // taint P with the priv input
      MinskyInst::GuardedHalt(),  // last statement
  };
  DataMarkConfig config;
  config.priv_registers = VarSet{0};
  config.guarded_halt = GuardedHaltSemantics::kSkipWhenPriv;
  const DataMarkMachine m(p, config);
  const Outcome o = m.Run(Input{0});
  EXPECT_TRUE(o.IsViolation());
  EXPECT_NE(o.notice.find("undefined"), std::string::npos);
}

TEST(DataMarkTest, GuardedHaltReleasesWhenPcNull) {
  MinskyProgram p;
  p.name = "clean_guarded";
  p.num_registers = 1;
  p.num_inputs = 1;
  p.code = {MinskyInst::Inc(0), MinskyInst::GuardedHalt()};
  DataMarkConfig config;  // nothing priv
  const DataMarkMachine m(p, config);
  const Outcome o = m.Run(Input{4});
  ASSERT_TRUE(o.IsValue());
  EXPECT_EQ(o.value, 5);
}

TEST(DataMarkTest, NameReflectsConfiguration) {
  DataMarkConfig config;
  config.guarded_halt = GuardedHaltSemantics::kErrorWhenPriv;
  config.check_pc_at_halt = true;
  const DataMarkMachine m(MakeAddProgram(), config);
  EXPECT_NE(m.name().find("error-when-priv"), std::string::npos);
  EXPECT_NE(m.name().find("pc-checked"), std::string::npos);
}

}  // namespace
}  // namespace secpol
