// Unit tests for the flowlang lexer, parser, pretty-printer, and lowering.

#include <gtest/gtest.h>

#include <ostream>

#include "src/flowchart/interpreter.h"
#include "src/flowlang/ast.h"
#include "src/flowlang/lexer.h"
#include "src/flowlang/lower.h"
#include "src/flowlang/parser.h"

namespace secpol {
namespace {

TEST(LexerTest, BasicTokens) {
  const auto tokens = Tokenize("program p(x) { y = x + 41; }");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_GE(t.size(), 12u);
  EXPECT_EQ(t[0].kind, TokenKind::kKwProgram);
  EXPECT_EQ(t[1].kind, TokenKind::kIdent);
  EXPECT_EQ(t[1].text, "p");
  EXPECT_EQ(t.back().kind, TokenKind::kEof);
}

TEST(LexerTest, TwoCharOperators) {
  const auto tokens = Tokenize("== != <= >= && ||");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, TokenKind::kEqEq);
  EXPECT_EQ(t[1].kind, TokenKind::kNotEq);
  EXPECT_EQ(t[2].kind, TokenKind::kLe);
  EXPECT_EQ(t[3].kind, TokenKind::kGe);
  EXPECT_EQ(t[4].kind, TokenKind::kAmpAmp);
  EXPECT_EQ(t[5].kind, TokenKind::kPipePipe);
}

TEST(LexerTest, CommentsAndPositions) {
  const auto tokens = Tokenize("a // comment to end of line\nb");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_EQ(t.size(), 3u);  // a, b, eof
  EXPECT_EQ(t[0].text, "a");
  EXPECT_EQ(t[1].text, "b");
  EXPECT_EQ(t[1].line, 2);
  EXPECT_EQ(t[1].column, 1);
}

TEST(LexerTest, IntegerValue) {
  const auto tokens = Tokenize("12345");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].int_value, 12345);
}

TEST(LexerTest, RejectsOutOfRangeInteger) {
  const auto tokens = Tokenize("99999999999999999999999999");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.error().message.find("out of range"), std::string::npos);
}

TEST(LexerTest, RejectsUnknownCharacter) {
  const auto tokens = Tokenize("a @ b");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.error().message.find("unexpected character"), std::string::npos);
}

TEST(ParserTest, MinimalProgram) {
  const auto parsed = ParseProgram("program p() { y = 1; }");
  ASSERT_TRUE(parsed.ok());
  const SourceProgram& p = parsed.value();
  EXPECT_EQ(p.name, "p");
  EXPECT_EQ(p.num_inputs(), 0);
  ASSERT_EQ(p.body.size(), 1u);
  EXPECT_EQ(p.body[0].kind, Stmt::Kind::kAssign);
  EXPECT_EQ(p.body[0].var, p.output_var());
}

TEST(ParserTest, ParamsAndLocals) {
  const auto parsed = ParseProgram("program p(a, b) { locals r, s; r = a; s = b; y = r + s; }");
  ASSERT_TRUE(parsed.ok());
  const SourceProgram& p = parsed.value();
  EXPECT_EQ(p.num_inputs(), 2);
  EXPECT_EQ(p.num_locals(), 2);
  EXPECT_EQ(p.FindVar("a"), 0);
  EXPECT_EQ(p.FindVar("s"), 3);
  EXPECT_EQ(p.FindVar("y"), 4);
}

TEST(ParserTest, RejectsUndeclaredVariable) {
  const auto parsed = ParseProgram("program p() { y = z; }");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("undeclared"), std::string::npos);
}

TEST(ParserTest, RejectsAssignToInput) {
  const auto parsed = ParseProgram("program p(x) { x = 1; }");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("input"), std::string::npos);
}

TEST(ParserTest, RejectsDuplicateNames) {
  const auto parsed = ParseProgram("program p(x) { locals x; y = 1; }");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("duplicate"), std::string::npos);
}

TEST(ParserTest, RejectsTrailingInput) {
  const auto parsed = ParseProgram("program p() { y = 1; } extra");
  ASSERT_FALSE(parsed.ok());
}

TEST(ParserTest, ErrorCarriesPosition) {
  const auto parsed = ParseProgram("program p() {\n  y = ;\n}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().line, 2);
}

// Precedence is easiest to verify through evaluation.
struct PrecCase {
  const char* source;
  Value expected;
};

// Names the test case by its source ("1 + 2 * 3 -> 7"), not by the bytes of
// the source pointer.
void PrintTo(const PrecCase& c, std::ostream* os) { *os << c.source << " -> " << c.expected; }

class PrecedenceTest : public ::testing::TestWithParam<PrecCase> {};

TEST_P(PrecedenceTest, EvaluatesWithCPrecedence) {
  const std::string source =
      std::string("program p() { y = ") + GetParam().source + "; }";
  const Program lowered = MustCompile(source);
  EXPECT_EQ(RunProgram(lowered, {}).output, GetParam().expected) << GetParam().source;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrecedenceTest,
    ::testing::Values(PrecCase{"1 + 2 * 3", 7}, PrecCase{"(1 + 2) * 3", 9},
                      PrecCase{"10 - 2 - 3", 5},  // left associative
                      PrecCase{"1 + 2 == 3", 1},  // + binds tighter than ==
                      PrecCase{"1 < 2 == 1", 1},  // < tighter than ==
                      PrecCase{"1 | 2 ^ 3 & 2", 1}, PrecCase{"0 || 1 && 0", 0},
                      PrecCase{"-2 * 3", -6}, PrecCase{"!0 + 1", 2},
                      PrecCase{"min(3, max(1, 2))", 2}, PrecCase{"select(2 > 1, 7, 8)", 7},
                      PrecCase{"7 % 3 + 1", 2}, PrecCase{"6 / 2 / 3", 1}));

TEST(LowerTest, IfElseSemantics) {
  const Program p = MustCompile(
      "program p(x) { if (x > 0) { y = 1; } else { y = 2; } }");
  EXPECT_EQ(RunProgram(p, Input{5}).output, 1);
  EXPECT_EQ(RunProgram(p, Input{0}).output, 2);
}

TEST(LowerTest, IfWithoutElseFallsThrough) {
  const Program p = MustCompile("program p(x) { y = 9; if (x == 0) { y = 1; } }");
  EXPECT_EQ(RunProgram(p, Input{0}).output, 1);
  EXPECT_EQ(RunProgram(p, Input{3}).output, 9);
}

TEST(LowerTest, WhileLoop) {
  const Program p = MustCompile(
      "program p(n) { locals c; c = n; while (c != 0) { y = y + c; c = c - 1; } }");
  EXPECT_EQ(RunProgram(p, Input{4}).output, 10);
  EXPECT_EQ(RunProgram(p, Input{0}).output, 0);
}

TEST(LowerTest, NestedControlFlow) {
  const Program p = MustCompile(R"(
    program p(a, b) {
      locals i;
      i = a;
      while (i != 0) {
        if (b > 0) { y = y + 2; } else { y = y + 1; }
        i = i - 1;
      }
    })");
  EXPECT_EQ(RunProgram(p, Input{3, 1}).output, 6);
  EXPECT_EQ(RunProgram(p, Input{3, 0}).output, 3);
}

TEST(LowerTest, ExplicitHaltStopsExecution) {
  const Program p = MustCompile("program p(x) { y = 1; if (x == 0) { halt; } y = 2; }");
  EXPECT_EQ(RunProgram(p, Input{0}).output, 1);
  EXPECT_EQ(RunProgram(p, Input{5}).output, 2);
}

TEST(LowerTest, EmptyBodyYieldsZero) {
  const Program p = MustCompile("program p(x) { }");
  const ExecResult r = RunProgram(p, Input{42});
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.output, 0);
}

TEST(PrettyPrintTest, RoundTripPreservesSemantics) {
  const char* source = R"(
    program rt(a, b) {
      locals c, r;
      r = a * 2;
      if (r > b) { y = r - b; } else { y = b - r; halt; }
      c = 3;
      while (c != 0) { y = y + 1; c = c - 1; }
    })";
  const SourceProgram original = MustParseProgram(source);
  const std::string printed = original.ToString();
  const SourceProgram reparsed = MustParseProgram(printed);
  EXPECT_TRUE(FunctionallyEquivalentOnGrid(Lower(original), Lower(reparsed),
                                           {-3, -1, 0, 1, 2, 5}));
}

TEST(PrettyPrintTest, ShowsLocalsAndStructure) {
  const SourceProgram p = MustParseProgram(
      "program q(x) { locals r; if (x == 0) { r = 1; } else { r = 2; } y = r; }");
  const std::string text = p.ToString();
  EXPECT_NE(text.find("locals r;"), std::string::npos);
  EXPECT_NE(text.find("} else {"), std::string::npos);
  EXPECT_NE(text.find("y = r;"), std::string::npos);
}

TEST(LowerTest, StepCountsMatchBoxSemantics) {
  // start, assign, halt = 3 steps.
  const Program p = MustCompile("program p() { y = 5; }");
  EXPECT_EQ(RunProgram(p, {}).steps, 3u);
}

}  // namespace
}  // namespace secpol
