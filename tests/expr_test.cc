// Unit tests for the expression language.

#include <gtest/gtest.h>

#include <limits>
#include <ostream>

#include "src/expr/expr.h"

namespace secpol {
namespace {

Value EvalWith(const Expr& e, std::vector<Value> env) { return e.Eval(env); }

TEST(ExprTest, ConstAndVar) {
  EXPECT_EQ(EvalWith(C(7), {}), 7);
  EXPECT_EQ(EvalWith(V(1), {10, 20, 30}), 20);
  EXPECT_EQ(EvalWith(Expr(), {}), 0);  // default Expr is the constant 0
}

struct BinCase {
  BinaryOp op;
  Value a;
  Value b;
  Value expected;
};

// Names the test case by its parameter ("2 + 3 -> 5") instead of gtest's
// raw object bytes, whose padding differs from build to build.
void PrintTo(const BinCase& c, std::ostream* os) {
  *os << c.a << ' ' << BinaryOpName(c.op) << ' ' << c.b << " -> " << c.expected;
}

class BinaryOpTest : public ::testing::TestWithParam<BinCase> {};

TEST_P(BinaryOpTest, Evaluates) {
  const BinCase& c = GetParam();
  const Expr e = Expr::Binary(c.op, C(c.a), C(c.b));
  EXPECT_EQ(e.Eval({}), c.expected)
      << BinaryOpName(c.op) << " on " << c.a << ", " << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinaryOpTest,
    ::testing::Values(BinCase{BinaryOp::kAdd, 2, 3, 5}, BinCase{BinaryOp::kAdd, -2, 2, 0},
                      BinCase{BinaryOp::kSub, 2, 3, -1}, BinCase{BinaryOp::kMul, -4, 3, -12},
                      BinCase{BinaryOp::kDiv, 7, 2, 3}, BinCase{BinaryOp::kDiv, -7, 2, -3},
                      BinCase{BinaryOp::kMod, 7, 3, 1}, BinCase{BinaryOp::kMod, -7, 3, -1},
                      BinCase{BinaryOp::kMin, 2, -5, -5}, BinCase{BinaryOp::kMax, 2, -5, 2}));

INSTANTIATE_TEST_SUITE_P(
    Totality, BinaryOpTest,
    ::testing::Values(BinCase{BinaryOp::kDiv, 5, 0, 0}, BinCase{BinaryOp::kMod, 5, 0, 0},
                      BinCase{BinaryOp::kDiv, std::numeric_limits<Value>::min(), -1,
                              std::numeric_limits<Value>::min()},
                      BinCase{BinaryOp::kMod, std::numeric_limits<Value>::min(), -1, 0}));

INSTANTIATE_TEST_SUITE_P(
    Bitwise, BinaryOpTest,
    ::testing::Values(BinCase{BinaryOp::kBitAnd, 6, 3, 2}, BinCase{BinaryOp::kBitOr, 6, 3, 7},
                      BinCase{BinaryOp::kBitXor, 6, 3, 5}));

INSTANTIATE_TEST_SUITE_P(
    Comparisons, BinaryOpTest,
    ::testing::Values(BinCase{BinaryOp::kEq, 3, 3, 1}, BinCase{BinaryOp::kEq, 3, 4, 0},
                      BinCase{BinaryOp::kNe, 3, 4, 1}, BinCase{BinaryOp::kNe, 3, 3, 0},
                      BinCase{BinaryOp::kLt, -1, 0, 1}, BinCase{BinaryOp::kLt, 0, 0, 0},
                      BinCase{BinaryOp::kLe, 0, 0, 1}, BinCase{BinaryOp::kGt, 1, 0, 1},
                      BinCase{BinaryOp::kGe, -1, 0, 0}));

INSTANTIATE_TEST_SUITE_P(
    Logical, BinaryOpTest,
    ::testing::Values(BinCase{BinaryOp::kAnd, 2, 3, 1}, BinCase{BinaryOp::kAnd, 2, 0, 0},
                      BinCase{BinaryOp::kOr, 0, 0, 0}, BinCase{BinaryOp::kOr, 0, -1, 1}));

TEST(ExprTest, OverflowWraps) {
  const Value max = std::numeric_limits<Value>::max();
  EXPECT_EQ(EvalWith(Add(C(max), C(1)), {}), std::numeric_limits<Value>::min());
  EXPECT_EQ(EvalWith(Mul(C(max), C(2)), {}), -2);
  EXPECT_EQ(EvalWith(Expr::Unary(UnaryOp::kNeg, C(std::numeric_limits<Value>::min())), {}),
            std::numeric_limits<Value>::min());
}

TEST(ExprTest, UnaryOps) {
  EXPECT_EQ(EvalWith(Expr::Unary(UnaryOp::kNeg, C(5)), {}), -5);
  EXPECT_EQ(EvalWith(Expr::Unary(UnaryOp::kNot, C(0)), {}), 1);
  EXPECT_EQ(EvalWith(Expr::Unary(UnaryOp::kNot, C(-3)), {}), 0);
}

TEST(ExprTest, SelectEvaluatesBothArmsButPicksOne) {
  const Expr e = Expr::Select(V(0), V(1), V(2));
  EXPECT_EQ(EvalWith(e, {1, 10, 20}), 10);
  EXPECT_EQ(EvalWith(e, {0, 10, 20}), 20);
  EXPECT_EQ(EvalWith(e, {-7, 10, 20}), 10);  // any nonzero condition is true
}

TEST(ExprTest, FreeVars) {
  EXPECT_EQ(C(3).FreeVars(), VarSet::Empty());
  EXPECT_EQ(V(4).FreeVars(), VarSet{4});
  const Expr e = Add(Mul(V(0), V(2)), Expr::Select(V(1), C(1), V(0)));
  EXPECT_EQ(e.FreeVars(), (VarSet{0, 1, 2}));
}

TEST(ExprTest, NodeCount) {
  EXPECT_EQ(C(1).NodeCount(), 1);
  EXPECT_EQ(Add(C(1), V(0)).NodeCount(), 3);
  EXPECT_EQ(Expr::Select(V(0), C(1), C(2)).NodeCount(), 4);
}

TEST(ExprTest, StructuralEquality) {
  EXPECT_TRUE(Add(V(0), C(1)).StructurallyEquals(Add(V(0), C(1))));
  EXPECT_FALSE(Add(V(0), C(1)).StructurallyEquals(Add(V(0), C(2))));
  EXPECT_FALSE(Add(V(0), C(1)).StructurallyEquals(Sub(V(0), C(1))));
  EXPECT_FALSE(V(0).StructurallyEquals(C(0)));
  const Expr shared = Mul(V(1), V(2));
  EXPECT_TRUE(shared.StructurallyEquals(shared));
  EXPECT_TRUE(Expr::Unary(UnaryOp::kNot, V(0))
                  .StructurallyEquals(Expr::Unary(UnaryOp::kNot, V(0))));
  EXPECT_FALSE(Expr::Unary(UnaryOp::kNot, V(0))
                   .StructurallyEquals(Expr::Unary(UnaryOp::kNeg, V(0))));
}

TEST(ExprTest, MapVars) {
  const Expr e = Add(V(0), Mul(V(1), C(3)));
  const Expr mapped = e.MapVars([](int id) { return id + 10; });
  EXPECT_EQ(mapped.FreeVars(), (VarSet{10, 11}));
  EXPECT_EQ(mapped.Eval(std::vector<Value>(12, 2)), 2 + 2 * 3);
  // Original untouched.
  EXPECT_EQ(e.FreeVars(), (VarSet{0, 1}));
}

TEST(ExprTest, ToString) {
  const Expr e = Add(V(0), C(2));
  EXPECT_EQ(e.ToString(), "(v0 + 2)");
  EXPECT_EQ(Expr::Binary(BinaryOp::kMin, V(0), V(1)).ToString(), "min(v0, v1)");
  EXPECT_EQ(Expr::Select(V(0), C(1), C(2)).ToString(), "select(v0, 1, 2)");
  EXPECT_EQ(Expr::Unary(UnaryOp::kNot, V(3)).ToString(), "!(v3)");
}

TEST(ExprTest, AccessorsRoundTrip) {
  const Expr e = Expr::Binary(BinaryOp::kBitXor, V(3), C(9));
  ASSERT_EQ(e.kind(), Expr::Kind::kBinary);
  EXPECT_EQ(e.binary_op(), BinaryOp::kBitXor);
  ASSERT_EQ(e.num_operands(), 2);
  EXPECT_EQ(e.operand(0).var_id(), 3);
  EXPECT_EQ(e.operand(1).const_value(), 9);

  const Expr u = Expr::Unary(UnaryOp::kNeg, V(1));
  ASSERT_EQ(u.kind(), Expr::Kind::kUnary);
  EXPECT_EQ(u.unary_op(), UnaryOp::kNeg);
  EXPECT_EQ(u.num_operands(), 1);
}

}  // namespace
}  // namespace secpol
