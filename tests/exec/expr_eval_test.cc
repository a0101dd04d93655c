#include "exec/expr_eval.h"

#include <gtest/gtest.h>

namespace qopt::exec {
namespace {

using ast::BinaryOp;
using plan::BExpr;
using plan::MakeBinary;
using plan::MakeColumn;
using plan::MakeIsNull;
using plan::MakeLiteral;
using plan::MakeNot;

class ExprEvalTest : public ::testing::Test {
 protected:
  ExprEvalTest() {
    colmap_[{0, 0}] = 0;
    colmap_[{0, 1}] = 1;
    row_ = {Value::Int(10), Value::Null()};
    ctx_.colmap = &colmap_;
    ctx_.row = &row_;
    ctx_.params = &params_;
  }

  BExpr Col(int i, TypeId t = TypeId::kInt64) {
    return MakeColumn({0, i}, t, "c");
  }

  ColMap colmap_;
  Row row_;
  ParamMap params_;
  EvalContext ctx_;
};

TEST_F(ExprEvalTest, ColumnAndLiteral) {
  EXPECT_EQ(EvalExpr(*Col(0), ctx_).AsInt(), 10);
  EXPECT_EQ(EvalExpr(*MakeLiteral(Value::Int(7)), ctx_).AsInt(), 7);
}

TEST_F(ExprEvalTest, Arithmetic) {
  BExpr sum = MakeBinary(BinaryOp::kAdd, Col(0), MakeLiteral(Value::Int(5)));
  EXPECT_EQ(EvalExpr(*sum, ctx_).AsInt(), 15);
  BExpr div = MakeBinary(BinaryOp::kDiv, Col(0), MakeLiteral(Value::Int(4)));
  EXPECT_DOUBLE_EQ(EvalExpr(*div, ctx_).AsDouble(), 2.5);
  BExpr mixed =
      MakeBinary(BinaryOp::kMul, Col(0), MakeLiteral(Value::Double(1.5)));
  EXPECT_DOUBLE_EQ(EvalExpr(*mixed, ctx_).AsDouble(), 15.0);
}

TEST_F(ExprEvalTest, DivisionByZeroYieldsNull) {
  BExpr div = MakeBinary(BinaryOp::kDiv, Col(0), MakeLiteral(Value::Int(0)));
  EXPECT_TRUE(EvalExpr(*div, ctx_).is_null());
}

TEST_F(ExprEvalTest, NullPropagation) {
  BExpr sum = MakeBinary(BinaryOp::kAdd, Col(1), MakeLiteral(Value::Int(5)));
  EXPECT_TRUE(EvalExpr(*sum, ctx_).is_null());
  BExpr cmp = MakeBinary(BinaryOp::kEq, Col(1), MakeLiteral(Value::Int(5)));
  EXPECT_TRUE(EvalExpr(*cmp, ctx_).is_null());
}

TEST_F(ExprEvalTest, KleeneAndOr) {
  BExpr null_cmp = MakeBinary(BinaryOp::kEq, Col(1),
                              MakeLiteral(Value::Int(1)));  // NULL
  BExpr t = MakeLiteral(Value::Bool(true));
  BExpr f = MakeLiteral(Value::Bool(false));
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  EXPECT_FALSE(EvalExpr(*MakeBinary(BinaryOp::kAnd, f, null_cmp), ctx_)
                   .AsBool());
  EXPECT_TRUE(
      EvalExpr(*MakeBinary(BinaryOp::kAnd, t, null_cmp), ctx_).is_null());
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  EXPECT_TRUE(EvalExpr(*MakeBinary(BinaryOp::kOr, t, null_cmp), ctx_)
                  .AsBool());
  EXPECT_TRUE(
      EvalExpr(*MakeBinary(BinaryOp::kOr, f, null_cmp), ctx_).is_null());
}

TEST_F(ExprEvalTest, NotThreeValued) {
  BExpr null_cmp =
      MakeBinary(BinaryOp::kEq, Col(1), MakeLiteral(Value::Int(1)));
  EXPECT_TRUE(EvalExpr(*MakeNot(null_cmp), ctx_).is_null());
  EXPECT_FALSE(
      EvalExpr(*MakeNot(MakeLiteral(Value::Bool(true))), ctx_).AsBool());
}

TEST_F(ExprEvalTest, IsNull) {
  EXPECT_TRUE(EvalExpr(*MakeIsNull(Col(1), false), ctx_).AsBool());
  EXPECT_FALSE(EvalExpr(*MakeIsNull(Col(0), false), ctx_).AsBool());
  EXPECT_TRUE(EvalExpr(*MakeIsNull(Col(0), true), ctx_).AsBool());
}

TEST_F(ExprEvalTest, InListSemantics) {
  auto in = std::make_shared<plan::BoundExpr>();
  in->kind = plan::BoundKind::kInList;
  in->type = TypeId::kBool;
  in->children = {Col(0), MakeLiteral(Value::Int(10)),
                  MakeLiteral(Value::Int(20))};
  EXPECT_TRUE(EvalExpr(*in, ctx_).AsBool());

  // No match but NULL present in list: result is NULL.
  auto in_null = std::make_shared<plan::BoundExpr>();
  in_null->kind = plan::BoundKind::kInList;
  in_null->type = TypeId::kBool;
  in_null->children = {Col(0), MakeLiteral(Value::Int(99)),
                       MakeLiteral(Value::Null())};
  EXPECT_TRUE(EvalExpr(*in_null, ctx_).is_null());
}

TEST_F(ExprEvalTest, LikeMatching) {
  EXPECT_TRUE(LikeMatch("Denver", "Den%"));
  EXPECT_TRUE(LikeMatch("Denver", "%ver"));
  EXPECT_TRUE(LikeMatch("Denver", "D_nver"));
  EXPECT_TRUE(LikeMatch("Denver", "%"));
  EXPECT_FALSE(LikeMatch("Denver", "Dx%"));
  EXPECT_FALSE(LikeMatch("Denver", "Denve"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
}

TEST_F(ExprEvalTest, CorrelatedParamsResolve) {
  params_[{9, 0}] = Value::Int(77);
  BExpr outer = MakeColumn({9, 0}, TypeId::kInt64, "outer");
  EXPECT_EQ(EvalExpr(*outer, ctx_).AsInt(), 77);
}

TEST_F(ExprEvalTest, EvalPredicateRejectsNullAndFalse) {
  BExpr null_cmp =
      MakeBinary(BinaryOp::kEq, Col(1), MakeLiteral(Value::Int(1)));
  EXPECT_FALSE(EvalPredicate(null_cmp, ctx_));
  EXPECT_FALSE(EvalPredicate(MakeLiteral(Value::Bool(false)), ctx_));
  EXPECT_TRUE(EvalPredicate(MakeLiteral(Value::Bool(true)), ctx_));
  EXPECT_TRUE(EvalPredicate(nullptr, ctx_));
}

TEST_F(ExprEvalTest, CaseExpression) {
  auto c = std::make_shared<plan::BoundExpr>();
  c->kind = plan::BoundKind::kCase;
  c->type = TypeId::kString;
  c->children = {
      MakeBinary(BinaryOp::kGt, Col(0), MakeLiteral(Value::Int(5))),
      MakeLiteral(Value::String("big")), MakeLiteral(Value::String("small"))};
  EXPECT_EQ(EvalExpr(*c, ctx_).AsString(), "big");
}

TEST_F(ExprEvalTest, DoubleCaseWidensItsIntBranch) {
  // CASE WHEN c0 > 5 THEN c0 ELSE 2.5 END, typed DOUBLE by the binder.
  auto c = std::make_shared<plan::BoundExpr>();
  c->kind = plan::BoundKind::kCase;
  c->type = TypeId::kDouble;
  c->children = {MakeBinary(BinaryOp::kGt, Col(0), MakeLiteral(Value::Int(5))),
                 Col(0), MakeLiteral(Value::Double(2.5))};
  const Value v = EvalExpr(*c, ctx_);
  ASSERT_EQ(v.type(), TypeId::kDouble);
  EXPECT_EQ(v.AsDouble(), 10.0);
}

}  // namespace
}  // namespace qopt::exec
