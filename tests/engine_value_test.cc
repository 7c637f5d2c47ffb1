// Unit tests for the engine's Value semantics: cross-kind comparison
// coercions, hash consistency with equality, truthiness and display, and
// the DateKey mapping of hashed date/string equality.

#include <gtest/gtest.h>

#include "engine/value.h"

namespace tpcds {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_EQ(Value::Dec(Decimal::FromCents(1234)).AsDecimal().cents(), 1234);
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_EQ(Value::Dt(Date::FromYmd(2000, 1, 1)).AsDate().ToString(),
            "2000-01-01");
  EXPECT_TRUE(Value::Int(7).is_numeric());
  EXPECT_FALSE(Value::Str("7").is_numeric());
}

TEST(ValueTest, NumericCoercionInComparison) {
  // int vs decimal vs double compare by numeric value.
  EXPECT_EQ(Value::Compare(Value::Int(5),
                           Value::Dec(Decimal::FromCents(500))),
            0);
  EXPECT_EQ(Value::Compare(Value::Int(5), Value::Dbl(5.0)), 0);
  EXPECT_LT(Value::Compare(Value::Dec(Decimal::FromCents(499)),
                           Value::Int(5)),
            0);
  EXPECT_GT(Value::Compare(Value::Dbl(5.01),
                           Value::Dec(Decimal::FromCents(500))),
            0);
}

TEST(ValueTest, DateStringComparison) {
  Value date = Value::Dt(Date::FromYmd(1999, 2, 21));
  EXPECT_EQ(Value::Compare(date, Value::Str("1999-02-21")), 0);
  EXPECT_LT(Value::Compare(date, Value::Str("1999-02-22")), 0);
  EXPECT_GT(Value::Compare(Value::Str("1999-02-22"), date), 0);
}

TEST(ValueTest, NullOrderingAndEquality) {
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
  EXPECT_LT(Value::Compare(Value::Null(), Value::Int(-1000)), 0);
  EXPECT_FALSE(Value::SqlEquals(Value::Null(), Value::Null()));
  EXPECT_FALSE(Value::SqlEquals(Value::Null(), Value::Int(0)));
  EXPECT_TRUE(Value::SqlEquals(Value::Int(3), Value::Int(3)));
}

TEST(ValueTest, HashConsistentWithEquality) {
  // Values that SqlEquals must hash equal (group-by / join correctness).
  EXPECT_EQ(Value::Int(5).Hash(),
            Value::Dec(Decimal::FromCents(500)).Hash());
  EXPECT_EQ(Value::Int(5).Hash(), Value::Dbl(5.0).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_NE(Value::Int(5).Hash(), Value::Int(6).Hash());
}

TEST(ValueTest, TruthinessForFilters) {
  EXPECT_TRUE(Value::Int(1).IsTruthy());
  EXPECT_TRUE(Value::Int(-1).IsTruthy());
  EXPECT_FALSE(Value::Int(0).IsTruthy());
  EXPECT_FALSE(Value::Null().IsTruthy());
  EXPECT_TRUE(Value::Dbl(0.5).IsTruthy());
  EXPECT_FALSE(Value::Dbl(0.0).IsTruthy());
  EXPECT_TRUE(Value::Str("x").IsTruthy());
  EXPECT_FALSE(Value::Str("").IsTruthy());
  EXPECT_TRUE(Value::Bool(true).IsTruthy());
  EXPECT_FALSE(Value::Bool(false).IsTruthy());
}

TEST(ValueTest, DisplayRendering) {
  EXPECT_EQ(Value::Null().ToDisplayString(), "NULL");
  EXPECT_EQ(Value::Int(-3).ToDisplayString(), "-3");
  EXPECT_EQ(Value::Dec(Decimal::FromCents(105)).ToDisplayString(), "1.05");
  EXPECT_EQ(Value::Dt(Date::FromYmd(2001, 12, 9)).ToDisplayString(),
            "2001-12-09");
  EXPECT_EQ(Value::Str("hi").ToDisplayString(), "hi");
  EXPECT_EQ(Value::Dbl(2.5).ToDisplayString(), "2.5000");
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value::Compare(Value::Str("apple"), Value::Str("banana")), 0);
  EXPECT_EQ(Value::Compare(Value::Str("a"), Value::Str("a")), 0);
  EXPECT_GT(Value::Compare(Value::Str("b"), Value::Str("ab")), 0);
}

// ---- DateKey -------------------------------------------------------------
//
// Compare equates a DATE with a string naming it, Hash does not; hashed
// joins and IN sets map the string side through DateKey.

TEST(DateKeyTest, StringNamingADateBecomesThatDate) {
  const Value date = Value::Dt(Date::FromYmd(2000, 1, 5));
  const Value key = DateKey(Value::Str("2000-01-05"));
  ASSERT_EQ(key.kind(), Value::Kind::kDate);
  EXPECT_EQ(key.AsDate().ToString(), "2000-01-05");
  EXPECT_TRUE(Value::SqlEquals(key, date));
  EXPECT_EQ(key.Hash(), date.Hash());
}

TEST(DateKeyTest, StringNamingNoDateEqualsNothing) {
  for (const char* text : {"", "x", "2000-01", "2000/01/05", "20000105"}) {
    const Value key = DateKey(Value::Str(text));
    EXPECT_TRUE(key.is_null()) << "'" << text << "'";
    EXPECT_FALSE(Value::SqlEquals(key, key)) << "'" << text << "'";
  }
}

TEST(DateKeyTest, OtherKindsPassThrough) {
  const Value date = Value::Dt(Date::FromYmd(1999, 2, 21));
  EXPECT_EQ(DateKey(date).kind(), Value::Kind::kDate);
  EXPECT_EQ(DateKey(date).AsDate().ToString(), "1999-02-21");
  EXPECT_EQ(DateKey(Value::Int(20000105)).kind(), Value::Kind::kInt);
  EXPECT_EQ(DateKey(Value::Int(20000105)).AsInt(), 20000105);
  EXPECT_EQ(DateKey(Value::Dec(Decimal::FromCents(500))).AsDecimal().cents(),
            500);
  EXPECT_TRUE(DateKey(Value::Null()).is_null());
}

}  // namespace
}  // namespace tpcds
