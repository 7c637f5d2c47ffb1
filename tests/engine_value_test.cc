// Unit tests for the engine's Value semantics: cross-kind comparison
// coercions, the KeyCell keys hashed lookups equate values by, truthiness
// and display, and DateKeyed, the DATE/string rule of hashed lookups.

#include <gtest/gtest.h>

#include "engine/group_table.h"
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

/// The key every hashed lookup gives `v`.
KeyCell KeyOf(const Value& v) { return KeyCell::Of(Cell::Of(v)); }

TEST(ValueTest, HashConsistentWithEquality) {
  // Values that SqlEquals equates must key equal and hash equal (join,
  // DISTINCT and group-by correctness): 5 = 5.00 = 5.0, equal strings, and
  // a DATE with the integer of its day number.
  const Value five[] = {Value::Int(5), Value::Dec(Decimal::FromCents(500)),
                        Value::Dbl(5.0)};
  for (const Value& a : five) {
    for (const Value& b : five) {
      ASSERT_TRUE(Value::SqlEquals(a, b));
      EXPECT_TRUE(KeyOf(a) == KeyOf(b));
      EXPECT_EQ(KeyOf(a).Hash(), KeyOf(b).Hash());
    }
  }
  EXPECT_TRUE(KeyOf(Value::Str("abc")) == KeyOf(Value::Str("abc")));
  EXPECT_EQ(KeyOf(Value::Str("abc")).Hash(), KeyOf(Value::Str("abc")).Hash());
  const Value date = Value::Dt(Date::FromYmd(2000, 1, 1));
  const Value jdn = Value::Int(date.AsDate().jdn());
  ASSERT_TRUE(Value::SqlEquals(date, jdn));
  EXPECT_TRUE(KeyOf(date) == KeyOf(jdn));
  EXPECT_EQ(KeyOf(date).Hash(), KeyOf(jdn).Hash());
  EXPECT_FALSE(KeyOf(Value::Int(5)) == KeyOf(Value::Int(6)));
  EXPECT_NE(KeyOf(Value::Int(5)).Hash(), KeyOf(Value::Int(6)).Hash());
  EXPECT_FALSE(KeyOf(Value::Dec(Decimal::FromCents(550))) ==
               KeyOf(Value::Int(5)));
  EXPECT_TRUE(KeyOf(Value::Dec(Decimal::FromCents(550))) ==
              KeyOf(Value::Dbl(5.5)));
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

// ---- DateKeyed -----------------------------------------------------------
//
// Compare equates a DATE with a string naming it, but a key has one class;
// where a key position meets dates and strings, hashed lookups key each
// string through DateKeyed.

TEST(DateKeyTest, StringNamingADateBecomesThatDate) {
  const Value date = Value::Dt(Date::FromYmd(2000, 1, 5));
  const Value text = Value::Str("2000-01-05");
  const KeyCell key = DateKeyed(KeyOf(text));
  ASSERT_EQ(key.cell.kind, Value::Kind::kDate);
  EXPECT_EQ(key.cell.ToValue().AsDate().ToString(), "2000-01-05");
  EXPECT_TRUE(Value::SqlEquals(text, date));
  EXPECT_TRUE(key == KeyOf(date));
  EXPECT_EQ(key.Hash(), KeyOf(date).Hash());
  EXPECT_TRUE(DateKeyed(KeyOf(Value::Str(" 2000-1-5"))) == KeyOf(date));
}

TEST(DateKeyTest, StringNamingNoDateKeepsItsKey) {
  for (const char* text :
       {"", "x", "2000-01", "2000/01/05", "20000105", "2000-02-30"}) {
    const Value value = Value::Str(text);
    const KeyCell key = KeyOf(value);
    const KeyCell keyed = DateKeyed(key);
    EXPECT_EQ(keyed.cls, KeyClass::kString) << "'" << text << "'";
    EXPECT_TRUE(keyed == key) << "'" << text << "'";
    EXPECT_EQ(keyed.cell.str, text);
  }
}

TEST(DateKeyTest, OtherKindsPassThrough) {
  const Value date = Value::Dt(Date::FromYmd(1999, 2, 21));
  EXPECT_EQ(DateKeyed(KeyOf(date)).cell.kind, Value::Kind::kDate);
  EXPECT_EQ(DateKeyed(KeyOf(date)).cell.ToValue().AsDate().ToString(),
            "1999-02-21");
  EXPECT_EQ(DateKeyed(KeyOf(Value::Int(20000105))).cell.kind,
            Value::Kind::kInt);
  EXPECT_EQ(DateKeyed(KeyOf(Value::Int(20000105))).eq, 20000105);
  EXPECT_EQ(DateKeyed(KeyOf(Value::Dec(Decimal::FromCents(500)))).cell.word,
            500);
  EXPECT_EQ(DateKeyed(KeyOf(Value::Null())).cls, KeyClass::kNull);
}

}  // namespace
}  // namespace tpcds
