// One rule for which keys are equal, in every hashed form: one-key and
// two-key hash joins, star semi-joins, IN subqueries, DISTINCT, UNION,
// INTERSECT, EXCEPT, GROUP BY, COUNT(DISTINCT) and window partitions.
// Each keys through KeyCell: 5, 5.00 and 5.0 are one key, a DATE equals
// the integer of its day number, a DATE meeting strings equals the string
// naming it, and a NULL key never joins but is one group.
//
// The expected answers are literal: the row operators key through the
// tables the vectorized path uses, so running one against the other would
// not catch a key-equality bug. Each statement runs with vectorized
// execution on and off, at parallelism 1 and 4.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"

namespace tpcds {
namespace {

/// A value with its kind, so that a DATE and the string naming it, or an
/// int and a decimal, read apart.
std::string Render(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kInt: return "i:" + v.ToDisplayString();
    case Value::Kind::kDecimal: return "m:" + v.ToDisplayString();
    case Value::Kind::kDouble: return "f:" + v.ToDisplayString();
    case Value::Kind::kString: return "s:" + v.ToDisplayString();
    case Value::Kind::kDate: return "d:" + v.ToDisplayString();
  }
  return "?";
}

/// Rows joined by '|', values by ','.
std::string Render(const QueryResult& r) {
  std::string out;
  for (const auto& row : r.rows) {
    if (!out.empty()) out += "|";
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ",";
      out += Render(row[c]);
    }
  }
  return out;
}

/// The key values of every kind. Row 1 holds 5 as an int and a decimal
/// (and `i / 1` makes it a double), a DATE, the string naming it and the
/// integer of its day number; row 2 holds NULLs; row 3 holds unequal
/// numbers, another DATE, a string naming no date and an integer that is
/// no day number of a row.
const char* const kDates = "SELECT dt AS k FROM a UNION ALL SELECT s AS k "
                           "FROM a UNION ALL SELECT j AS k FROM a";
const char* const kNumbers = "SELECT i AS k, id FROM a UNION ALL SELECT m "
                             "AS k, id FROM a UNION ALL SELECT i / 1 AS k, "
                             "id FROM a";

class KeyEqualityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTable("a", {{"id", ColumnType::kInteger},
                                       {"i", ColumnType::kInteger},
                                       {"m", ColumnType::kDecimal},
                                       {"dt", ColumnType::kDate},
                                       {"s", ColumnType::kVarchar},
                                       {"j", ColumnType::kInteger}})
                    .ok());
    const std::string jdn =
        std::to_string(Date::Parse("2000-01-01").ValueOrDie().jdn());
    EngineTable* a = db_->FindTable("a");
    ASSERT_TRUE(a->AppendRowStrings({"1", "5", "5.00", "2000-01-01",
                                     "2000-01-01", jdn})
                    .ok());
    ASSERT_TRUE(a->AppendRowStrings({"2", "", "", "", "", ""}).ok());
    ASSERT_TRUE(a->AppendRowStrings({"3", "6", "6.50", "2000-01-02",
                                     "not a date", "6"})
                    .ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// Runs each statement with vectorized execution on and off, at
  /// parallelism 1 and 4, and expects its answer every time.
  static void ExpectAnswers(
      const std::vector<std::pair<std::string, std::string>>& cases) {
    for (const auto& [sql, expected] : cases) {
      for (bool vectorized : {true, false}) {
        for (int workers : {1, 4}) {
          PlannerOptions options = db_->default_options();
          options.vectorized_execution = vectorized;
          options.parallelism = workers;
          Result<QueryResult> r = db_->Query(sql, options, nullptr);
          ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
          EXPECT_EQ(Render(*r), expected)
              << sql << "\nvectorized " << vectorized << ", parallelism "
              << workers;
        }
      }
    }
  }

  /// Expects the plan of `sql` to contain `op`, so that a case tests the
  /// form it names.
  static void ExpectPlanHas(const std::string& sql, const std::string& op) {
    Result<std::string> plan = db_->Explain(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    EXPECT_NE(plan->find(op), std::string::npos) << sql << "\n" << *plan;
  }

  static Database* db_;
};

Database* KeyEqualityTest::db_ = nullptr;

TEST_F(KeyEqualityTest, OneKeyHashJoins) {
  const std::string join = "SELECT x.id, y.id FROM a x JOIN a y ON ";
  ExpectPlanHas(join + "x.i = y.m", "hash join");
  ExpectAnswers({
      {join + "x.i = y.m ORDER BY x.id", "i:1,i:1"},
      {join + "x.m = y.i / 1 ORDER BY x.id", "i:1,i:1"},
      {join + "x.i / 1 = y.m ORDER BY x.id", "i:1,i:1"},
      {join + "x.dt = y.s ORDER BY x.id", "i:1,i:1"},
      {join + "x.s = y.dt ORDER BY x.id", "i:1,i:1"},
      {join + "x.dt = y.j ORDER BY x.id", "i:1,i:1"},
      {join + "x.j = y.dt ORDER BY x.id", "i:1,i:1"},
      {join + "x.s = y.s ORDER BY x.id", "i:1,i:1|i:3,i:3"},
      {"SELECT x.id, y.id FROM a x LEFT JOIN a y ON x.dt = y.j ORDER BY x.id",
       "i:1,i:1|i:2,null|i:3,null"},
  });
}

TEST_F(KeyEqualityTest, TwoKeyHashJoinsInBothKeyOrders) {
  const std::string join = "SELECT x.id, y.id FROM a x JOIN a y ON ";
  ExpectAnswers({
      {join + "x.i = y.m AND x.dt = y.s ORDER BY x.id", "i:1,i:1"},
      {join + "x.dt = y.s AND x.i = y.m ORDER BY x.id", "i:1,i:1"},
      {join + "x.m = y.i AND x.j = y.dt ORDER BY x.id", "i:1,i:1"},
      {join + "x.j = y.dt AND x.m = y.i ORDER BY x.id", "i:1,i:1"},
      {join + "x.s = y.s AND x.i = y.i / 1 ORDER BY x.id", "i:1,i:1|i:3,i:3"},
      {join + "x.i = y.i / 1 AND x.s = y.s ORDER BY x.id", "i:1,i:1|i:3,i:3"},
  });
}

TEST_F(KeyEqualityTest, StarSemiJoins) {
  const std::string star = "SELECT x.id FROM a x, a y, a z WHERE ";
  ExpectPlanHas(star + "x.dt = y.s AND x.i = z.m", "star semi-join");
  ExpectAnswers({
      {star + "x.dt = y.s AND x.i = z.m ORDER BY x.id", "i:1"},
      {star + "x.s = y.dt AND x.j = z.dt ORDER BY x.id", "i:1"},
      {star + "x.m = y.i AND x.dt = z.j ORDER BY x.id", "i:1"},
  });
}

TEST_F(KeyEqualityTest, InSubqueries) {
  ExpectAnswers({
      {"SELECT id FROM a WHERE dt IN (SELECT s FROM a) ORDER BY id", "i:1"},
      {"SELECT id FROM a WHERE s IN (SELECT dt FROM a) ORDER BY id", "i:1"},
      {"SELECT id FROM a WHERE j IN (SELECT dt FROM a) ORDER BY id", "i:1"},
      {"SELECT id FROM a WHERE dt IN (SELECT j FROM a) ORDER BY id", "i:1"},
      {"SELECT id FROM a WHERE i / 1 IN (SELECT m FROM a) ORDER BY id",
       "i:1"},
      {"SELECT id FROM a WHERE m IN (5, 6) ORDER BY id", "i:1"},
  });
}

TEST_F(KeyEqualityTest, Distinct) {
  ExpectAnswers({
      {std::string("SELECT DISTINCT k FROM (") + kNumbers + ") t",
       "i:5|null|i:6|m:6.50"},
      {std::string("SELECT DISTINCT k FROM (") + kDates + ") t",
       "d:2000-01-01|null|d:2000-01-02|s:not a date|i:6"},
  });
}

TEST_F(KeyEqualityTest, UnionIntersectExcept) {
  ExpectAnswers({
      {"SELECT dt FROM a UNION SELECT s FROM a UNION SELECT j FROM a",
       "d:2000-01-01|null|d:2000-01-02|s:not a date|i:6"},
      {"SELECT i FROM a UNION SELECT m FROM a", "i:5|null|i:6|m:6.50"},
      {"SELECT dt FROM a INTERSECT SELECT s FROM a", "d:2000-01-01|null"},
      {"SELECT dt FROM a INTERSECT SELECT j FROM a", "d:2000-01-01|null"},
      {"SELECT m FROM a INTERSECT SELECT i / 1 FROM a", "m:5.00|null"},
      {"SELECT dt FROM a EXCEPT SELECT s FROM a", "d:2000-01-02"},
      {"SELECT j FROM a EXCEPT SELECT dt FROM a", "i:6"},
      {"SELECT m FROM a EXCEPT SELECT i FROM a", "m:6.50"},
  });
}

TEST_F(KeyEqualityTest, GroupBy) {
  ExpectAnswers({
      {std::string("SELECT k, COUNT(*) FROM (") + kDates + ") t GROUP BY k",
       "d:2000-01-01,i:3|null,i:3|d:2000-01-02,i:1|s:not a date,i:1|i:6,i:1"},
      {std::string("SELECT k, COUNT(*) FROM (") + kNumbers +
           ") t GROUP BY k",
       "i:5,i:3|null,i:3|i:6,i:2|m:6.50,i:1"},
  });
}

TEST_F(KeyEqualityTest, CountDistinct) {
  ExpectAnswers({
      {std::string("SELECT COUNT(DISTINCT k) FROM (") + kDates + ") t",
       "i:4"},
      {std::string("SELECT COUNT(DISTINCT k) FROM (") + kNumbers + ") t",
       "i:3"},
  });
}

TEST_F(KeyEqualityTest, WindowPartitions) {
  ExpectAnswers({
      {std::string("SELECT k, COUNT(*) OVER (PARTITION BY k) FROM (") +
           kDates + ") t",
       "d:2000-01-01,i:3|null,i:3|d:2000-01-02,i:1|s:2000-01-01,i:3|"
       "null,i:3|s:not a date,i:1|i:2451545,i:3|null,i:3|i:6,i:1"},
      {std::string("SELECT k, SUM(id) OVER (PARTITION BY k) FROM (") +
           kNumbers + ") t",
       "i:5,i:3|null,i:6|i:6,i:6|m:5.00,i:3|null,i:6|m:6.50,i:3|"
       "f:5.0000,i:3|null,i:6|f:6.0000,i:6"},
  });
}

}  // namespace
}  // namespace tpcds
