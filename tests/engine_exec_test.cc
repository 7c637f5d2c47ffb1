// Executor-semantics tests on small hand-built tables: join variants,
// aggregation, windows, NULL handling, set operations — each result
// verified against hand-computed expectations.

#include <gtest/gtest.h>

#include "engine/database.h"

namespace tpcds {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable(
                       "emp", {{"e_id", ColumnType::kIdentifier},
                               {"e_name", ColumnType::kChar},
                               {"e_dept", ColumnType::kIdentifier},
                               {"e_salary", ColumnType::kDecimal},
                               {"e_hired", ColumnType::kDate}})
                    .ok());
    ASSERT_TRUE(db_->CreateTable("dept",
                                 {{"d_id", ColumnType::kIdentifier},
                                  {"d_name", ColumnType::kChar}})
                    .ok());
    Load("emp", {{"1", "alice", "10", "120.00", "2000-01-15"},
                 {"2", "bob", "10", "80.00", "2000-03-01"},
                 {"3", "carol", "20", "150.50", "2001-06-10"},
                 {"4", "dave", "20", "80.00", "2001-07-20"},
                 {"5", "erin", "", "60.25", "2002-02-02"}});  // NULL dept
    Load("dept", {{"10", "sales"}, {"20", "tech"}, {"30", "empty"}});
  }

  void Load(const std::string& table,
            const std::vector<std::vector<std::string>>& rows) {
    EngineTable* t = db_->FindTable(table);
    ASSERT_NE(t, nullptr);
    for (const auto& row : rows) {
      Status st = t->AppendRowStrings(row);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }

  QueryResult Run(const std::string& sql) {
    Result<QueryResult> r = db_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExecTest, ProjectionFilterOrder) {
  QueryResult r = Run(
      "SELECT e_name, e_salary FROM emp WHERE e_salary >= 80 "
      "ORDER BY e_salary DESC, e_name");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsString(), "carol");
  EXPECT_EQ(r.rows[1][0].AsString(), "alice");
  EXPECT_EQ(r.rows[2][0].AsString(), "bob");   // ties break by name
  EXPECT_EQ(r.rows[3][0].AsString(), "dave");
}

TEST_F(ExecTest, InnerJoinDropsNullKeys) {
  QueryResult r = Run(
      "SELECT e_name, d_name FROM emp, dept WHERE e_dept = d_id "
      "ORDER BY e_name");
  ASSERT_EQ(r.rows.size(), 4u);  // erin's NULL dept never matches
  EXPECT_EQ(r.rows[0][1].AsString(), "sales");
  EXPECT_EQ(r.rows[3][0].AsString(), "dave");
}

TEST_F(ExecTest, LeftJoinPreservesUnmatched) {
  QueryResult r = Run(
      "SELECT e_name, d_name FROM emp LEFT JOIN dept ON e_dept = d_id "
      "ORDER BY e_name");
  ASSERT_EQ(r.rows.size(), 5u);
  // erin survives with a NULL department.
  EXPECT_EQ(r.rows[4][0].AsString(), "erin");
  EXPECT_TRUE(r.rows[4][1].is_null());
}

TEST_F(ExecTest, AggregatesWithAndWithoutGroups) {
  QueryResult all = Run(
      "SELECT COUNT(*), COUNT(e_dept), SUM(e_salary), AVG(e_salary), "
      "MIN(e_name), MAX(e_hired) FROM emp");
  ASSERT_EQ(all.rows.size(), 1u);
  EXPECT_EQ(all.rows[0][0].AsInt(), 5);
  EXPECT_EQ(all.rows[0][1].AsInt(), 4);  // COUNT skips the NULL dept
  EXPECT_EQ(all.rows[0][2].AsDecimal().cents(), 49075);  // 490.75
  EXPECT_NEAR(all.rows[0][3].AsDouble(), 490.75 / 5, 1e-9);
  EXPECT_EQ(all.rows[0][4].AsString(), "alice");
  EXPECT_EQ(all.rows[0][5].AsDate().ToString(), "2002-02-02");

  QueryResult grouped = Run(
      "SELECT e_dept, COUNT(*) c, SUM(e_salary) s FROM emp "
      "GROUP BY e_dept ORDER BY e_dept");
  ASSERT_EQ(grouped.rows.size(), 3u);  // NULL group sorts first
  EXPECT_TRUE(grouped.rows[0][0].is_null());
  EXPECT_EQ(grouped.rows[0][1].AsInt(), 1);
  EXPECT_EQ(grouped.rows[1][2].AsDecimal().cents(), 20000);  // dept 10
  EXPECT_EQ(grouped.rows[2][2].AsDecimal().cents(), 23050);  // dept 20
}

TEST_F(ExecTest, CountDistinctAndHaving) {
  QueryResult r = Run(
      "SELECT e_dept, COUNT(DISTINCT e_salary) d FROM emp "
      "WHERE e_dept IS NOT NULL GROUP BY e_dept "
      "HAVING COUNT(*) >= 2 ORDER BY e_dept");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);  // 120, 80
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);  // 150.50, 80
}

TEST_F(ExecTest, EveryAggregateOverIntDecimalAndDoubleArguments) {
  // i: 4, NULL, 4, 7, 10, NULL; m: 1.50, 2.25, NULL, 2.25, 0.75, NULL.
  ASSERT_TRUE(db_->CreateTable("acc", {{"i", ColumnType::kInteger},
                                       {"m", ColumnType::kDecimal}})
                  .ok());
  Load("acc", {{"4", "1.50"},
               {"", "2.25"},
               {"4", ""},
               {"7", "2.25"},
               {"10", "0.75"},
               {"", ""}});
  auto dec = [](int64_t cents) {
    return Value::Dec(Decimal::FromCents(cents));
  };
  // Per argument: SUM, AVG, MIN, MAX, COUNT and STDDEV_SAMP, then the
  // same six over DISTINCT values.
  const std::vector<std::pair<std::string, std::vector<Value>>> cases = {
      {"i",
       {Value::Int(25), Value::Dbl(6.25), Value::Int(4), Value::Int(10),
        Value::Int(4), Value::Dbl(2.8722813232690143),  // sqrt(24.75 / 3)
        Value::Int(21), Value::Dbl(7.0), Value::Int(4), Value::Int(10),
        Value::Int(3), Value::Dbl(3.0)}},
      {"m",
       {dec(675), Value::Dbl(1.6875), dec(75), dec(225), Value::Int(4),
        Value::Dbl(0.71807033081725358),  // sqrt(1.546875 / 3)
        dec(450), Value::Dbl(1.5), dec(75), dec(225), Value::Int(3),
        Value::Dbl(0.75)}},
      {"i / 3",
       {Value::Dbl(8.3333333333333333), Value::Dbl(2.0833333333333333),
        Value::Dbl(1.3333333333333333), Value::Dbl(3.3333333333333333),
        Value::Int(4), Value::Dbl(0.95742710775633810),
        Value::Dbl(7.0), Value::Dbl(2.3333333333333333),
        Value::Dbl(1.3333333333333333), Value::Dbl(3.3333333333333333),
        Value::Int(3), Value::Dbl(1.0)}}};
  for (const auto& [arg, expected] : cases) {
    std::string sql = "SELECT ";
    for (const char* distinct : {"", "DISTINCT "}) {
      for (const char* fn :
           {"SUM", "AVG", "MIN", "MAX", "COUNT", "STDDEV_SAMP"}) {
        if (sql.size() > 7) sql += ", ";
        sql += std::string(fn) + "(" + distinct + arg + ")";
      }
    }
    QueryResult r = Run(sql + " FROM acc");
    ASSERT_EQ(r.rows.size(), 1u) << sql;
    ASSERT_EQ(r.rows[0].size(), expected.size()) << sql;
    for (size_t c = 0; c < expected.size(); ++c) {
      const Value& got = r.rows[0][c];
      EXPECT_EQ(got.kind(), expected[c].kind()) << sql << " column " << c;
      if (expected[c].kind() == Value::Kind::kDouble) {
        EXPECT_NEAR(got.AsDouble(), expected[c].AsDouble(), 1e-12)
            << sql << " column " << c;
      } else {
        EXPECT_EQ(got.ToDisplayString(), expected[c].ToDisplayString())
            << sql << " column " << c;
      }
    }
  }
  // No non-NULL argument: COUNT is 0 and the rest NULL; STDDEV_SAMP of
  // one value is NULL.
  QueryResult none = Run(
      "SELECT COUNT(i), SUM(i), AVG(m), MIN(i), MAX(m), STDDEV_SAMP(i / 3), "
      "COUNT(DISTINCT m), SUM(DISTINCT i) FROM acc WHERE i IS NULL AND "
      "m IS NULL");
  ASSERT_EQ(none.rows.size(), 1u);
  EXPECT_EQ(none.rows[0][0].AsInt(), 0);
  EXPECT_EQ(none.rows[0][6].AsInt(), 0);
  for (size_t c : {1, 2, 3, 4, 5, 7}) {
    EXPECT_TRUE(none.rows[0][c].is_null()) << "column " << c;
  }
  QueryResult one = Run("SELECT STDDEV_SAMP(i), STDDEV_SAMP(DISTINCT m) "
                        "FROM acc WHERE i = 7");
  ASSERT_EQ(one.rows.size(), 1u);
  EXPECT_TRUE(one.rows[0][0].is_null());
  EXPECT_TRUE(one.rows[0][1].is_null());
}

TEST_F(ExecTest, WindowPartitionSumAndRank) {
  QueryResult r = Run(
      "SELECT e_name, e_salary, "
      "       SUM(e_salary) OVER (PARTITION BY e_dept) AS dept_total, "
      "       RANK() OVER (PARTITION BY e_dept ORDER BY e_salary DESC) rnk "
      "FROM emp WHERE e_dept IS NOT NULL ORDER BY e_name");
  ASSERT_EQ(r.rows.size(), 4u);
  // alice: dept 10 total 200, rank 1; bob: rank 2.
  EXPECT_EQ(r.rows[0][2].AsDecimal().cents(), 20000);
  EXPECT_EQ(r.rows[0][3].AsInt(), 1);
  EXPECT_EQ(r.rows[1][3].AsInt(), 2);
  // carol rank 1 in dept 20; dave rank 2.
  EXPECT_EQ(r.rows[2][3].AsInt(), 1);
  EXPECT_EQ(r.rows[3][3].AsInt(), 2);
}

TEST_F(ExecTest, WindowOverGroupedAggregates) {
  // SUM(SUM(x)) OVER (...) — the Q20 shape.
  QueryResult r = Run(
      "SELECT e_dept, SUM(e_salary) dept_sum, "
      "       SUM(SUM(e_salary)) OVER (PARTITION BY 1) AS grand "
      "FROM emp WHERE e_dept IS NOT NULL GROUP BY e_dept ORDER BY e_dept");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][2].AsDecimal().cents(), 43050);  // 200 + 230.50
  EXPECT_EQ(r.rows[1][2].AsDecimal().cents(), 43050);
}

TEST_F(ExecTest, CaseInBetweenLike) {
  QueryResult r = Run(
      "SELECT e_name, "
      "  CASE WHEN e_salary > 100 THEN 'high' "
      "       WHEN e_salary > 70 THEN 'mid' ELSE 'low' END AS band "
      "FROM emp WHERE e_name LIKE '_a%' OR e_name IN ('bob') "
      "ORDER BY e_name");
  // '_a%' matches carol, dave; plus bob.
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsString(), "mid");   // bob 80
  EXPECT_EQ(r.rows[1][1].AsString(), "high");  // carol 150.50
  EXPECT_EQ(r.rows[2][1].AsString(), "mid");   // dave 80
}

TEST_F(ExecTest, ScalarAndInSubqueries) {
  QueryResult r = Run(
      "SELECT e_name FROM emp "
      "WHERE e_salary > (SELECT AVG(e_salary) FROM emp) "
      "ORDER BY e_name");
  // avg = 98.15 -> alice (120), carol (150.50).
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "alice");
  EXPECT_EQ(r.rows[1][0].AsString(), "carol");

  QueryResult anti = Run(
      "SELECT d_name FROM dept WHERE d_id NOT IN "
      "(SELECT e_dept FROM emp WHERE e_dept IS NOT NULL) ORDER BY d_name");
  ASSERT_EQ(anti.rows.size(), 1u);
  EXPECT_EQ(anti.rows[0][0].AsString(), "empty");
}

TEST_F(ExecTest, UnionAllDistinctAndDerived) {
  QueryResult r = Run(
      "SELECT DISTINCT band FROM ("
      "  SELECT CASE WHEN e_salary >= 100 THEN 'high' ELSE 'low' END AS "
      "band FROM emp) x ORDER BY band");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "high");

  QueryResult u = Run(
      "SELECT e_name AS n FROM emp WHERE e_dept = 10 "
      "UNION ALL SELECT d_name AS n FROM dept ORDER BY n");
  EXPECT_EQ(u.rows.size(), 5u);  // 2 employees + 3 departments
}

TEST_F(ExecTest, DateArithmeticAndComparisons) {
  QueryResult r = Run(
      "SELECT e_name, e_hired + 30 FROM emp "
      "WHERE e_hired BETWEEN '2000-01-01' AND '2000-12-31' "
      "ORDER BY e_hired");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsDate().ToString(), "2000-02-14");
}

TEST_F(ExecTest, ThreeValuedLogic) {
  // NULL dept: e_dept = 10 is UNKNOWN -> filtered; NOT (e_dept = 10) also
  // UNKNOWN -> filtered.
  QueryResult eq = Run("SELECT COUNT(*) FROM emp WHERE e_dept = 10");
  EXPECT_EQ(eq.rows[0][0].AsInt(), 2);
  QueryResult ne = Run("SELECT COUNT(*) FROM emp WHERE NOT (e_dept = 10)");
  EXPECT_EQ(ne.rows[0][0].AsInt(), 2);  // carol, dave; erin excluded
  QueryResult isnull = Run("SELECT COUNT(*) FROM emp WHERE e_dept IS NULL");
  EXPECT_EQ(isnull.rows[0][0].AsInt(), 1);
}

TEST_F(ExecTest, OrdinalOrderByAndLimit) {
  QueryResult r = Run("SELECT e_name, e_salary FROM emp ORDER BY 2 DESC "
                      "LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "carol");
  EXPECT_EQ(r.rows[1][0].AsString(), "alice");
}

TEST_F(ExecTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(db_->Query("SELECT nope FROM emp").ok());
  EXPECT_FALSE(db_->Query("SELECT e_name FROM missing_table").ok());
  Result<QueryResult> ambiguous =
      db_->Query("SELECT e_id FROM emp a, emp b WHERE a.e_id = b.e_id");
  EXPECT_FALSE(ambiguous.ok());
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecTest, StatsReportScanAndJoinWork) {
  ExecStats stats;
  PlannerOptions options;
  Result<QueryResult> r = db_->Query(
      "SELECT e_name, d_name FROM emp, dept WHERE e_dept = d_id", options,
      &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.rows_scanned, 8);  // 5 emp + 3 dept
  EXPECT_GT(stats.rows_joined, 0);
}

TEST_F(ExecTest, RollupEmitsSubtotalLevels) {
  QueryResult r = Run(
      "SELECT e_dept, e_name, SUM(e_salary) s FROM emp "
      "WHERE e_dept IS NOT NULL "
      "GROUP BY ROLLUP(e_dept, e_name) ORDER BY e_dept, e_name");
  // 4 base rows + 2 dept subtotals + 1 grand total = 7.
  ASSERT_EQ(r.rows.size(), 7u);
  // Grand total: both keys NULL, sum of all four salaries.
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_EQ(r.rows[0][2].AsDecimal().cents(), 43050);
  // Dept subtotal rows: dept set, name NULL.
  EXPECT_EQ(r.rows[1][0].AsInt(), 10);
  EXPECT_TRUE(r.rows[1][1].is_null());
  EXPECT_EQ(r.rows[1][2].AsDecimal().cents(), 20000);
  EXPECT_EQ(r.rows[4][0].AsInt(), 20);
  EXPECT_TRUE(r.rows[4][1].is_null());
  EXPECT_EQ(r.rows[4][2].AsDecimal().cents(), 23050);
}

TEST_F(ExecTest, SetOperations) {
  // INTERSECT: salaries appearing in both departments (80.00).
  QueryResult inter = Run(
      "SELECT e_salary FROM emp WHERE e_dept = 10 "
      "INTERSECT SELECT e_salary FROM emp WHERE e_dept = 20");
  ASSERT_EQ(inter.rows.size(), 1u);
  EXPECT_EQ(inter.rows[0][0].AsDecimal().cents(), 8000);
  // EXCEPT: dept-10 salaries not in dept 20 (120.00).
  QueryResult except = Run(
      "SELECT e_salary FROM emp WHERE e_dept = 10 "
      "EXCEPT SELECT e_salary FROM emp WHERE e_dept = 20");
  ASSERT_EQ(except.rows.size(), 1u);
  EXPECT_EQ(except.rows[0][0].AsDecimal().cents(), 12000);
  // UNION (distinct) dedupes the shared salary.
  QueryResult uni = Run(
      "SELECT e_salary FROM emp WHERE e_dept = 10 "
      "UNION SELECT e_salary FROM emp WHERE e_dept = 20 ORDER BY 1");
  EXPECT_EQ(uni.rows.size(), 3u);  // 80, 120, 150.50
}

TEST_F(ExecTest, NotInWithNullsIsThreeValued) {
  // SQL gotcha: x NOT IN (..., NULL, ...) is never TRUE — a non-match is
  // UNKNOWN because the NULL might equal x.
  QueryResult lit = Run(
      "SELECT COUNT(*) FROM emp WHERE e_id NOT IN (1, NULL)");
  EXPECT_EQ(lit.rows[0][0].AsInt(), 0);
  // Subquery form: e_dept contains a NULL (erin), so NOT IN filters all.
  QueryResult sub = Run(
      "SELECT COUNT(*) FROM dept WHERE d_id NOT IN "
      "(SELECT e_dept FROM emp)");
  EXPECT_EQ(sub.rows[0][0].AsInt(), 0);
  // Excluding the NULLs restores the expected anti-join.
  QueryResult clean = Run(
      "SELECT COUNT(*) FROM dept WHERE d_id NOT IN "
      "(SELECT e_dept FROM emp WHERE e_dept IS NOT NULL)");
  EXPECT_EQ(clean.rows[0][0].AsInt(), 1);  // 'empty'
  // Positive IN with NULL in the list still matches normally.
  QueryResult pos = Run(
      "SELECT COUNT(*) FROM emp WHERE e_id IN (1, 2, NULL)");
  EXPECT_EQ(pos.rows[0][0].AsInt(), 2);
}

TEST_F(ExecTest, ExplainTracesThePlan) {
  Result<std::string> plan = db_->Explain(
      "SELECT e_name, d_name FROM emp, dept "
      "WHERE e_dept = d_id AND e_salary > 100");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("scan emp"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("scan dept"), std::string::npos);
  EXPECT_NE(plan->find("hash join"), std::string::npos);
  EXPECT_NE(plan->find("1 pushed filters"), std::string::npos);
  EXPECT_NE(plan->find("result rows"), std::string::npos);

  Result<std::string> agg = db_->Explain(
      "SELECT e_dept, SUM(e_salary) FROM emp GROUP BY e_dept");
  ASSERT_TRUE(agg.ok());
  EXPECT_NE(agg->find("aggregate: 1 keys, 1 aggregates"),
            std::string::npos)
      << *agg;
}

TEST_F(ExecTest, CteUsedTwiceAndNestedDerived) {
  // One CTE consumed by two FROM items (self-join through the CTE).
  QueryResult r = Run(
      "WITH spend AS (SELECT e_dept AS dept, SUM(e_salary) AS s FROM emp "
      "               WHERE e_dept IS NOT NULL GROUP BY e_dept) "
      "SELECT a.dept, b.dept FROM spend a, spend b "
      "WHERE a.s < b.s");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);  // 200.00 < 230.50
  EXPECT_EQ(r.rows[0][1].AsInt(), 20);

  // Derived table nested inside a derived table.
  QueryResult nested = Run(
      "SELECT MAX(x.m) FROM "
      "  (SELECT inner_q.dept, MAX(inner_q.sal) AS m FROM "
      "     (SELECT e_dept AS dept, e_salary AS sal FROM emp) inner_q "
      "   GROUP BY inner_q.dept) x");
  ASSERT_EQ(nested.rows.size(), 1u);
  EXPECT_EQ(nested.rows[0][0].AsDecimal().cents(), 15050);
}

TEST_F(ExecTest, HavingWithoutGroupByAndRankTies) {
  // HAVING on a global aggregate.
  QueryResult keep = Run(
      "SELECT SUM(e_salary) FROM emp HAVING COUNT(*) > 3");
  EXPECT_EQ(keep.rows.size(), 1u);
  QueryResult drop = Run(
      "SELECT SUM(e_salary) FROM emp HAVING COUNT(*) > 100");
  EXPECT_EQ(drop.rows.size(), 0u);

  // RANK leaves gaps on ties; DENSE_RANK does not (bob and dave tie at 80).
  QueryResult ranks = Run(
      "SELECT e_name, RANK() OVER (ORDER BY e_salary DESC) r, "
      "       DENSE_RANK() OVER (ORDER BY e_salary DESC) d "
      "FROM emp ORDER BY r, e_name");
  ASSERT_EQ(ranks.rows.size(), 5u);
  // carol 150.50 -> 1/1, alice 120 -> 2/2, bob+dave 80 -> 3/3, erin -> 5/4.
  EXPECT_EQ(ranks.rows[2][1].AsInt(), 3);
  EXPECT_EQ(ranks.rows[3][1].AsInt(), 3);
  EXPECT_EQ(ranks.rows[4][1].AsInt(), 5);
  EXPECT_EQ(ranks.rows[4][2].AsInt(), 4);
}

TEST_F(ExecTest, DdlErrorsSurface) {
  EXPECT_FALSE(db_->CreateTable("emp", {{"x", ColumnType::kInteger}}).ok());
  GeneratorOptions gen;
  EXPECT_FALSE(db_->LoadTable("not_created", gen).ok());
  EXPECT_FALSE(
      db_->FindTable("emp")->AppendRowStrings({"only-one-field"}).ok());
}

TEST_F(ExecTest, ConcatAndFunctions) {
  QueryResult r = Run(
      "SELECT UPPER(e_name) || '-' || SUBSTR(e_name, 1, 2), "
      "       COALESCE(e_dept, -1), ABS(-5), ROUND(e_salary / 7, 1) "
      "FROM emp WHERE e_id = 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ERIN-er");
  EXPECT_EQ(r.rows[0][1].AsInt(), -1);
  EXPECT_EQ(r.rows[0][2].AsInt(), 5);
  EXPECT_NEAR(r.rows[0][3].AsDouble(), 8.6, 1e-9);
}

}  // namespace
}  // namespace tpcds
