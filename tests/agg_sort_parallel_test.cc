// Parallel aggregation / sort / Top-K tests: the partitioned-hash and
// run-merge paths must be byte-identical to serial execution at any
// parallelism, Top-K fusion must replace sort+limit (and say so in
// EXPLAIN / ExecStats) while using less memory than a full sort, and the
// governor must still trip deadlines and budgets inside all three.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "engine/governor.h"
#include "engine/group_table.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// Builds a table of `rows` rows — enough to span many 1024-row morsels
/// and several 16K-row sort runs.
void BuildWideTable(Database* db, const std::string& name, int64_t rows) {
  ASSERT_TRUE(db->CreateTable(name, {{"k", ColumnType::kInteger},
                                     {"grp", ColumnType::kInteger},
                                     {"txt", ColumnType::kVarchar}})
                  .ok());
  EngineTable* t = db->FindTable(name);
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i),
                                     std::to_string(i % 97),
                                     "filler-" + std::to_string(i % 13)})
                    .ok());
  }
}

std::string Csv(const QueryResult& r) { return r.ToCsv(); }

TEST(TopKPushdownTest, MatchesSortPlusLimitAndReportsCounters) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  const std::string sql =
      "SELECT k, grp, txt FROM t ORDER BY grp, k DESC LIMIT 10";

  PlannerOptions options;
  options.topk_pushdown = false;
  Result<QueryResult> full_sort = db.Query(sql, options);
  ASSERT_TRUE(full_sort.ok()) << full_sort.status().ToString();
  ASSERT_EQ(full_sort->rows.size(), 10u);

  for (int workers : {1, 4}) {
    PlannerOptions topk;
    topk.topk_pushdown = true;
    topk.parallelism = workers;
    ExecStats stats;
    Result<QueryResult> fused = db.Query(sql, topk, &stats);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_EQ(Csv(*fused), Csv(*full_sort)) << "parallelism " << workers;
    EXPECT_EQ(stats.topk_seen, 50000) << "parallelism " << workers;
    EXPECT_EQ(stats.topk_kept, 10) << "parallelism " << workers;
    // The fused operator replaces the sort+limit pair in the plan.
    bool saw_topk_op = false;
    bool saw_sort_op = false;
    for (const auto& op : stats.operators) {
      if (op.label.find("top-k") != std::string::npos) {
        saw_topk_op = true;
        EXPECT_EQ(op.topk_seen, 50000);
        EXPECT_EQ(op.topk_kept, 10);
      }
      if (op.label.find("sort") != std::string::npos) saw_sort_op = true;
    }
    EXPECT_TRUE(saw_topk_op) << "parallelism " << workers;
    EXPECT_FALSE(saw_sort_op) << "parallelism " << workers;
  }
}

TEST(TopKPushdownTest, ExplainShowsFusedOperatorWithCounters) {
  Database db;
  BuildWideTable(&db, "t", 5000);
  Result<std::string> plan =
      db.Explain("SELECT k, grp FROM t ORDER BY grp DESC LIMIT 7");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("top-k"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("topk: kept 7 of 5000 rows"), std::string::npos)
      << *plan;
}

TEST(TopKPushdownTest, UsesLessMemoryThanFullSortUnderSameBudget) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  const std::string proj_sql = "SELECT k, grp, txt FROM t";
  const std::string sort_sql = proj_sql + " ORDER BY grp, k LIMIT 5";
  GovernorLimits loose;
  loose.memory_budget_bytes = 1LL << 40;

  // Peak bytes of the projection alone, then of the governed sort/Top-K
  // variants on top of it. The full sort materialises a key per input
  // row; Top-K charges only the keys its bounded heaps retain.
  int64_t peak_proj = 0;
  {
    QueryGovernor gov(loose);
    PlannerOptions options;
    ASSERT_TRUE(db.Query(proj_sql, options, nullptr, &gov).ok());
    peak_proj = gov.peak_bytes();
    ASSERT_GT(peak_proj, 0);
  }
  int64_t peak_full = 0;
  {
    QueryGovernor gov(loose);
    PlannerOptions options;
    options.topk_pushdown = false;
    ASSERT_TRUE(db.Query(sort_sql, options, nullptr, &gov).ok());
    peak_full = gov.peak_bytes();
  }
  int64_t peak_topk = 0;
  {
    QueryGovernor gov(loose);
    PlannerOptions options;
    options.topk_pushdown = true;
    ASSERT_TRUE(db.Query(sort_sql, options, nullptr, &gov).ok());
    peak_topk = gov.peak_bytes();
  }
  EXPECT_LT(peak_topk, peak_full);

  // A budget that admits the Top-K keys but not the full sort's keys:
  // the same query then fails as a sort and succeeds as a Top-K.
  int64_t budget = peak_topk + (peak_full - peak_topk) / 2;
  {
    PlannerOptions options;
    options.topk_pushdown = false;
    options.memory_budget_bytes = budget;
    Result<QueryResult> r = db.Query(sort_sql, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
  }
  {
    PlannerOptions options;
    options.topk_pushdown = true;
    options.memory_budget_bytes = budget;
    Result<QueryResult> r = db.Query(sort_sql, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(ParallelAggregateTest, RollupIsByteIdenticalAcrossParallelismAndRight) {
  Database db;
  BuildWideTable(&db, "t", 20000);
  const std::string sql =
      "SELECT grp, txt, COUNT(*), SUM(k) FROM t "
      "GROUP BY ROLLUP (grp, txt) ORDER BY 1, 2";

  PlannerOptions serial;
  serial.parallelism = 1;
  Result<QueryResult> reference = db.Query(sql, serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Brute-force the three ROLLUP levels: (grp, txt), (grp), ().
  std::map<std::pair<int64_t, std::string>, std::pair<int64_t, int64_t>>
      leaf;
  std::map<int64_t, std::pair<int64_t, int64_t>> by_grp;
  std::pair<int64_t, int64_t> grand{0, 0};
  for (int64_t i = 0; i < 20000; ++i) {
    std::string txt = "filler-" + std::to_string(i % 13);
    auto bump = [&](std::pair<int64_t, int64_t>* cell) {
      cell->first += 1;
      cell->second += i;
    };
    bump(&leaf[{i % 97, txt}]);
    bump(&by_grp[i % 97]);
    bump(&grand);
  }
  ASSERT_EQ(reference->rows.size(), leaf.size() + by_grp.size() + 1);
  for (const auto& row : reference->rows) {
    std::pair<int64_t, int64_t> expect;
    if (row[0].is_null()) {
      expect = grand;
    } else if (row[1].is_null()) {
      expect = by_grp.at(row[0].AsInt());
    } else {
      expect = leaf.at({row[0].AsInt(), row[1].AsString()});
    }
    EXPECT_EQ(row[2].AsInt(), expect.first);
    EXPECT_EQ(row[3].AsInt(), expect.second);
  }

  for (int workers : {2, 4, 8}) {
    PlannerOptions options;
    options.parallelism = workers;
    Result<QueryResult> parallel = db.Query(sql, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(Csv(*parallel), Csv(*reference)) << "parallelism " << workers;
  }
}

TEST(ParallelAggregateTest, DistinctAndSetOpsByteIdenticalAcrossParallelism) {
  Database db;
  BuildWideTable(&db, "t", 30000);
  BuildWideTable(&db, "u", 7000);
  const std::string sqls[] = {
      "SELECT DISTINCT grp, txt FROM t",
      "SELECT grp FROM t INTERSECT SELECT grp FROM u",
      "SELECT grp FROM t EXCEPT SELECT grp FROM u WHERE grp < 40",
      "SELECT grp, txt FROM t UNION SELECT grp, txt FROM u",
  };
  for (const std::string& sql : sqls) {
    PlannerOptions serial;
    serial.parallelism = 1;
    Result<QueryResult> reference = db.Query(sql, serial);
    ASSERT_TRUE(reference.ok()) << sql << ": " << reference.status().ToString();
    for (int workers : {4, 8}) {
      PlannerOptions options;
      options.parallelism = workers;
      Result<QueryResult> parallel = db.Query(sql, options);
      ASSERT_TRUE(parallel.ok()) << sql << ": "
                                 << parallel.status().ToString();
      EXPECT_EQ(Csv(*parallel), Csv(*reference))
          << sql << " at parallelism " << workers;
    }
  }
}

/// The fold order of an aggregate's floating-point state, by definition:
/// each 1024-row morsel sums its rows in row order from 0.0, and the
/// partials add up in morsel order.
struct MorselFold {
  std::map<size_t, double> partials;  // morsel -> partial sum
  double running = 0.0;              // one running sum, for contrast

  void Add(size_t row, double v) {
    partials[row / 1024] += v;
    running += v;
  }
  double Total() const {
    double total = 0.0;
    for (const auto& [morsel, partial] : partials) total += partial;
    return total;
  }
};

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

TEST(ParallelAggregateTest, DoublesFoldPerMorselInMorselOrderAtAnyParallelism) {
  // 11,781 rows, 12 morsels. g cycles 0, 1, 2, NULL, so every group has
  // rows in every morsel; m is a decimal with cents; the value column is
  // an int (a) or a decimal (b): 5 as an int in morsel 1 and 5.00 later,
  // 9.00 in morsel 1 and 9 later, 7 elsewhere. With several workers, the
  // one that sees a group first (in morsel 0) holds a later tie unless it
  // also ran morsel 1. h picks 5 or 5.00 as a second key, and d = k mod
  // 100 is counted distinct.
  constexpr int64_t kRows = 11 * 1024 + 517;
  Database db;
  ASSERT_TRUE(db.CreateTable("f", {{"k", ColumnType::kInteger},
                                   {"g", ColumnType::kInteger},
                                   {"m", ColumnType::kDecimal},
                                   {"a", ColumnType::kInteger},
                                   {"b", ColumnType::kDecimal},
                                   {"h", ColumnType::kInteger},
                                   {"d", ColumnType::kInteger}})
                  .ok());
  EngineTable* f = db.FindTable("f");
  auto cents_of = [](int64_t k) { return (k * 7919) % 100000 + 1; };
  auto money = [](int64_t cents) {
    return std::to_string(cents / 100) + "." +
           (cents % 100 < 10 ? "0" : "") + std::to_string(cents % 100);
  };
  for (int64_t k = 0; k < kRows; ++k) {
    int64_t at = k % 1024;
    int64_t morsel = k / 1024;
    bool first = morsel == 1;
    std::string a = "7";
    std::string b;
    if (morsel > 0 && at >= 8 && at < 12) {
      a = first ? "5" : "";
      b = first ? "" : "5.00";
    } else if (morsel > 0 && at >= 12 && at < 16) {
      a = first ? "" : "9";
      b = first ? "9.00" : "";
    }
    ASSERT_TRUE(f->AppendRowStrings({std::to_string(k),
                                     k % 4 == 3 ? "" : std::to_string(k % 4),
                                     money(cents_of(k)), a, b,
                                     k % 3 == 0 ? "1" : "0",
                                     std::to_string(k % 100)})
                    .ok());
  }
  const std::string five = "CASE WHEN h = 1 THEN 5 ELSE 5.00 END";
  const std::string value = "CASE WHEN a IS NULL THEN b ELSE a END";
  const std::string sql =
      "SELECT g, " + five +
      ", AVG(m), STDDEV_SAMP(m), AVG(m / 3), STDDEV_SAMP(m / 3), SUM(k), "
      "SUM(m), MIN(" + value + "), MAX(" + value +
      "), COUNT(DISTINCT d) FROM f GROUP BY g, " + five;

  // The expected state of each group (g = 3 stands for NULL), by
  // definition.
  struct Expected {
    int64_t first = -1;
    int64_t count = 0;
    int64_t sum_k = 0;
    int64_t sum_cents = 0;
    MorselFold m, m2, third, third2;
  };
  std::map<int64_t, Expected> groups;
  for (int64_t k = 0; k < kRows; ++k) {
    Expected& e = groups[k % 4];
    if (e.first < 0) e.first = k;
    ++e.count;
    e.sum_k += k;
    e.sum_cents += cents_of(k);
    double d = static_cast<double>(cents_of(k)) / 100;
    double t = d / 3.0;
    size_t row = static_cast<size_t>(k);
    e.m.Add(row, d);
    e.m2.Add(row, d * d);
    e.third.Add(row, t);
    e.third2.Add(row, t * t);
  }
  auto stddev = [](double sum, double sq, int64_t count) {
    double n = static_cast<double>(count);
    double var = (sq - sum * sum / n) / (n - 1);
    return var < 0 ? 0.0 : std::sqrt(var);
  };
  // The definition differs from one running sum somewhere, so a fold that
  // ignored morsels would fail below.
  bool differs = false;
  for (const auto& [g, e] : groups) {
    differs |= Bits(e.m.Total()) != Bits(e.m.running) ||
               Bits(e.third.Total()) != Bits(e.third.running) ||
               Bits(e.m2.Total()) != Bits(e.m2.running);
  }
  ASSERT_TRUE(differs);

  for (int workers : {1, 2, 4}) {
    PlannerOptions options;
    options.parallelism = workers;
    Result<QueryResult> r = db.Query(sql, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 4u) << "parallelism " << workers;
    for (size_t i = 0; i < r->rows.size(); ++i) {
      const std::vector<Value>& row = r->rows[i];
      SCOPED_TRACE("parallelism " + std::to_string(workers) + ", group " +
                   row[0].ToDisplayString());
      // Groups come in first-seen order: g = 0, 1, 2, NULL.
      int64_t g = static_cast<int64_t>(i);
      ASSERT_EQ(row[0].is_null() ? 3 : row[0].AsInt(), g);
      const Expected& e = groups.at(g);
      // The 5/5.00 key shows the kind of the group's first row.
      EXPECT_EQ(row[1].kind(), e.first % 3 == 0 ? Value::Kind::kInt
                                                : Value::Kind::kDecimal);
      EXPECT_EQ(Bits(row[2].AsDouble()),
                Bits(e.m.Total() / static_cast<double>(e.count)));
      EXPECT_EQ(Bits(row[3].AsDouble()),
                Bits(stddev(e.m.Total(), e.m2.Total(), e.count)));
      EXPECT_EQ(Bits(row[4].AsDouble()),
                Bits(e.third.Total() / static_cast<double>(e.count)));
      EXPECT_EQ(Bits(row[5].AsDouble()),
                Bits(stddev(e.third.Total(), e.third2.Total(), e.count)));
      EXPECT_EQ(row[6].kind(), Value::Kind::kInt);
      EXPECT_EQ(row[6].AsInt(), e.sum_k);
      EXPECT_EQ(row[7].kind(), Value::Kind::kDecimal);
      EXPECT_EQ(row[7].AsDecimal().cents(), e.sum_cents);
      // MIN and MAX keep the earliest row's value of a tie: morsel 1's.
      EXPECT_EQ(row[8].kind(), Value::Kind::kInt);
      EXPECT_EQ(row[8].AsInt(), 5);
      EXPECT_EQ(row[9].kind(), Value::Kind::kDecimal);
      EXPECT_EQ(row[9].ToDisplayString(), "9.00");
      EXPECT_EQ(row[10].AsInt(), 25);
    }
  }
}

TEST(GroupTableTest, CombineFoldsWorkerTablesAsOneSerialRun) {
  // Two workers share four morsels, A running 0 and 2 and B running 1 and
  // 3, as work stealing may hand them out. Their combined tables must
  // give what one table fed the four morsels in order gives: MIN keeps
  // the earliest row's value of a tie (B's int 5 of morsel 1, not the
  // 5.00 of morsel 2 that A, which saw the group first, holds), and AVG
  // folds the morsel partials in morsel order (1e16 + 1 loses the 1; a
  // fold of A's partials, then B's, keeps it).
  std::vector<PlanAggSpec> specs(3);
  specs[0].function = "MIN";
  specs[1].function = "AVG";
  specs[2].function = "COUNT";
  specs[2].distinct = true;
  auto dbl = [](double d) {
    return Cell{Value::Kind::kDouble, std::bit_cast<int64_t>(d), {}};
  };
  auto num = [](int64_t v) { return Cell::Word(Value::Kind::kInt, v); };
  Cell five_dec = Cell::Word(Value::Kind::kDecimal, 500);
  // Per morsel, rows of (MIN argument, AVG argument).
  const std::vector<std::vector<std::pair<Cell, Cell>>> morsels = {
      {{num(7), dbl(1e16)}, {num(8), dbl(0.0)}},
      {{num(5), dbl(1.0)}, {num(9), dbl(0.0)}},
      {{five_dec, dbl(-1e16)}, {num(6), dbl(0.0)}},
      {{num(5), dbl(3.0)}, {num(7), dbl(0.0)}}};
  auto feed = [&](GroupTable* table, uint32_t m) {
    KeyCell key = KeyCell::Of(num(1));
    for (size_t i = 0; i < morsels[m].size(); ++i) {
      uint64_t row = m * 1024 + i;
      bool created = false;
      uint32_t g =
          table->FindOrAdd(&key, HashKey(&key, 1), row, true, &created);
      table->Touch(g, m);
      table->Add(0, g, morsels[m][i].first, row, true);
      table->Add(1, g, morsels[m][i].second, row, true);
      table->Add(2, g, morsels[m][i].first, row, true);
    }
  };
  GroupTable serial(&specs, 1, false);
  for (uint32_t m = 0; m < morsels.size(); ++m) feed(&serial, m);
  serial.CloseAll();
  GroupTable a(&specs, 1, true);
  GroupTable b(&specs, 1, true);
  feed(&a, 0);
  feed(&b, 1);
  feed(&a, 2);
  feed(&b, 3);
  GroupTable combined = GroupTable::Combine({&a, &b}, &specs, 1);
  ASSERT_EQ(combined.size(), 1u);
  EXPECT_EQ(combined.Finalize(0, 0).kind(), Value::Kind::kInt);
  EXPECT_EQ(combined.Finalize(0, 0).AsInt(), 5);
  EXPECT_EQ(Bits(combined.Finalize(1, 0).AsDouble()), Bits(3.0 / 8));
  EXPECT_EQ(combined.Finalize(2, 0).AsInt(), 5);  // 5 = 5.00, 6, 7, 8, 9
  for (size_t agg = 0; agg < specs.size(); ++agg) {
    Value want = serial.Finalize(agg, 0);
    Value got = combined.Finalize(agg, 0);
    EXPECT_EQ(got.kind(), want.kind()) << specs[agg].function;
    EXPECT_EQ(Bits(got.AsDouble()), Bits(want.AsDouble()))
        << specs[agg].function;
  }
}

TEST(ParallelGovernanceTest, RowBudgetTripsInsideParallelAggregateBuild) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // 50000 scan rows fit the budget; the 50000 groups of GROUP BY k push it
  // over, each charged once by the worker table that creates it.
  for (int workers : {1, 4}) {
    PlannerOptions options;
    options.parallelism = workers;
    options.row_budget = 51000;
    Result<QueryResult> r =
        db.Query("SELECT k, COUNT(*) FROM t GROUP BY k", options);
    ASSERT_FALSE(r.ok()) << "parallelism " << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << workers;
    EXPECT_NE(r.status().message().find("row budget"), std::string::npos);
  }
  // A group seen in every morsel is still charged once: the 97 groups of
  // GROUP BY grp, each in all ~49 morsels, fit the same budget.
  PlannerOptions serial;
  serial.parallelism = 1;
  serial.row_budget = 51000;
  Result<QueryResult> r =
      db.Query("SELECT grp, COUNT(*) FROM t GROUP BY grp", serial);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 97u);
}

TEST(ParallelGovernanceTest, MemoryBudgetTripsInsideParallelAggregateBuild) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // Measure the scan-plus-one-group footprint, then grant barely more:
  // the 50000-group GROUP BY k must exhaust the margin building its
  // partitioned hash tables.
  GovernorLimits loose;
  loose.memory_budget_bytes = 1LL << 40;
  QueryGovernor gov(loose);
  PlannerOptions plain;
  ASSERT_TRUE(db.Query("SELECT MAX(k) FROM t", plain, nullptr, &gov).ok());
  for (int workers : {1, 4}) {
    PlannerOptions options;
    options.parallelism = workers;
    options.memory_budget_bytes = gov.peak_bytes() + 1024;
    Result<QueryResult> r =
        db.Query("SELECT k, COUNT(*) FROM t GROUP BY k", options);
    ASSERT_FALSE(r.ok()) << "parallelism " << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << workers;
    EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
  }
}

TEST(ParallelGovernanceTest, DeadlineTripsInsideSortAndTopK) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  for (bool topk : {false, true}) {
    for (int workers : {1, 4}) {
      PlannerOptions options;
      options.parallelism = workers;
      options.topk_pushdown = topk;
      options.timeout_ms = 1e-6;  // expires before the first morsel
      Result<QueryResult> r =
          db.Query("SELECT k, grp, txt FROM t ORDER BY grp, k LIMIT 20",
                   options);
      ASSERT_FALSE(r.ok()) << "parallelism " << workers << " topk " << topk;
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
          << "parallelism " << workers << " topk " << topk;
    }
  }
}

TEST(ParallelGovernanceTest, MemoryBudgetTripsInsideParallelSort) {
  Database db;
  BuildWideTable(&db, "t", 50000);
  // Grant the projection's footprint plus a sliver: the sort's key
  // materialisation (one key vector per row) must trip the budget.
  GovernorLimits loose;
  loose.memory_budget_bytes = 1LL << 40;
  QueryGovernor gov(loose);
  PlannerOptions plain;
  ASSERT_TRUE(
      db.Query("SELECT k, grp, txt FROM t", plain, nullptr, &gov).ok());
  for (int workers : {1, 4}) {
    PlannerOptions options;
    options.parallelism = workers;
    options.memory_budget_bytes = gov.peak_bytes() + 1024;
    Result<QueryResult> r =
        db.Query("SELECT k, grp, txt FROM t ORDER BY grp, k DESC", options);
    ASSERT_FALSE(r.ok()) << "parallelism " << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << workers;
    EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
  }
}

TEST(ParallelGovernanceTest, GovernedUnderLimitRunsStayByteIdentical) {
  Database db;
  BuildWideTable(&db, "t", 30000);
  const std::string sqls[] = {
      "SELECT grp, COUNT(*), SUM(k), MIN(txt) FROM t GROUP BY grp "
      "ORDER BY 2 DESC, 1",
      "SELECT grp, txt, COUNT(*) FROM t GROUP BY ROLLUP (grp, txt) "
      "ORDER BY 1, 2 LIMIT 50",
  };
  for (const std::string& sql : sqls) {
    PlannerOptions serial;
    serial.parallelism = 1;
    Result<QueryResult> reference = db.Query(sql, serial);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int workers : {1, 4}) {
      PlannerOptions options;
      options.parallelism = workers;
      options.timeout_ms = 60000.0;
      options.memory_budget_bytes = 1LL << 30;
      options.row_budget = 1LL << 30;
      Result<QueryResult> governed = db.Query(sql, options);
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      EXPECT_EQ(Csv(*governed), Csv(*reference))
          << sql << " at parallelism " << workers;
    }
  }
}

}  // namespace
}  // namespace tpcds
