// Differential testing of the SQL engine: random mini-databases and
// randomly parameterised queries are evaluated both by the engine and by
// an independent brute-force evaluator written directly against the
// stored data. Any divergence in filter, join, aggregation or NULL
// semantics fails the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/audit.h"
#include "engine/data_facade.h"
#include "engine/database.h"
#include "maintenance/maintenance.h"
#include "qgen/qgen.h"
#include "temp_path.h"
#include "templates/templates.h"
#include "util/date.h"
#include "util/random.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// A plain-C++ mirror of the test tables, NULLs as std::optional.
struct MiniRow {
  std::optional<int64_t> a;
  std::optional<int64_t> b;
  std::optional<int64_t> g;  // group / join key
  std::optional<int64_t> v;  // t2 payload
};

class DifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void BuildDatabase(RngStream* rng) {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTable("t1", {{"a", ColumnType::kInteger},
                                        {"b", ColumnType::kInteger},
                                        {"g", ColumnType::kInteger}})
                    .ok());
    ASSERT_TRUE(db_->CreateTable("t2", {{"g", ColumnType::kInteger},
                                        {"v", ColumnType::kInteger}})
                    .ok());
    int64_t n1 = rng->UniformInt(0, 120);
    t1_.clear();
    for (int64_t i = 0; i < n1; ++i) {
      MiniRow row;
      if (rng->NextDouble() > 0.1) row.a = rng->UniformInt(-20, 20);
      if (rng->NextDouble() > 0.1) row.b = rng->UniformInt(0, 100);
      if (rng->NextDouble() > 0.15) row.g = rng->UniformInt(0, 8);
      t1_.push_back(row);
      std::vector<std::string> fields(3);
      if (row.a) fields[0] = std::to_string(*row.a);
      if (row.b) fields[1] = std::to_string(*row.b);
      if (row.g) fields[2] = std::to_string(*row.g);
      ASSERT_TRUE(db_->FindTable("t1")->AppendRowStrings(fields).ok());
    }
    int64_t n2 = rng->UniformInt(0, 30);
    t2_.clear();
    for (int64_t i = 0; i < n2; ++i) {
      MiniRow row;
      if (rng->NextDouble() > 0.15) row.g = rng->UniformInt(0, 8);
      row.v = rng->UniformInt(0, 1000);
      t2_.push_back(row);
      std::vector<std::string> fields(2);
      if (row.g) fields[0] = std::to_string(*row.g);
      fields[1] = std::to_string(*row.v);
      ASSERT_TRUE(db_->FindTable("t2")->AppendRowStrings(fields).ok());
    }
  }

  std::unique_ptr<Database> db_;
  std::vector<MiniRow> t1_;  // a, b, g
  std::vector<MiniRow> t2_;  // g (in .g), v (in .v)... see alias below
};

TEST_P(DifferentialTest, FilterCountSumAgainstBruteForce) {
  RngStream rng(static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 15; ++round) {
    BuildDatabase(&rng);
    int64_t lo = rng.UniformInt(-20, 10);
    int64_t hi = lo + rng.UniformInt(0, 25);
    std::string sql = StringPrintf(
        "SELECT COUNT(*), COUNT(a), SUM(b), MIN(a), MAX(b) FROM t1 "
        "WHERE a BETWEEN %lld AND %lld",
        static_cast<long long>(lo), static_cast<long long>(hi));
    Result<QueryResult> r = db_->Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    // Brute force with explicit SQL NULL semantics.
    int64_t count_star = 0;
    int64_t count_a = 0;
    int64_t sum_b = 0;
    bool any_b = false;
    std::optional<int64_t> min_a;
    std::optional<int64_t> max_b;
    for (const MiniRow& row : t1_) {
      if (!row.a || *row.a < lo || *row.a > hi) continue;  // NULL filters out
      ++count_star;
      ++count_a;  // a is non-null here by the filter
      if (row.b) {
        sum_b += *row.b;
        any_b = true;
        if (!max_b || *row.b > *max_b) max_b = row.b;
      }
      if (!min_a || *row.a < *min_a) min_a = row.a;
    }
    const auto& out = r->rows[0];
    EXPECT_EQ(out[0].AsInt(), count_star) << sql;
    EXPECT_EQ(out[1].AsInt(), count_a) << sql;
    if (any_b) {
      EXPECT_EQ(out[2].AsInt(), sum_b) << sql;
    } else {
      EXPECT_TRUE(out[2].is_null()) << sql;
    }
    if (min_a) {
      EXPECT_EQ(out[3].AsInt(), *min_a) << sql;
    } else {
      EXPECT_TRUE(out[3].is_null()) << sql;
    }
    if (max_b) {
      EXPECT_EQ(out[4].AsInt(), *max_b) << sql;
    } else {
      EXPECT_TRUE(out[4].is_null()) << sql;
    }
  }
}

TEST_P(DifferentialTest, GroupByAgainstBruteForce) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (int round = 0; round < 15; ++round) {
    BuildDatabase(&rng);
    Result<QueryResult> r = db_->Query(
        "SELECT g, COUNT(*), SUM(b) FROM t1 GROUP BY g ORDER BY g");
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    std::map<std::optional<int64_t>, std::pair<int64_t, int64_t>> groups;
    std::map<std::optional<int64_t>, bool> any_b;
    for (const MiniRow& row : t1_) {
      auto& [cnt, sum] = groups[row.g];  // NULL is its own group
      ++cnt;
      if (row.b) {
        sum += *row.b;
        any_b[row.g] = true;
      }
    }
    ASSERT_EQ(r->rows.size(), groups.size());
    size_t i = 0;
    // std::map sorts nullopt first — matching NULL-first ORDER BY.
    for (const auto& [g, cs] : groups) {
      if (g) {
        EXPECT_EQ(r->rows[i][0].AsInt(), *g);
      } else {
        EXPECT_TRUE(r->rows[i][0].is_null());
      }
      EXPECT_EQ(r->rows[i][1].AsInt(), cs.first);
      if (any_b[g]) {
        EXPECT_EQ(r->rows[i][2].AsInt(), cs.second);
      } else {
        EXPECT_TRUE(r->rows[i][2].is_null());
      }
      ++i;
    }
  }
}

TEST_P(DifferentialTest, EquiJoinAgainstBruteForce) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 104729);
  for (int round = 0; round < 15; ++round) {
    BuildDatabase(&rng);
    Result<QueryResult> r = db_->Query(
        "SELECT COUNT(*), SUM(t1.b + t2.v) FROM t1, t2 "
        "WHERE t1.g = t2.g");
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    int64_t matches = 0;
    int64_t sum = 0;
    bool any = false;
    for (const MiniRow& left : t1_) {
      if (!left.g) continue;  // NULL keys never join
      for (const MiniRow& right : t2_) {
        if (!right.g || *right.g != *left.g) continue;
        ++matches;
        if (left.b && right.v) {  // b + v NULL-propagates
          sum += *left.b + *right.v;
          any = true;
        }
      }
    }
    EXPECT_EQ(r->rows[0][0].AsInt(), matches);
    if (any) {
      EXPECT_EQ(r->rows[0][1].AsInt(), sum);
    } else {
      EXPECT_TRUE(r->rows[0][1].is_null());
    }
  }
}

TEST_P(DifferentialTest, LeftJoinAgainstBruteForce) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 1299709);
  for (int round = 0; round < 10; ++round) {
    BuildDatabase(&rng);
    Result<QueryResult> r = db_->Query(
        "SELECT COUNT(*), COUNT(t2.v) FROM t1 LEFT JOIN t2 "
        "ON t1.g = t2.g");
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    int64_t out_rows = 0;
    int64_t matched = 0;
    for (const MiniRow& left : t1_) {
      int64_t hits = 0;
      if (left.g) {
        for (const MiniRow& right : t2_) {
          if (right.g && *right.g == *left.g) ++hits;
        }
      }
      out_rows += hits > 0 ? hits : 1;  // unmatched emits one NULL row
      matched += hits;
    }
    EXPECT_EQ(r->rows[0][0].AsInt(), out_rows);
    EXPECT_EQ(r->rows[0][1].AsInt(), matched);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(11, 22, 33, 44));

/// Vectorized-vs-reference differential over the real workload: a sample
/// of the 99 TPC-DS templates on generated data must produce byte-identical
/// CSV with the columnar fast path on and off, serial and parallel. The
/// reference (vectorized off) is the row-at-a-time RowSet path.
class VectorizedDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = 0.002;
    ASSERT_TRUE(db_->LoadTpcdsData(options).ok());
  }

  /// On the vectorized path every filter and every hash join runs in
  /// index form, except a LEFT JOIN with residual predicates.
  static void ExpectIndexForm(int id, const ExecStats& stats) {
    for (const ExecStats::OpStat& op : stats.operators) {
      bool left_residual =
          op.label.find("(left outer)") != std::string::npos &&
          op.label.find(", 0 residual") == std::string::npos;
      if (op.label.rfind("filter", 0) == 0 ||
          (op.label.rfind("hash join", 0) == 0 && !left_residual)) {
        EXPECT_TRUE(op.vectorized) << "template " << id << ": " << op.label;
      }
    }
  }

  static Database* db_;
};

Database* VectorizedDifferentialTest::db_ = nullptr;

TEST_F(VectorizedDifferentialTest, SampledTemplatesAgreeWithRowSetPath) {
  // Every template. A sample spread across the four template families
  // (store / catalog / web / cross-channel) runs the full sweep below;
  // the rest run the vectorized path, where every join moves to typed
  // keys, serial and parallel with Top-K on.
  const std::set<int> kFullSweep = {1,  7,  14, 21, 27, 31, 38, 46, 55,
                                    56, 63, 70, 76, 82, 88, 95, 99};
  QueryGenerator qgen(19620718);
  for (int id = 1; id <= 99; ++id) {
    const QueryTemplate* tmpl = FindTemplate(id);
    ASSERT_NE(tmpl, nullptr) << "template " << id;
    Result<std::string> sql = qgen.Instantiate(*tmpl, 0);
    ASSERT_TRUE(sql.ok()) << "template " << id;

    // Reference: every execution-strategy knob off / serial.
    PlannerOptions options = db_->default_options();
    options.vectorized_execution = false;
    options.parallelism = 1;
    options.topk_pushdown = false;
    Result<QueryResult> reference = db_->Query(*sql, options, nullptr);
    ASSERT_TRUE(reference.ok())
        << "template " << id << ": " << reference.status().ToString();
    std::string expected = reference->ToCsv();

    // Full sweep: parallelism x columnar path x Top-K fusion. Every
    // combination must reproduce the reference bytes.
    const bool full = kFullSweep.count(id) > 0;
    for (int workers : {1, 4}) {
      for (bool vectorized : {false, true}) {
        for (bool topk : {false, true}) {
          if (workers == 1 && !vectorized && !topk) continue;  // reference
          if (!full && !(vectorized && topk)) continue;
          options.parallelism = workers;
          options.vectorized_execution = vectorized;
          options.topk_pushdown = topk;
          ExecStats stats;
          Result<QueryResult> run = db_->Query(*sql, options, &stats);
          ASSERT_TRUE(run.ok())
              << "template " << id << ": " << run.status().ToString();
          EXPECT_EQ(run->ToCsv(), expected)
              << "template " << id << " at parallelism " << workers
              << (vectorized ? ", vectorized" : ", row-at-a-time")
              << (topk ? ", topk" : ", full sort");
          if (vectorized) ExpectIndexForm(id, stats);
        }
      }
    }
  }
}

/// Join keys against the reference path (vectorized off, serial). Both
/// key a build side through KeyCell: a single key whose values share one
/// non-string class in a flat int64 KeyTable, any other build side in the
/// GroupTable key index; the vectorized path probes from the index form,
/// a KeyTable on integral words straight from storage. Each query has no
/// ORDER BY, so the CSV pins the emission order too: probe rows in order,
/// each with its matches in ascending build-row order.
class TypedJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    const std::vector<EngineTable::ColumnMeta> dim = {
        {"k", ColumnType::kInteger}, {"kd", ColumnType::kDecimal},
        {"dt", ColumnType::kDate},   {"s", ColumnType::kVarchar},
        {"ds", ColumnType::kVarchar}, {"v", ColumnType::kInteger}};
    ASSERT_TRUE(db_->CreateTable("f", {{"id", ColumnType::kInteger},
                                       {"k", ColumnType::kInteger},
                                       {"kd", ColumnType::kDecimal},
                                       {"dt", ColumnType::kDate},
                                       {"s", ColumnType::kVarchar}})
                    .ok());
    ASSERT_TRUE(db_->CreateTable("d", dim).ok());
    ASSERT_TRUE(db_->CreateTable("e", dim).ok());  // stays empty
    // One DATE and one string naming the same day.
    ASSERT_TRUE(db_->CreateTable("a", {{"dt", ColumnType::kDate}}).ok());
    ASSERT_TRUE(db_->CreateTable("b", {{"ds", ColumnType::kVarchar}}).ok());
    ASSERT_TRUE(db_->FindTable("a")->AppendRowStrings({"2000-01-05"}).ok());
    ASSERT_TRUE(db_->FindTable("b")->AppendRowStrings({"2000-01-05"}).ok());
    const Date base = Date::Parse("2000-01-01").ValueOrDie();
    // The probe side spans three morsels, so parallelism 4 splits it.
    EngineTable* f = db_->FindTable("f");
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE(
          f->AppendRowStrings(
               {std::to_string(i),
                i % 37 == 0 ? "" : std::to_string(i * 7 % 60),
                StringPrintf("%d.%s", i * 3 % 50, i % 5 == 0 ? "50" : "00"),
                i % 41 == 0 ? "" : base.AddDays(i % 90).ToString(),
                i % 43 == 0 ? "" : "s" + std::to_string(i % 25)})
              .ok());
    }
    // Build keys repeat (each int key on five rows, out of order) and
    // some are NULL; half the probe keys have no match.
    EngineTable* d = db_->FindTable("d");
    for (int j = 0; j < 200; ++j) {
      std::string dt = j % 19 == 0 ? "" : base.AddDays(j * 11 % 120).ToString();
      ASSERT_TRUE(
          d->AppendRowStrings(
               {j % 17 == 0 ? "" : std::to_string(j * 13 % 40),
                StringPrintf("%d.%s", j % 45, j % 3 == 0 ? "25" : "00"), dt,
                "s" + std::to_string(j % 30), dt, std::to_string(j)})
              .ok());
    }
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// Runs `sql` on the reference path, then vectorized at parallelism 1
  /// and 4, and expects the same bytes every time. Returns the row count.
  static size_t ExpectMatchesReference(const std::string& sql) {
    PlannerOptions options = db_->default_options();
    options.vectorized_execution = false;
    options.parallelism = 1;
    Result<QueryResult> reference = db_->Query(sql, options, nullptr);
    EXPECT_TRUE(reference.ok()) << sql << ": "
                                << reference.status().ToString();
    if (!reference.ok()) return 0;
    for (int workers : {1, 4}) {
      options.vectorized_execution = true;
      options.parallelism = workers;
      Result<QueryResult> run = db_->Query(sql, options, nullptr);
      EXPECT_TRUE(run.ok()) << sql << ": " << run.status().ToString();
      if (!run.ok()) continue;
      EXPECT_EQ(run->ToCsv(), reference->ToCsv())
          << sql << " at parallelism " << workers;
    }
    return reference->rows.size();
  }

  static Database* db_;
};

Database* TypedJoinTest::db_ = nullptr;

TEST_F(TypedJoinTest, DuplicateBuildKeysComeOutInBuildRowOrder) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d.v FROM f JOIN d ON f.k = d.k"),
            3000u);
}

TEST_F(TypedJoinTest, NullKeysNeverMatch) {
  // NULLs on both sides: f.k every 37th row, d.k every 17th.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT COUNT(*), SUM(f.id), SUM(d.v) FROM f JOIN d "
                "ON f.k = d.k"),
            0u);
  EXPECT_GT(ExpectMatchesReference(
                "SELECT d.v, f.id FROM d JOIN f ON d.k = f.k"),
            0u);
}

TEST_F(TypedJoinTest, LeftJoinKeepsUnmatchedProbeRows) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d.v FROM f LEFT JOIN d ON f.k = d.k"),
            3000u);
}

TEST_F(TypedJoinTest, EmptyBuildSide) {
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT f.id, e.v FROM f JOIN e ON f.k = e.k"),
            0u);
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT f.id, e.v FROM f LEFT JOIN e ON f.k = e.k"),
            3000u);
}

TEST_F(TypedJoinTest, IntJoinsDecimal) {
  // Integral decimals equal ints; d.kd's .25 values and f.kd's .50 values
  // match nothing.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d.v FROM f JOIN d ON f.k = d.kd"),
            0u);
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d.v FROM f JOIN d ON f.kd = d.k"),
            0u);
}

TEST_F(TypedJoinTest, DateKeys) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d.v FROM f JOIN d ON f.dt = d.dt"),
            0u);
  // String probe keys against date build keys key as the dates they name.
  ExpectMatchesReference("SELECT d.v, f.id FROM d JOIN f ON d.ds = f.dt");
}

TEST_F(TypedJoinTest, DateEqualsTheStringNamingIt) {
  // The filter compares the date with the string by parsing it; every
  // hashed form of the same equality must find the row too, though a
  // date and a string key in different classes (DateKeyed). Each
  // statement's expected row count follows it.
  const std::vector<std::pair<std::string, size_t>> queries = {
      {"SELECT COUNT(*) FROM a WHERE dt = '2000-01-05'", 1},
      {"SELECT a.dt, b.ds FROM a JOIN b ON a.dt = b.ds", 1},
      {"SELECT a.dt, b.ds FROM b JOIN a ON b.ds = a.dt", 1},
      {"SELECT a.dt, b.ds FROM a, b WHERE a.dt = b.ds", 1},
      {"SELECT dt FROM a WHERE dt IN (SELECT ds FROM b)", 1},
      {"SELECT ds FROM b WHERE ds IN (SELECT dt FROM a)", 1},
      // Star semi-joins: string dimension keys against a date fact key,
      // then date dimension keys against a string fact key.
      {"SELECT a.dt FROM a, b, b b2 WHERE a.dt = b.ds AND a.dt = b2.ds", 1},
      {"SELECT b.ds FROM b, a, a a2 WHERE b.ds = a.dt AND b.ds = a2.dt", 1},
      // Set operations compare whole rows the same way.
      {"SELECT dt FROM a INTERSECT SELECT ds FROM b", 1},
      {"SELECT dt FROM a EXCEPT SELECT ds FROM b", 0},
      {"SELECT dt FROM a UNION SELECT ds FROM b", 1},
      // GROUP BY and COUNT(DISTINCT) key a date and the string naming it
      // as one value, whichever UNION ALL branch comes first.
      {"SELECT k FROM (SELECT dt AS k FROM a UNION ALL SELECT ds AS k "
       "FROM b) t GROUP BY k",
       1},
      {"SELECT k FROM (SELECT ds AS k FROM b UNION ALL SELECT dt AS k "
       "FROM a) t GROUP BY k",
       1},
      {"SELECT k FROM (SELECT dt AS k FROM a UNION ALL SELECT ds AS k "
       "FROM b) t GROUP BY k HAVING COUNT(*) = 2",
       1},
      {"SELECT COUNT(DISTINCT k) FROM (SELECT dt AS k FROM a UNION ALL "
       "SELECT ds AS k FROM b) t HAVING COUNT(DISTINCT k) = 1",
       1}};
  for (const auto& [sql, expected] : queries) {
    for (bool vectorized : {false, true}) {
      for (int workers : {1, 4}) {
        PlannerOptions options = db_->default_options();
        options.vectorized_execution = vectorized;
        options.parallelism = workers;
        Result<QueryResult> run = db_->Query(sql, options, nullptr);
        ASSERT_TRUE(run.ok()) << sql << ": " << run.status().ToString();
        EXPECT_EQ(run->rows.size(), expected)
            << sql << " vectorized " << vectorized << " at parallelism "
            << workers;
      }
    }
  }
}

TEST_F(TypedJoinTest, StringAndMixedKindKeysUseTheKeyIndex) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d.v FROM f JOIN d ON f.s = d.s"),
            0u);
  // Build keys of two classes (decimals with cents, else ints) too.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d.v FROM f JOIN d "
                "ON f.k = CASE WHEN d.v < 100 THEN d.kd ELSE d.k END"),
            0u);
}

/// Join pipelines in index form: on the vectorized path a chain of scan,
/// star semi-joins and hash joins carries row indices and boxes each
/// output row once, at its top, or not at all under an aggregate or a
/// project, which read the indices themselves. A mini star schema: a fact
/// table of six morsels and small dimensions. No statement has an ORDER
/// BY, so the comparison also pins the order rows are emitted in.
class IndexFormTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    auto ints = [](std::initializer_list<const char*> names) {
      std::vector<EngineTable::ColumnMeta> cols;
      for (const char* n : names) cols.push_back({n, ColumnType::kInteger});
      return cols;
    };
    std::vector<EngineTable::ColumnMeta> fact =
        ints({"id", "k1", "k2", "k3", "kc1", "kc2", "v"});
    fact.push_back({"ks", ColumnType::kVarchar});
    fact.push_back({"m", ColumnType::kDecimal});
    ASSERT_TRUE(db_->CreateTable("f", fact).ok());
    ASSERT_TRUE(db_->CreateTable("d1", ints({"k1", "a", "g"})).ok());
    ASSERT_TRUE(db_->CreateTable("d2", ints({"k2", "b", "x"})).ok());
    ASSERT_TRUE(db_->CreateTable("d3", ints({"k3", "c"})).ok());
    ASSERT_TRUE(db_->CreateTable("d4", ints({"x", "z"})).ok());
    ASSERT_TRUE(db_->CreateTable("dc", ints({"c1", "c2", "cv"})).ok());
    ASSERT_TRUE(db_->CreateTable("ds", {{"s", ColumnType::kVarchar},
                                        {"sv", ColumnType::kInteger}})
                    .ok());
    ASSERT_TRUE(db_->CreateTable("e", ints({"k", "w"})).ok());  // empty
    EngineTable* f = db_->FindTable("f");
    for (int i = 0; i < kFactRows; ++i) {
      // k1 is NULL on every 31st row; k2 misses d2 on a quarter of them;
      // m is NULL on every 13th.
      ASSERT_TRUE(f->AppendRowStrings(
                       {std::to_string(i),
                        i % 31 == 0 ? "" : std::to_string(i * 7 % 50),
                        std::to_string(i % 40), std::to_string(i % 20),
                        std::to_string(i % 7), std::to_string(i % 5),
                        std::to_string(i % 100), "s" + std::to_string(i % 12),
                        i % 13 == 0 ? ""
                                    : StringPrintf("%d.%02d", i * 3 % 97,
                                                   i * 7 % 100)})
                      .ok());
    }
    auto fill = [](const char* table, int rows, auto row_of) {
      for (int j = 0; j < rows; ++j) {
        ASSERT_TRUE(db_->FindTable(table)->AppendRowStrings(row_of(j)).ok());
      }
    };
    auto str = [](int v) { return std::to_string(v); };
    fill("d1", 50, [&](int j) {
      return std::vector<std::string>{str(j), str(j * 3), str(j % 5)};
    });
    // Every key of d2 is on two rows, out of key order.
    fill("d2", 60, [&](int j) {
      return std::vector<std::string>{str(j * 7 % 30), str(j), str(j % 8)};
    });
    fill("d3", 20, [&](int j) {
      return std::vector<std::string>{str(j), str(j * 10)};
    });
    fill("d4", 6, [&](int j) {
      return std::vector<std::string>{str(j), str(j + 100)};
    });
    // Every (c1, c2) pair with c1 < 7 and c2 < 5, once.
    fill("dc", 35, [&](int j) {
      return std::vector<std::string>{str(j % 7), str(j % 5), str(j)};
    });
    fill("ds", 10, [&](int j) {
      return std::vector<std::string>{"s" + str(j), str(j)};
    });
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// Runs `sql` on the reference path, then vectorized at parallelism 1
  /// and 4, and expects the same values every time, in the same order:
  /// the same kind, doubles bit for bit (the CSV rounds them to four
  /// decimals), everything else as rendered. Returns the row count.
  static size_t ExpectMatchesReference(const std::string& sql) {
    PlannerOptions options = db_->default_options();
    options.vectorized_execution = false;
    Result<QueryResult> reference = db_->Query(sql, options, nullptr);
    EXPECT_TRUE(reference.ok()) << sql << ": "
                                << reference.status().ToString();
    if (!reference.ok()) return 0;
    options.vectorized_execution = true;
    for (int workers : {1, 4}) {
      options.parallelism = workers;
      Result<QueryResult> run = db_->Query(sql, options, nullptr);
      EXPECT_TRUE(run.ok()) << sql << ": " << run.status().ToString();
      if (!run.ok()) continue;
      EXPECT_EQ(FirstDifference(*run, *reference), "")
          << sql << " at parallelism " << workers;
    }
    return reference->rows.size();
  }

  /// Where `got` first differs from `want`, or "" when every value is the
  /// same.
  static std::string FirstDifference(const QueryResult& got,
                                     const QueryResult& want) {
    if (got.rows.size() != want.rows.size()) {
      return StringPrintf("%zu rows, expected %zu", got.rows.size(),
                          want.rows.size());
    }
    for (size_t r = 0; r < want.rows.size(); ++r) {
      if (got.rows[r].size() != want.rows[r].size()) {
        return StringPrintf("row %zu is %zu wide", r, got.rows[r].size());
      }
      for (size_t c = 0; c < want.rows[r].size(); ++c) {
        const Value& a = got.rows[r][c];
        const Value& b = want.rows[r][c];
        bool same = a.kind() == b.kind() &&
                    (a.kind() == Value::Kind::kDouble
                         ? std::bit_cast<uint64_t>(a.AsDouble()) ==
                               std::bit_cast<uint64_t>(b.AsDouble())
                         : a.ToDisplayString() == b.ToDisplayString());
        if (!same) {
          return StringPrintf("row %zu col %zu: %.17g (%s), expected %.17g "
                              "(%s)",
                              r, c, a.AsDouble(),
                              a.ToDisplayString().c_str(), b.AsDouble(),
                              b.ToDisplayString().c_str());
        }
      }
    }
    return "";
  }

  /// The operators of `sql`'s plan, run with `vectorized` execution.
  static std::vector<ExecStats::OpStat> OperatorsOf(const std::string& sql,
                                                    bool vectorized) {
    PlannerOptions options = db_->default_options();
    options.vectorized_execution = vectorized;
    ExecStats stats;
    Result<QueryResult> run = db_->Query(sql, options, &stats);
    EXPECT_TRUE(run.ok()) << sql << ": " << run.status().ToString();
    return stats.operators;
  }

  /// Expects `count` operators of `sql`'s vectorized plan to be labelled
  /// `label`, each tagged `vec`.
  static void ExpectEveryTagged(const std::string& sql,
                                const std::string& label, int count) {
    int seen = 0;
    for (const ExecStats::OpStat& op : OperatorsOf(sql, true)) {
      if (op.label.rfind(label, 0) != 0) continue;
      ++seen;
      EXPECT_TRUE(op.vectorized) << sql << ": " << op.label;
    }
    EXPECT_EQ(seen, count) << sql;
  }

  static constexpr int kFactRows = 6000;  // five full morsels and a part
  static Database* db_;
};

Database* IndexFormTest::db_ = nullptr;

TEST_F(IndexFormTest, ThreeJoinChainOverAStarSemiJoin) {
  // d1 is filtered, so the fact scan is reduced by its key set first;
  // d2's keys repeat, and f.k1 is NULL on some rows.
  const std::string sql =
      "SELECT f.id, d1.a, d2.b, d3.c FROM f, d1, d2, d3 "
      "WHERE f.k1 = d1.k1 AND f.k2 = d2.k2 AND f.k3 = d3.k3 AND d1.g = 1";
  Result<std::string> plan = db_->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("star semi-join"), std::string::npos) << *plan;
  EXPECT_GT(ExpectMatchesReference(sql), 1000u);
}

TEST_F(IndexFormTest, DuplicateBuildKeysAtTheMiddleLevel) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d2.b, d1.a, d3.c FROM f "
                "JOIN d1 ON f.k1 = d1.k1 JOIN d2 ON f.k2 = d2.k2 "
                "JOIN d3 ON f.k3 = d3.k3"),
            static_cast<size_t>(kFactRows));
}

TEST_F(IndexFormTest, LeftJoinMidChainThenAJoinOnThePaddedSide) {
  // A missed d2 row pads with NULLs; the join keyed on d2.x then matches
  // nothing for it (inner) or pads again (left). d4 holds only six of
  // d2's eight x values.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d2.b, d4.z, d3.c FROM f "
                "JOIN d1 ON f.k1 = d1.k1 LEFT JOIN d2 ON f.k2 = d2.k2 "
                "JOIN d4 ON d2.x = d4.x JOIN d3 ON f.k3 = d3.k3"),
            0u);
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d2.b, d4.z FROM f "
                "JOIN d1 ON f.k1 = d1.k1 LEFT JOIN d2 ON f.k2 = d2.k2 "
                "LEFT JOIN d4 ON d2.x = d4.x"),
            static_cast<size_t>(kFactRows / 2));
}

TEST_F(IndexFormTest, KeysReadFromABuildSource) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d2.b, d4.z, d1.a FROM f "
                "JOIN d2 ON f.k2 = d2.k2 JOIN d4 ON d2.x = d4.x "
                "JOIN d1 ON f.k1 = d1.k1"),
            0u);
}

TEST_F(IndexFormTest, EmptyBuildSide) {
  EXPECT_EQ(ExpectMatchesReference("SELECT f.id, e.w FROM f "
                                   "JOIN d1 ON f.k1 = d1.k1 "
                                   "JOIN e ON f.k3 = e.k"),
            0u);
  EXPECT_GT(ExpectMatchesReference("SELECT f.id, e.w, d3.c FROM f "
                                   "JOIN d1 ON f.k1 = d1.k1 "
                                   "LEFT JOIN e ON f.k3 = e.k "
                                   "JOIN d3 ON f.k3 = d3.k3"),
            0u);
}

TEST_F(IndexFormTest, TwoColumnAndStringKeyLevels) {
  // The key index serves both levels; f.ks = 's10' and 's11' miss ds.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, dc.cv, ds.sv, d3.c FROM f "
                "JOIN dc ON f.kc1 = dc.c1 AND f.kc2 = dc.c2 "
                "JOIN ds ON f.ks = ds.s JOIN d3 ON f.k3 = d3.k3"),
            0u);
}

TEST_F(IndexFormTest, ResidualJoinOnTopOfTheChain) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d1.a, d2.b, d3.c FROM f "
                "JOIN d1 ON f.k1 = d1.k1 JOIN d2 ON f.k2 = d2.k2 "
                "JOIN d3 ON f.k3 = d3.k3 AND f.v < d3.c"),
            0u);
}

TEST_F(IndexFormTest, CteScannedTwice) {
  EXPECT_GT(ExpectMatchesReference(
                "WITH c AS (SELECT f.id, f.k3, d2.b FROM f "
                "JOIN d1 ON f.k1 = d1.k1 JOIN d2 ON f.k2 = d2.k2) "
                "SELECT c1.id, c2.b, d3.c FROM c c1 JOIN c c2 "
                "ON c1.id = c2.id JOIN d3 ON c1.k3 = d3.k3"),
            0u);
}

TEST_F(IndexFormTest, AggregateOverTheChain) {
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT d3.c, COUNT(*), SUM(d1.a), MIN(d2.b) FROM f "
                "JOIN d1 ON f.k1 = d1.k1 JOIN d2 ON f.k2 = d2.k2 "
                "JOIN d3 ON f.k3 = d3.k3 GROUP BY d3.c"),
            20u);
}

// Aggregates and projects read the index form themselves, a global
// 1024-row morsel at a time, so their partials have the boundaries they
// have over boxed rows: every double below must match bit for bit.

TEST_F(IndexFormTest, AveragesOverChunksThatDoNotAlignWithMorsels) {
  // The semi-join on d1 leaves about a fifth of each chunk (and four
  // d3.c groups); d2's keys are on two rows each, so its join grows the
  // chunks again.
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT d3.c, AVG(f.m), STDDEV_SAMP(f.m), AVG(f.v / 3), "
                "STDDEV_SAMP(f.v / 3), SUM(f.v / 3) FROM f, d1, d2, d3 "
                "WHERE f.k1 = d1.k1 AND f.k2 = d2.k2 AND f.k3 = d3.k3 "
                "AND d1.g = 1 GROUP BY d3.c"),
            4u);
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT AVG(f.v / 3), STDDEV_SAMP(f.v / 3), AVG(f.m), "
                "STDDEV_SAMP(f.m), SUM(f.m) FROM f JOIN d2 ON f.k2 = d2.k2"),
            1u);
}

TEST_F(IndexFormTest, CountDistinctAndRollupOverTheChain) {
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT d1.g, COUNT(DISTINCT f.v), COUNT(DISTINCT d2.b), "
                "AVG(DISTINCT f.v / 3) FROM f JOIN d1 ON f.k1 = d1.k1 "
                "JOIN d2 ON f.k2 = d2.k2 GROUP BY d1.g"),
            5u);
  EXPECT_GT(ExpectMatchesReference(
                "SELECT d1.g, d3.c, COUNT(*), SUM(f.m), AVG(f.v / 3) FROM f "
                "JOIN d1 ON f.k1 = d1.k1 JOIN d3 ON f.k3 = d3.k3 "
                "GROUP BY ROLLUP(d1.g, d3.c)"),
            20u);
}

TEST_F(IndexFormTest, StringGroupKeysFromTheScanAndABuildSide) {
  // f.ks is a string column of the fact table (source 0), ds.s one of a
  // build side.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT ds.s, f.ks, COUNT(*), SUM(f.v), MIN(f.ks) FROM f "
                "JOIN d1 ON f.k1 = d1.k1 JOIN ds ON f.k3 = ds.sv "
                "GROUP BY ds.s, f.ks"),
            10u);
}

TEST_F(IndexFormTest, LeftJoinPadAsAGroupKey) {
  // A quarter of f.k2 misses d2: their rows group under a NULL d2.b.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT d2.b, COUNT(*), SUM(f.v), AVG(f.m) FROM f "
                "JOIN d1 ON f.k1 = d1.k1 LEFT JOIN d2 ON f.k2 = d2.k2 "
                "GROUP BY d2.b"),
            30u);
}

TEST_F(IndexFormTest, ExpressionArgumentsAndHaving) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT d1.g, SUM(f.v - d1.a), "
                "SUM(CASE WHEN d2.b > 30 THEN f.v ELSE 0 END), "
                "MAX(CASE WHEN f.v > 50 THEN d3.c END) FROM f "
                "JOIN d1 ON f.k1 = d1.k1 JOIN d2 ON f.k2 = d2.k2 "
                "JOIN d3 ON f.k3 = d3.k3 GROUP BY d1.g "
                "HAVING COUNT(*) > 100 AND SUM(f.v) > 0"),
            0u);
}

TEST_F(IndexFormTest, ProjectWithAnExpressionAndNoAggregate) {
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d1.a + d2.b, f.v / 3, "
                "CASE WHEN f.m IS NULL THEN ds.s ELSE f.ks END FROM f "
                "JOIN d1 ON f.k1 = d1.k1 JOIN d2 ON f.k2 = d2.k2 "
                "LEFT JOIN ds ON f.k3 = ds.sv"),
            static_cast<size_t>(kFactRows));
}

TEST_F(IndexFormTest, ScanOnlyAggregate) {
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT f.k3, SUM(f.v), AVG(f.v / 3), STDDEV_SAMP(f.m), "
                "COUNT(DISTINCT f.ks) FROM f GROUP BY f.k3"),
            20u);
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT COUNT(*), AVG(f.m), STDDEV_SAMP(f.v / 3) FROM f "
                "WHERE f.v < 50"),
            1u);
}

TEST_F(IndexFormTest, ExplainTagsTheConsumersThatReadTheIndexForm) {
  auto tagged = [](const std::vector<ExecStats::OpStat>& ops,
                   const std::string& label) {
    for (const ExecStats::OpStat& op : ops) {
      if (op.label.rfind(label, 0) == 0) return op.vectorized;
    }
    ADD_FAILURE() << "no " << label << " operator";
    return false;
  };
  const std::string chain =
      "SELECT d3.c, COUNT(*) FROM f JOIN d1 ON f.k1 = d1.k1 "
      "JOIN d3 ON f.k3 = d3.k3 GROUP BY d3.c";
  EXPECT_TRUE(tagged(OperatorsOf(chain, true), "aggregate"));
  EXPECT_TRUE(tagged(OperatorsOf("SELECT f.id, d1.a + 1 FROM f "
                                 "JOIN d1 ON f.k1 = d1.k1",
                                 true),
                     "project"));
  // A cross-scope OR stays a residual filter between the join and the
  // aggregate; the filter keeps the index form, so the aggregate reads it.
  std::vector<ExecStats::OpStat> filtered = OperatorsOf(
      "SELECT COUNT(*) FROM f JOIN d1 ON f.k1 = d1.k1 "
      "WHERE f.v < 10 OR d1.a > 100",
      true);
  EXPECT_TRUE(tagged(filtered, "filter"));
  EXPECT_TRUE(tagged(filtered, "aggregate"));
  for (const ExecStats::OpStat& op : OperatorsOf(chain, false)) {
    EXPECT_FALSE(op.vectorized) << op.label;
  }
}

// Every input is taken in index form: a derived table, a CTE or a set
// operation becomes the pipeline's first source, and filters, scan
// residuals and inner residual joins keep the tuples that pass.

TEST_F(IndexFormTest, DerivedTableProbeSide) {
  const std::string sql =
      "SELECT t.id, t.a, d2.b, d3.c FROM (SELECT f.id, f.k2, f.k3, d1.a "
      "FROM f JOIN d1 ON f.k1 = d1.k1 WHERE f.v < 60) t "
      "JOIN d2 ON t.k2 = d2.k2 JOIN d3 ON t.k3 = d3.k3";
  EXPECT_GT(ExpectMatchesReference(sql), 1000u);
  ExpectEveryTagged(sql, "hash join", 3);
}

TEST_F(IndexFormTest, CteReadTwice) {
  // Both branches probe with the CTE's rows; the second filters them
  // first.
  const std::string sql =
      "WITH c AS (SELECT f.id, f.k2, f.k3, f.m, d1.a FROM f "
      "JOIN d1 ON f.k1 = d1.k1) "
      "SELECT c.k3, COUNT(*), SUM(c.a), AVG(c.m) FROM c "
      "JOIN d2 ON c.k2 = d2.k2 GROUP BY c.k3 "
      "UNION ALL "
      "SELECT c.k2, COUNT(*), SUM(d3.c), AVG(c.m) FROM c "
      "JOIN d3 ON c.k3 = d3.k3 WHERE c.id > 100 GROUP BY c.k2";
  EXPECT_EQ(ExpectMatchesReference(sql), 60u);
  ExpectEveryTagged(sql, "hash join", 3);
  ExpectEveryTagged(sql, "filter", 1);
}

TEST_F(IndexFormTest, UnionAllProbeSide) {
  // q98's shape: a UNION ALL of two pipelines probes a dimension, and an
  // aggregate reads the join's index form.
  const std::string branches =
      "(SELECT 'a' AS ch, f.k2 AS k, f.m AS m FROM f WHERE f.v < 30 "
      "UNION ALL SELECT 'b' AS ch, f.k2 AS k, f.m AS m FROM f, d1 "
      "WHERE f.k1 = d1.k1 AND d1.g = 2) u";
  EXPECT_GT(ExpectMatchesReference("SELECT u.ch, u.k, d2.b FROM " +
                                   branches + " JOIN d2 ON u.k = d2.k2"),
            1000u);
  const std::string grouped = "SELECT u.ch, d2.b, COUNT(*), SUM(u.m), "
                              "AVG(u.m) FROM " +
                              branches +
                              ", d2 WHERE u.k = d2.k2 GROUP BY u.ch, d2.b";
  EXPECT_EQ(ExpectMatchesReference(grouped), 72u);
  ExpectEveryTagged(grouped, "hash join", 2);
  ExpectEveryTagged(grouped, "aggregate", 1);
}

TEST_F(IndexFormTest, FilterBetweenTheChainAndAnAggregate) {
  const std::string sql =
      "SELECT d3.c, COUNT(*), SUM(f.v), AVG(f.m), STDDEV_SAMP(f.v / 3) "
      "FROM f JOIN d1 ON f.k1 = d1.k1 JOIN d2 ON f.k2 = d2.k2 "
      "JOIN d3 ON f.k3 = d3.k3 WHERE f.v + d2.b > 40 OR d1.a < 30 "
      "GROUP BY d3.c";
  EXPECT_EQ(ExpectMatchesReference(sql), 20u);
  ExpectEveryTagged(sql, "filter", 1);
  ExpectEveryTagged(sql, "aggregate", 1);
  // The same filter under a consumer that boxes its rows.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d2.b, d3.c FROM f JOIN d2 ON f.k2 = d2.k2 "
                "JOIN d3 ON f.k3 = d3.k3 WHERE f.v + d2.b > 40 OR "
                "d3.c < 30"),
            1000u);
}

TEST_F(IndexFormTest, ScanResidualUnderAStarSemiJoin) {
  // f.v + f.k3 > 50 compiles to no kernel: the scan evaluates it over the
  // rows its kernel and d1's pushed key set leave.
  const std::string sql =
      "SELECT f.id, d1.a, d2.b FROM f, d1, d2 WHERE f.k1 = d1.k1 "
      "AND f.k2 = d2.k2 AND d1.g = 1 AND f.v + f.k3 > 50 AND f.v < 90";
  Result<std::string> plan = db_->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("star semi-join"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("(1 kernels, 1 residual)"), std::string::npos)
      << *plan;
  EXPECT_GT(ExpectMatchesReference(sql), 100u);
  // A scan whose every filter is residual.
  EXPECT_GT(ExpectMatchesReference(
                "SELECT f.id, d1.a FROM f JOIN d1 ON f.k1 = d1.k1 "
                "WHERE f.v + f.k3 > 50"),
            1000u);
}

TEST_F(IndexFormTest, InnerResidualJoinMidChain) {
  const std::string sql =
      "SELECT f.id, d1.a, d2.b, d3.c FROM f JOIN d1 ON f.k1 = d1.k1 "
      "JOIN d2 ON f.k2 = d2.k2 AND d2.b > f.v JOIN d3 ON f.k3 = d3.k3";
  EXPECT_GT(ExpectMatchesReference(sql), 1000u);
  ExpectEveryTagged(sql, "hash join", 3);
  EXPECT_EQ(ExpectMatchesReference(
                "SELECT d2.x, COUNT(*), SUM(f.m) FROM f "
                "JOIN d2 ON f.k2 = d2.k2 AND d2.b + f.v < 70 "
                "JOIN d1 ON f.k1 = d1.k1 GROUP BY d2.x"),
            8u);
}

TEST_F(IndexFormTest, LeftResidualAndNestedLoopJoinsKeepTheRowOperators) {
  // The LEFT JOIN's residual decides which rows pad, so it runs the row
  // operator; the join above it probes with its boxed rows.
  const std::string left =
      "SELECT f.id, d2.b, d3.c FROM f JOIN d1 ON f.k1 = d1.k1 "
      "LEFT JOIN d2 ON f.k2 = d2.k2 AND d2.b > f.v JOIN d3 ON f.k3 = d3.k3";
  EXPECT_GT(ExpectMatchesReference(left), 1000u);
  int joins = 0;
  for (const ExecStats::OpStat& op : OperatorsOf(left, true)) {
    if (op.label.rfind("hash join", 0) != 0) continue;
    ++joins;
    EXPECT_EQ(op.vectorized,
              op.label.find("(left outer)") == std::string::npos)
        << op.label;
  }
  EXPECT_EQ(joins, 3);
  const std::string nested =
      "SELECT f.id, d4.z FROM f JOIN d4 ON f.v < d4.x WHERE f.id < 500";
  EXPECT_GT(ExpectMatchesReference(nested), 0u);
  bool found = false;
  for (const ExecStats::OpStat& op : OperatorsOf(nested, true)) {
    if (op.label.rfind("nested-loop join", 0) != 0) continue;
    found = true;
    EXPECT_FALSE(op.vectorized) << op.label;
  }
  EXPECT_TRUE(found);
}

TEST_F(IndexFormTest, RowBudgetTripsInsideAFilteredChain) {
  // The scan produces 6000 rows and the joins 9000 and 18000, which the
  // filter keeps, charging nothing: 33000 rows fit a budget of 40000, and
  // a budget of 20000 trips at the second join.
  const std::string sql =
      "SELECT COUNT(*) FROM f JOIN d2 ON f.k2 = d2.k2 "
      "JOIN d2 d2b ON f.k2 = d2b.k2 WHERE f.v + d2.b >= 0";
  for (int workers : {1, 4}) {
    PlannerOptions options = db_->default_options();
    options.parallelism = workers;
    options.row_budget = 40000;
    Result<QueryResult> fits = db_->Query(sql, options, nullptr);
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    EXPECT_EQ(fits->rows[0][0].AsInt(), 18000);
    options.row_budget = 20000;
    Result<QueryResult> r = db_->Query(sql, options, nullptr);
    ASSERT_FALSE(r.ok()) << "parallelism " << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("row budget"), std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(IndexFormTest, RowBudgetTripsInsideTheChain) {
  // The scan produces 6000 rows, the first join 9000 (d2 holds three of
  // every four f.k2 values, twice), the second 18000: a budget of 20000
  // rows trips at the second join, before any row is boxed.
  const std::string sql =
      "SELECT COUNT(*) FROM f JOIN d2 ON f.k2 = d2.k2 "
      "JOIN d2 d2b ON f.k2 = d2b.k2";
  Result<QueryResult> ungoverned = db_->Query(sql);
  ASSERT_TRUE(ungoverned.ok()) << ungoverned.status().ToString();
  EXPECT_EQ(ungoverned->rows[0][0].AsInt(), 18000);
  for (int workers : {1, 4}) {
    PlannerOptions options = db_->default_options();
    options.parallelism = workers;
    options.row_budget = 20000;
    Result<QueryResult> r = db_->Query(sql, options, nullptr);
    ASSERT_FALSE(r.ok()) << "parallelism " << workers;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("row budget"), std::string::npos)
        << r.status().ToString();
  }
}

/// Backing-vs-backing differential: the same checkpoint deep-loaded onto
/// the heap and mmap-attached (zero-copy) must answer the 17-template
/// sample byte-identically, serial and parallel. This is the oracle for
/// the v2 checkpoint format — any offset, alignment or arena bug shows up
/// as a CSV diff.
class MmapDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    heap_ = new Database();
    ASSERT_TRUE(heap_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = 0.002;
    ASSERT_TRUE(heap_->LoadTpcdsData(options).ok());
    ckpt_dir_ = ProcessTempPath("mmap_differential_ckpt");
    std::filesystem::remove_all(ckpt_dir_);
    Status saved = heap_->SaveCheckpoint(ckpt_dir_);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    attached_ = new Database();
    Status att = attached_->AttachCheckpoint(ckpt_dir_);
    ASSERT_TRUE(att.ok()) << att.ToString();
  }

  static void TearDownTestSuite() {
    delete attached_;
    attached_ = nullptr;
    delete heap_;
    heap_ = nullptr;
    std::filesystem::remove_all(ckpt_dir_);
  }

  static Database* heap_;
  static Database* attached_;
  static std::string ckpt_dir_;
};

Database* MmapDifferentialTest::heap_ = nullptr;
Database* MmapDifferentialTest::attached_ = nullptr;
std::string MmapDifferentialTest::ckpt_dir_;

TEST_F(MmapDifferentialTest, AttachIsZeroCopy) {
  // The attached database must serve string and numeric columns straight
  // out of the mapping — a materializing attach would defeat the O(1)
  // cold start this path exists for.
  EXPECT_GT(attached_->Snapshot()->MappedColumnCount(), 0u);
  EXPECT_EQ(heap_->Snapshot()->MappedColumnCount(), 0u);
}

TEST_F(MmapDifferentialTest, SampledTemplatesAgreeAcrossBackings) {
  const int kSample[] = {1, 7, 14, 21, 27, 31, 38, 46, 55,
                         56, 63, 70, 76, 82, 88, 95, 99};
  QueryGenerator qgen(19620718);
  for (int id : kSample) {
    const QueryTemplate* tmpl = FindTemplate(id);
    ASSERT_NE(tmpl, nullptr) << "template " << id;
    Result<std::string> sql = qgen.Instantiate(*tmpl, 0);
    ASSERT_TRUE(sql.ok()) << "template " << id;
    for (int workers : {1, 4}) {
      PlannerOptions options = heap_->default_options();
      options.parallelism = workers;
      Result<QueryResult> on_heap = heap_->Query(*sql, options, nullptr);
      ASSERT_TRUE(on_heap.ok())
          << "template " << id << ": " << on_heap.status().ToString();
      Result<QueryResult> on_mmap = attached_->Query(*sql, options, nullptr);
      ASSERT_TRUE(on_mmap.ok())
          << "template " << id << ": " << on_mmap.status().ToString();
      EXPECT_EQ(on_mmap->ToCsv(), on_heap->ToCsv())
          << "template " << id << " at parallelism " << workers;
    }
  }
}

/// Snapshot-isolation differential: a facade pinned before a maintenance
/// generation swap must keep answering byte-identically after the swap,
/// while fresh snapshots see the refreshed generation.
TEST_F(MmapDifferentialTest, PinnedFacadeSurvivesGenerationSwap) {
  Database db;
  ASSERT_TRUE(db.CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = 0.002;
  ASSERT_TRUE(db.LoadTpcdsData(gen).ok());

  const int kSample[] = {1, 27, 55, 82, 99};
  QueryGenerator qgen(19620718);
  std::vector<std::string> sqls;
  std::vector<std::string> before;
  std::shared_ptr<const DataFacade> pinned = db.Snapshot();
  for (int id : kSample) {
    const QueryTemplate* tmpl = FindTemplate(id);
    ASSERT_NE(tmpl, nullptr);
    Result<std::string> sql = qgen.Instantiate(*tmpl, 0);
    ASSERT_TRUE(sql.ok());
    Result<QueryResult> r = QueryFacade(*pinned, *sql, db.default_options());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    sqls.push_back(*sql);
    before.push_back(r->ToCsv());
  }

  uint64_t gen_before = db.generation();
  MaintenanceOptions dm;
  dm.scale_factor = 0.002;
  dm.dimension_updates = 10;
  MaintenanceReport report;
  Status st = RunMaintenanceGeneration(&db, dm, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(db.generation(), gen_before + 1);
  EXPECT_EQ(pinned->generation(), gen_before);

  // The pinned pre-swap generation answers exactly as before the swap.
  for (size_t i = 0; i < sqls.size(); ++i) {
    Result<QueryResult> r =
        QueryFacade(*pinned, sqls[i], db.default_options());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ToCsv(), before[i]) << "template sample " << i;
  }
  // A fresh snapshot sees the refreshed generation (the maintenance run
  // must have changed at least one sampled answer or the content hash).
  std::shared_ptr<const DataFacade> fresh = db.Snapshot();
  EXPECT_EQ(fresh->generation(), gen_before + 1);
  EXPECT_NE(HashFacadeContent(*fresh), HashFacadeContent(*pinned));
}

}  // namespace
}  // namespace tpcds
