// Differential testing of the SQL engine: random mini-databases and
// randomly parameterised queries are evaluated both by the engine and by
// an independent brute-force evaluator written directly against the
// stored data. Any divergence in filter, join, aggregation or NULL
// semantics fails the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>

#include "engine/audit.h"
#include "engine/data_facade.h"
#include "engine/database.h"
#include "engine/stats.h"
#include "maintenance/maintenance.h"
#include "qgen/qgen.h"
#include "temp_path.h"
#include "templates/templates.h"
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

  static Database* db_;
};

Database* VectorizedDifferentialTest::db_ = nullptr;

TEST_F(VectorizedDifferentialTest, SampledTemplatesAgreeWithRowSetPath) {
  // Spread across the four template families (store / catalog / web /
  // cross-channel); every id must exist.
  const int kSample[] = {1, 7, 14, 21, 27, 31, 38, 46, 55,
                         56, 63, 70, 76, 82, 88, 95, 99};
  QueryGenerator qgen(19620718);
  for (int id : kSample) {
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
    for (int workers : {1, 4}) {
      for (bool vectorized : {false, true}) {
        for (bool topk : {false, true}) {
          if (workers == 1 && !vectorized && !topk) continue;  // reference
          options.parallelism = workers;
          options.vectorized_execution = vectorized;
          options.topk_pushdown = topk;
          Result<QueryResult> run = db_->Query(*sql, options, nullptr);
          ASSERT_TRUE(run.ok())
              << "template " << id << ": " << run.status().ToString();
          EXPECT_EQ(run->ToCsv(), expected)
              << "template " << id << " at parallelism " << workers
              << (vectorized ? ", vectorized" : ", row-at-a-time")
              << (topk ? ", topk" : ", full sort");
        }
      }
    }
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

/// Cost-based-vs-structural differential: the 17-template sample answered
/// by the structural planner (cost_based off, FROM-order shapes) is the
/// reference; the cost-based planner may reorder joins, reorder star
/// dimensions and gate pushdowns differently, but every combination of
/// cost_based x parallelism must reproduce the reference bytes. This is
/// the correctness oracle for the optimizer (docs/PLANNER.md).
class CostBasedDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = 0.002;
    ASSERT_TRUE(db_->LoadTpcdsData(options).ok());
    // Eager one-pass collection; lazy per-table collection is equivalent.
    EXPECT_GT(db_->AnalyzeStorage(), 0u);
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
};

Database* CostBasedDifferentialTest::db_ = nullptr;

TEST_F(CostBasedDifferentialTest, SampledTemplatesAgreeWithStructuralPlans) {
  const int kSample[] = {1, 7, 14, 21, 27, 31, 38, 46, 55,
                         56, 63, 70, 76, 82, 88, 95, 99};
  QueryGenerator qgen(19620718);
  for (int id : kSample) {
    const QueryTemplate* tmpl = FindTemplate(id);
    ASSERT_NE(tmpl, nullptr) << "template " << id;
    Result<std::string> sql = qgen.Instantiate(*tmpl, 0);
    ASSERT_TRUE(sql.ok()) << "template " << id;

    PlannerOptions options = db_->default_options();
    options.cost_based = false;
    options.parallelism = 1;
    Result<QueryResult> reference = db_->Query(*sql, options, nullptr);
    ASSERT_TRUE(reference.ok())
        << "template " << id << ": " << reference.status().ToString();
    std::string expected = reference->ToCsv();

    for (int workers : {1, 4}) {
      for (bool cost : {false, true}) {
        if (workers == 1 && !cost) continue;  // reference
        options.parallelism = workers;
        options.cost_based = cost;
        ExecStats stats;
        Result<QueryResult> run = db_->Query(*sql, options, &stats);
        ASSERT_TRUE(run.ok())
            << "template " << id << ": " << run.status().ToString();
        EXPECT_EQ(run->ToCsv(), expected)
            << "template " << id << " at parallelism " << workers
            << (cost ? ", cost-based" : ", structural");
        if (cost) {
          // A cost-annotated run reports its worst estimation error; 1.0
          // is a perfect estimate, 0 would mean nothing was annotated.
          EXPECT_GE(stats.max_q_error, 1.0) << "template " << id;
        } else {
          EXPECT_EQ(stats.max_q_error, 0.0) << "template " << id;
        }
      }
    }
  }
}

/// Plan drift under carried statistics: maintenance generations carry each
/// table's statistics forward until more than a tenth of its rows changed
/// (EngineTable::GetOrComputeStats), so after 12 cycles the planner works
/// from statistics several cycles old. For every sampled template the
/// worst estimation error may age, but stays within 2x of its value under
/// the statistics a fresh analysis collects, and the answers are the same
/// bytes either way.
TEST(PlanDriftTest, CarriedStatisticsStayWithinTwiceFreshQError) {
  Database db;
  ASSERT_TRUE(db.CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = 0.002;
  ASSERT_TRUE(db.LoadTpcdsData(gen).ok());
  EXPECT_GT(db.AnalyzeStorage(), 0u);
  for (int cycle = 1; cycle <= 12; ++cycle) {
    MaintenanceOptions dm;
    dm.scale_factor = 0.002;
    dm.refresh_cycle = cycle;
    MaintenanceReport report;
    Status st = RunMaintenanceGeneration(&db, dm, &report);
    ASSERT_TRUE(st.ok()) << "cycle " << cycle << ": " << st.ToString();
  }
  // Carried, not recollected: the fact table's statistics describe an
  // older row count than the table holds.
  const EngineTable* sales = db.FindTable("store_sales");
  ASSERT_NE(sales->ComputedStats()->row_count, sales->num_rows());

  const int kSample[] = {1, 7, 14, 21, 27, 31, 38, 46, 55,
                         56, 63, 70, 76, 82, 88, 95, 99};
  QueryGenerator qgen(19620718);
  PlannerOptions options = db.default_options();
  options.parallelism = 1;
  ASSERT_TRUE(options.cost_based);
  struct Run {
    std::string csv;
    double max_q_error = 0.0;
  };
  auto run_sample = [&]() {
    std::map<int, Run> runs;
    for (int id : kSample) {
      const QueryTemplate* tmpl = FindTemplate(id);
      EXPECT_NE(tmpl, nullptr) << "template " << id;
      if (tmpl == nullptr) continue;
      Result<std::string> sql = qgen.Instantiate(*tmpl, 0);
      EXPECT_TRUE(sql.ok()) << "template " << id;
      if (!sql.ok()) continue;
      ExecStats stats;
      Result<QueryResult> r = db.Query(*sql, options, &stats);
      EXPECT_TRUE(r.ok()) << "template " << id << ": "
                          << r.status().ToString();
      if (r.ok()) runs[id] = Run{r->ToCsv(), stats.max_q_error};
    }
    return runs;
  };
  const std::map<int, Run> carried = run_sample();
  for (const std::string& name : db.TableNames()) {
    EngineTable* table = db.FindTable(name);
    table->InstallStats(std::make_shared<TableStats>(AnalyzeTable(*table)));
  }
  const std::map<int, Run> fresh = run_sample();
  ASSERT_EQ(carried.size(), std::size(kSample));
  ASSERT_EQ(fresh.size(), std::size(kSample));
  for (int id : kSample) {
    const Run& c = carried.at(id);
    const Run& f = fresh.at(id);
    EXPECT_EQ(c.csv, f.csv) << "template " << id;
    EXPECT_GE(f.max_q_error, 1.0) << "template " << id;
    EXPECT_LE(c.max_q_error, 2.0 * f.max_q_error)
        << "template " << id << ": carried " << c.max_q_error << ", fresh "
        << f.max_q_error;
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
