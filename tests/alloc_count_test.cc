// Pins "materialized once" with an exact count: this binary replaces the
// global operator new and counts the heap allocations one three-join chain
// query makes at parallelism 1. On the vectorized path the chain carries
// row indices and boxes each output row at most once, at its top, and not
// at all under an aggregate, which reads the indices itself, even through
// a filter; the reference path boxes every row at every level. An
// aggregate builds each of its groups once, however many morsels the
// group appears in. A join on two keys keys its build side in the key
// index without an allocation per build row.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/database.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpcds {
namespace {

constexpr int kFactRows = 6000;  // five full morsels and a part

const char* const kChainAggregate =
    "SELECT COUNT(*), SUM(d1.v + d2.v + d3.v) FROM f "
    "JOIN d1 ON f.k1 = d1.k JOIN d2 ON f.k2 = d2.k "
    "JOIN d3 ON f.k3 = d3.k";

/// A fact table of `fact_rows` rows whose every row matches exactly one
/// row of each of three small dimensions, all integer columns, so no value
/// owns a heap buffer and the chain's output is the fact table's row count.
void BuildStar(Database* db, int fact_rows = kFactRows) {
  ASSERT_TRUE(db->CreateTable("f", {{"k1", ColumnType::kInteger},
                                    {"k2", ColumnType::kInteger},
                                    {"k3", ColumnType::kInteger}})
                  .ok());
  for (const char* dim : {"d1", "d2", "d3"}) {
    ASSERT_TRUE(db->CreateTable(dim, {{"k", ColumnType::kInteger},
                                      {"v", ColumnType::kInteger}})
                    .ok());
    for (int j = 0; j < 20; ++j) {
      ASSERT_TRUE(db->FindTable(dim)
                      ->AppendRowStrings({std::to_string(j),
                                          std::to_string(j * 3)})
                      .ok());
    }
  }
  EngineTable* f = db->FindTable("f");
  for (int i = 0; i < fact_rows; ++i) {
    ASSERT_TRUE(f->AppendRowStrings({std::to_string(i % 20),
                                     std::to_string(i * 7 % 20),
                                     std::to_string(i * 11 % 20)})
                    .ok());
  }
}

/// Heap allocations one run of `sql` makes, planning included.
int64_t AllocationsOf(Database* db, const std::string& sql,
                      const PlannerOptions& options, int64_t* result) {
  int64_t before = g_allocations.load();
  Result<QueryResult> r = db->Query(sql, options, nullptr);
  int64_t count = g_allocations.load() - before;
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  *result = r.ok() ? r->rows[0][0].AsInt() : -1;
  return count;
}

TEST(AllocationCountTest, ThreeJoinChainBoxesEachOutputRowOnce) {
  Database db;
  BuildStar(&db);
  const std::string sql = kChainAggregate;
  PlannerOptions options = db.default_options();
  options.parallelism = 1;
  int64_t rows = 0;
  // The first run builds the tables' lazy derived state; count the second.
  AllocationsOf(&db, sql, options, &rows);
  int64_t vectorized = AllocationsOf(&db, sql, options, &rows);
  ASSERT_EQ(rows, kFactRows);
  // At most one boxed row per output row, plus parsing, planning, the
  // three build sides and a few index vectors per morsel.
  EXPECT_LE(vectorized, rows + 1000) << vectorized << " allocations";

  options.vectorized_execution = false;
  AllocationsOf(&db, sql, options, &rows);
  int64_t reference = AllocationsOf(&db, sql, options, &rows);
  ASSERT_EQ(rows, kFactRows);
  // The scan and each of the three joins box every row.
  EXPECT_GE(reference, 3 * rows) << reference << " allocations";
}

TEST(AllocationCountTest, AggregateAtopAChainBoxesNothingPerRow) {
  // The aggregate reads the chain's index form itself, into a scratch
  // batch it reuses: doubling the fact rows adds a few index vectors per
  // morsel, and no allocation per row.
  int64_t counts[2] = {0, 0};
  for (int size : {0, 1}) {
    Database db;
    BuildStar(&db, kFactRows * (size + 1));
    PlannerOptions options = db.default_options();
    options.parallelism = 1;
    int64_t rows = 0;
    AllocationsOf(&db, kChainAggregate, options, &rows);
    counts[size] = AllocationsOf(&db, kChainAggregate, options, &rows);
    ASSERT_EQ(rows, kFactRows * (size + 1));
  }
  EXPECT_LE(counts[1] - counts[0], 500)
      << counts[0] << " allocations at " << kFactRows << " fact rows, "
      << counts[1] << " at " << 2 * kFactRows;
}

TEST(AllocationCountTest, FilteredChainUnderAnAggregateBoxesNothingPerRow) {
  // A cross-scope filter between the chain and the aggregate keeps the
  // chain in index form: it reads the slots it tests into a scratch batch
  // and keeps the passing tuples, so doubling the fact rows adds no
  // allocation per row.
  const std::string sql = std::string(kChainAggregate) +
                          " WHERE f.k1 + d2.v > 20";
  int64_t counts[2] = {0, 0};
  int64_t kept[2] = {0, 0};
  for (int size : {0, 1}) {
    Database db;
    BuildStar(&db, kFactRows * (size + 1));
    PlannerOptions options = db.default_options();
    options.parallelism = 1;
    AllocationsOf(&db, sql, options, &kept[size]);
    counts[size] = AllocationsOf(&db, sql, options, &kept[size]);
  }
  ASSERT_GT(kept[0], 0);
  ASSERT_LT(kept[0], kFactRows);
  ASSERT_EQ(kept[1], 2 * kept[0]);
  EXPECT_LE(counts[1] - counts[0], 500)
      << counts[0] << " allocations at " << kFactRows << " fact rows, "
      << counts[1] << " at " << 2 * kFactRows;
}

TEST(AllocationCountTest, AggregateBuildsEachGroupOnce) {
  // 1,000 groups, each in every morsel. A table per morsel rebuilt every
  // group in every morsel, about three allocations each (its key, its
  // accumulators and a hash node); one group table per worker builds each
  // group once, so doubling the morsels adds no allocation per group.
  int64_t counts[2] = {0, 0};
  for (int size : {0, 1}) {
    Database db;
    ASSERT_TRUE(db.CreateTable("g", {{"v", ColumnType::kInteger},
                                     {"w", ColumnType::kInteger}})
                    .ok());
    EngineTable* g = db.FindTable("g");
    const int rows = 6 * 1024 * (size + 1);  // 6 and 12 morsels
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(
          g->AppendRowStrings({std::to_string(i % 1000), std::to_string(i)})
              .ok());
    }
    PlannerOptions options = db.default_options();
    options.parallelism = 1;
    const std::string sql =
        "SELECT v, COUNT(*), SUM(w), AVG(w) FROM g GROUP BY v";
    int64_t first = 0;
    AllocationsOf(&db, sql, options, &first);
    counts[size] = AllocationsOf(&db, sql, options, &first);
    ASSERT_EQ(first, 0);
  }
  EXPECT_LE(counts[1] - counts[0], 100)
      << counts[0] << " allocations at 6 morsels, " << counts[1]
      << " at 12";
}

TEST(AllocationCountTest, TwoKeyJoinKeysItsBuildRowsWithoutAllocating) {
  // An (int, string) join under an aggregate keys its build side in the
  // key index, as views of the boxed build rows: doubling the build side
  // adds at most its boxed rows, one allocation each, and no key vector
  // or hash node per row. Only build keys 0-499 match the probe side.
  constexpr int kBuildRows = 3000;
  const std::string sql =
      "SELECT COUNT(*), SUM(b.v) FROM p JOIN b ON p.k = b.k AND p.s = b.s";
  int64_t counts[2] = {0, 0};
  int64_t matched[2] = {0, 0};
  for (int size : {0, 1}) {
    Database db;
    ASSERT_TRUE(db.CreateTable("p", {{"k", ColumnType::kInteger},
                                     {"s", ColumnType::kVarchar}})
                    .ok());
    ASSERT_TRUE(db.CreateTable("b", {{"k", ColumnType::kInteger},
                                     {"s", ColumnType::kVarchar},
                                     {"v", ColumnType::kInteger}})
                    .ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(db.FindTable("p")
                      ->AppendRowStrings({std::to_string(i % 500),
                                          "s" + std::to_string(i % 3)})
                      .ok());
    }
    for (int r = 0; r < kBuildRows * (size + 1); ++r) {
      ASSERT_TRUE(db.FindTable("b")
                      ->AppendRowStrings({std::to_string(r),
                                          "s" + std::to_string(r % 3),
                                          std::to_string(r % 10)})
                      .ok());
    }
    PlannerOptions options = db.default_options();
    options.parallelism = 1;
    AllocationsOf(&db, sql, options, &matched[size]);
    counts[size] = AllocationsOf(&db, sql, options, &matched[size]);
  }
  ASSERT_GT(matched[0], 0);
  ASSERT_EQ(matched[1], matched[0]);
  EXPECT_LE(counts[1] - counts[0], kBuildRows + 100)
      << counts[0] << " allocations at " << kBuildRows << " build rows, "
      << counts[1] << " at " << 2 * kBuildRows;
}

}  // namespace
}  // namespace tpcds
