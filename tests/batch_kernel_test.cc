// Unit tests for the vectorized columnar primitives in engine/batch.{h,cc}:
// typed scan kernels over raw storage, zone-map construction and pruning,
// the Bloom filter, raw-storage key coercion, the planner's
// kernel-vs-residual classification of pushed scan filters, and the gate
// that pushes join keys into a probe scan.

#include "engine/batch.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/parser.h"
#include "engine/plan.h"
#include "engine/table.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

// ---- ApplyScanKernel ----------------------------------------------------

/// Builds an int-backed column from parsed fields ("" = NULL).
StorageColumn MakeIntColumn(const std::vector<std::string>& fields,
                            ColumnType type = ColumnType::kInteger) {
  StorageColumn c(type);
  for (const std::string& f : fields) EXPECT_TRUE(c.AppendParsed(f).ok());
  return c;
}

StorageColumn MakeStrColumn(const std::vector<std::string>& fields) {
  StorageColumn c(ColumnType::kVarchar);
  for (const std::string& f : fields) EXPECT_TRUE(c.AppendParsed(f).ok());
  return c;
}

SelectionVector Identity(size_t n) {
  SelectionVector sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

TEST(ApplyScanKernelTest, IntRangeKeepsInclusiveBoundsAndDropsNulls) {
  StorageColumn c = MakeIntColumn({"1", "5", "", "10", "11", "4"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = 5;
  k.hi = 10;
  SelectionVector sel = Identity(6);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{1, 3}));  // 5 and 10 inclusive; NULL drops
}

TEST(ApplyScanKernelTest, IntRangeNegatedKeepsOutsideAndStillDropsNulls) {
  StorageColumn c = MakeIntColumn({"1", "5", "", "10", "11", "4"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = 5;
  k.hi = 10;
  k.negated = true;  // NOT BETWEEN: outside the range, NULL still unknown
  SelectionVector sel = Identity(6);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 4, 5}));
}

TEST(ApplyScanKernelTest, NegatedEmptyRangeKeepsAllNonNullRows) {
  // "x <> 7" compiles to a negated single-point range; the negation of an
  // *empty* range (always-false kernel encoding lo > hi) must keep every
  // non-null row.
  StorageColumn c = MakeIntColumn({"1", "", "7"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = std::numeric_limits<int64_t>::max();
  k.hi = std::numeric_limits<int64_t>::min();
  k.negated = true;
  SelectionVector sel = Identity(3);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 2}));
}

TEST(ApplyScanKernelTest, IntInAndNegatedIn) {
  StorageColumn c = MakeIntColumn({"3", "8", "", "5", "9"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntIn;
  k.col = 0;
  k.values = {3, 5};  // sorted, as the compiler produces
  SelectionVector sel = Identity(5);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 3}));

  k.negated = true;
  sel = Identity(5);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{1, 4}));  // NULL is unknown either way
}

TEST(ApplyScanKernelTest, NullTestBothDirections) {
  StorageColumn c = MakeIntColumn({"3", "", "", "5"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kNullTest;
  k.col = 0;
  SelectionVector sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{1, 2}));  // IS NULL

  k.negated = true;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 3}));  // IS NOT NULL
}

TEST(ApplyScanKernelTest, AlwaysFalseClearsSelection) {
  StorageColumn c = MakeIntColumn({"1", "2"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kAlwaysFalse;
  k.col = 0;
  SelectionVector sel = Identity(2);
  ApplyScanKernel(k, c, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(ApplyScanKernelTest, EmptySelectionStaysEmpty) {
  StorageColumn c = MakeIntColumn({"1", "2"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = 0;
  k.hi = 100;
  SelectionVector sel;
  ApplyScanKernel(k, c, &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(ApplyScanKernelTest, StrCompareAllOperators) {
  StorageColumn c = MakeStrColumn({"apple", "", "banana", "cherry"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kStrCompare;
  k.col = 0;
  k.str = "banana";

  k.cmp = ScanKernel::Cmp::kEq;
  SelectionVector sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{2}));

  k.cmp = ScanKernel::Cmp::kNe;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 3}));  // NULL never passes <>

  k.cmp = ScanKernel::Cmp::kLt;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0}));

  k.cmp = ScanKernel::Cmp::kLe;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 2}));

  k.cmp = ScanKernel::Cmp::kGt;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{3}));

  k.cmp = ScanKernel::Cmp::kGe;
  sel = Identity(4);
  ApplyScanKernel(k, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{2, 3}));
}

TEST(ApplyScanKernelTest, StrInAndLike) {
  StorageColumn c =
      MakeStrColumn({"ale", "", "amber ale", "lager", "stout", "a"});
  ScanKernel in;
  in.kind = ScanKernel::Kind::kStrIn;
  in.col = 0;
  in.strs = {"ale", "stout"};
  SelectionVector sel = Identity(6);
  ApplyScanKernel(in, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 4}));

  in.negated = true;
  sel = Identity(6);
  ApplyScanKernel(in, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{2, 3, 5}));

  ScanKernel like;
  like.kind = ScanKernel::Kind::kStrLike;
  like.col = 0;
  like.str = "a%";
  like.like_prefix = "a";
  like.prefix_only = true;
  sel = Identity(6);
  ApplyScanKernel(like, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 2, 5}));

  // General pattern (not prefix-only): '%ale' suffix match.
  ScanKernel suffix;
  suffix.kind = ScanKernel::Kind::kStrLike;
  suffix.col = 0;
  suffix.str = "%ale";
  sel = Identity(6);
  ApplyScanKernel(suffix, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 2}));

  suffix.negated = true;
  sel = Identity(6);
  ApplyScanKernel(suffix, c, &sel);
  EXPECT_EQ(sel, (SelectionVector{3, 4, 5}));  // NULL never passes NOT LIKE
}

// ---- zone maps ------------------------------------------------------------

TEST(ZoneMapTest, BuildTracksPerBlockMinMaxAndNulls) {
  StorageColumn c(ColumnType::kInteger);
  // Block 0: rows 0..1023 hold value 100 + (r % 7), with NULL every 50th.
  // Block 1 (partial): rows 1024..1199 hold value 5000 + r.
  for (size_t r = 0; r < 1200; ++r) {
    if (r < 1024) {
      if (r % 50 == 0) {
        ASSERT_TRUE(c.AppendParsed("").ok());
      } else {
        ASSERT_TRUE(
            c.AppendParsed(std::to_string(100 + (r % 7))).ok());
      }
    } else {
      ASSERT_TRUE(c.AppendParsed(std::to_string(5000 + r)).ok());
    }
  }
  ZoneMap zm = BuildZoneMap(c, 1200);
  ASSERT_EQ(zm.blocks.size(), 2u);
  EXPECT_TRUE(zm.blocks[0].has_null);
  EXPECT_TRUE(zm.blocks[0].has_nonnull);
  EXPECT_EQ(zm.blocks[0].min, 100);
  EXPECT_EQ(zm.blocks[0].max, 106);
  EXPECT_FALSE(zm.blocks[1].has_null);
  EXPECT_EQ(zm.blocks[1].min, 6024);
  EXPECT_EQ(zm.blocks[1].max, 6199);
}

TEST(ZoneMapTest, AllNullBlockPrunesEverythingExceptIsNull) {
  StorageColumn c(ColumnType::kInteger);
  for (size_t r = 0; r < 10; ++r) ASSERT_TRUE(c.AppendParsed("").ok());
  ZoneMap zm = BuildZoneMap(c, 10);
  ASSERT_EQ(zm.blocks.size(), 1u);
  EXPECT_FALSE(zm.blocks[0].has_nonnull);

  ScanKernel range;
  range.kind = ScanKernel::Kind::kIntRange;
  range.lo = std::numeric_limits<int64_t>::min();
  range.hi = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(KernelPrunesBlock(range, zm.blocks[0]));

  ScanKernel isnull;
  isnull.kind = ScanKernel::Kind::kNullTest;
  EXPECT_FALSE(KernelPrunesBlock(isnull, zm.blocks[0]));
  isnull.negated = true;  // IS NOT NULL: nothing can pass
  EXPECT_TRUE(KernelPrunesBlock(isnull, zm.blocks[0]));
}

TEST(ZoneMapTest, RangeAndInPruning) {
  ZoneEntry zone;
  zone.min = 100;
  zone.max = 200;
  zone.has_nonnull = true;

  ScanKernel range;
  range.kind = ScanKernel::Kind::kIntRange;
  range.lo = 201;
  range.hi = 500;
  EXPECT_TRUE(KernelPrunesBlock(range, zone));
  range.lo = 200;  // touches the block max
  EXPECT_FALSE(KernelPrunesBlock(range, zone));
  range.lo = 0;
  range.hi = 99;
  EXPECT_TRUE(KernelPrunesBlock(range, zone));

  // Negated range prunes only when the whole block sits inside [lo, hi].
  range.negated = true;
  range.lo = 100;
  range.hi = 200;
  EXPECT_TRUE(KernelPrunesBlock(range, zone));
  range.lo = 101;
  EXPECT_FALSE(KernelPrunesBlock(range, zone));

  ScanKernel in;
  in.kind = ScanKernel::Kind::kIntIn;
  in.values = {10, 50, 99};
  EXPECT_TRUE(KernelPrunesBlock(in, zone));
  in.values = {10, 150};
  EXPECT_FALSE(KernelPrunesBlock(in, zone));
  in.values.clear();  // IN () matches nothing
  EXPECT_TRUE(KernelPrunesBlock(in, zone));

  EXPECT_TRUE(RangePrunesBlock(zone, 201, 1000));
  EXPECT_FALSE(RangePrunesBlock(zone, 150, 160));
}

// ---- Bloom filter ----------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegativesAndMostlyRejectsOthers) {
  BloomFilter bloom(1000);
  for (size_t i = 0; i < 1000; ++i) {
    bloom.Add(HashStorageValue(ColumnType::kIdentifier,
                               static_cast<int64_t>(i * 3)));
  }
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain(HashStorageValue(
        ColumnType::kIdentifier, static_cast<int64_t>(i * 3))));
  }
  size_t false_positives = 0;
  for (size_t i = 0; i < 10000; ++i) {
    if (bloom.MayContain(HashStorageValue(
            ColumnType::kIdentifier, static_cast<int64_t>(1000000 + i)))) {
      ++false_positives;
    }
  }
  // ~10 bits/key gives a low single-digit percent rate; 20% is generous.
  EXPECT_LT(false_positives, 2000u);
}

// ---- raw-storage key coercion ----------------------------------------------

TEST(StorageValueForEqualityTest, IntAndDecimalAndDateKeys) {
  int64_t raw = 0;
  EXPECT_EQ(StorageValueForEquality(ColumnType::kInteger, Value::Int(42),
                                    &raw),
            StorageEq::kExact);
  EXPECT_EQ(raw, 42);

  // Integer key against a decimal (cents) column scales by 100.
  EXPECT_EQ(StorageValueForEquality(ColumnType::kDecimal, Value::Int(42),
                                    &raw),
            StorageEq::kExact);
  EXPECT_EQ(raw, 4200);

  // Decimal key against an int column matches only when whole.
  EXPECT_EQ(StorageValueForEquality(ColumnType::kInteger,
                                    Value::Dec(Decimal::FromCents(4200)),
                                    &raw),
            StorageEq::kExact);
  EXPECT_EQ(raw, 42);
  EXPECT_EQ(StorageValueForEquality(ColumnType::kInteger,
                                    Value::Dec(Decimal::FromCents(4250)),
                                    &raw),
            StorageEq::kNoMatch);

  // Date column against a parseable / unparseable string literal.
  EXPECT_EQ(StorageValueForEquality(ColumnType::kDate,
                                    Value::Str("1998-01-01"), &raw),
            StorageEq::kExact);
  EXPECT_EQ(StorageValueForEquality(ColumnType::kDate, Value::Str("bogus"),
                                    &raw),
            StorageEq::kNoMatch);

  // Magnitudes beyond the double-exact window are refused, not guessed.
  EXPECT_EQ(StorageValueForEquality(ColumnType::kDecimal,
                                    Value::Int(int64_t{1} << 60), &raw),
            StorageEq::kUnsupported);
}

// ---- kernel compilation (planner classification) ---------------------------

/// Finds the first kScan node in a plan tree.
const PlanNode* FindScan(const PlanNode* n) {
  if (n == nullptr) return nullptr;
  if (n->kind == PlanKind::kScan) return n;
  for (const auto& c : n->children) {
    if (const PlanNode* s = FindScan(c.get())) return s;
  }
  return nullptr;
}

class KernelCompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("t", {{"k", ColumnType::kIdentifier},
                                      {"n", ColumnType::kInteger},
                                      {"price", ColumnType::kDecimal},
                                      {"d", ColumnType::kDate},
                                      {"s", ColumnType::kVarchar}})
                    .ok());
    std::vector<std::string> row = {"1", "2", "3.50", "1998-01-01", "x"};
    ASSERT_TRUE(db_.FindTable("t")->AppendRowStrings(row).ok());
  }

  /// Plans `where` against t and returns (kernels, residual) of the scan.
  std::pair<size_t, size_t> Classify(const std::string& where) {
    Result<std::shared_ptr<SelectStmt>> stmt =
        ParseSql("SELECT k FROM t WHERE " + where);
    EXPECT_TRUE(stmt.ok()) << where;
    if (!stmt.ok()) return {0, 0};
    std::shared_ptr<const DataFacade> facade = db_.Snapshot();
    Result<PhysicalPlan> plan =
        BuildPlan(facade.get(), **stmt, db_.default_options());
    EXPECT_TRUE(plan.ok()) << where << ": " << plan.status().ToString();
    if (!plan.ok()) return {0, 0};
    const PlanNode* scan = FindScan(plan->root.get());
    EXPECT_NE(scan, nullptr) << where;
    if (scan == nullptr) return {0, 0};
    return {scan->kernels.size(), scan->residual_predicates.size()};
  }

  Database db_;
};

TEST_F(KernelCompileTest, SupportedShapesCompileToKernels) {
  EXPECT_EQ(Classify("n > 5"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("n BETWEEN 2 AND 9"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("price < 10.25"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("d >= '1998-01-01'"),
            (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("k IN (1, 2, 3)"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("s = 'x'"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("s LIKE 'ab%'"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("s IS NOT NULL"), (std::pair<size_t, size_t>{1, 0}));
  // String BETWEEN compiles to two compare kernels.
  EXPECT_EQ(Classify("s BETWEEN 'a' AND 'b'"),
            (std::pair<size_t, size_t>{2, 0}));
  // Two pushable conjuncts -> two kernels.
  EXPECT_EQ(Classify("n > 5 AND s = 'x'"),
            (std::pair<size_t, size_t>{2, 0}));
  // Operands that read no row are folded once, at plan time.
  EXPECT_EQ(Classify("d BETWEEN '1998-01-01' AND "
                     "(CAST('1998-01-01' AS DATE) + 30)"),
            (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("n > 2 + 3"), (std::pair<size_t, size_t>{1, 0}));
  EXPECT_EQ(Classify("k IN (1, 1 + 1)"), (std::pair<size_t, size_t>{1, 0}));
  // An unparseable date bound folds to NULL: no row passes.
  EXPECT_EQ(Classify("d <= CAST('x' AS DATE)"),
            (std::pair<size_t, size_t>{1, 0}));
}

TEST_F(KernelCompileTest, UnsupportedShapesStayOnResidualPath) {
  // Column-vs-column comparison has no literal to compile against.
  EXPECT_EQ(Classify("n > k"), (std::pair<size_t, size_t>{0, 1}));
  // Arithmetic over the column defeats the raw-storage translation.
  EXPECT_EQ(Classify("n + 1 > 5"), (std::pair<size_t, size_t>{0, 1}));
  // Mixed kernel + residual conjunction splits.
  EXPECT_EQ(Classify("n > 5 AND n + 1 > 5"),
            (std::pair<size_t, size_t>{1, 1}));
}

// ---- end-to-end: vectorized scan equals reference scan ---------------------

TEST(VectorizedScanTest, MatchesRowSetPathOnSyntheticTable) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"k", ColumnType::kIdentifier},
                                   {"n", ColumnType::kInteger},
                                   {"s", ColumnType::kVarchar}})
                  .ok());
  EngineTable* t = db.FindTable("t");
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::string> row(3);
    row[0] = std::to_string(i);
    if (i % 11 != 0) row[1] = std::to_string(i % 97);
    if (i % 13 != 0) row[2] = StringPrintf("name-%d", i % 31);
    ASSERT_TRUE(t->AppendRowStrings(row).ok());
  }
  const char* queries[] = {
      "SELECT COUNT(*), SUM(n) FROM t WHERE n BETWEEN 10 AND 60",
      "SELECT COUNT(*) FROM t WHERE n NOT BETWEEN 10 AND 60",
      "SELECT COUNT(*) FROM t WHERE k IN (5, 50, 500, 5000)",
      "SELECT COUNT(*) FROM t WHERE s LIKE 'name-1%'",
      "SELECT COUNT(*) FROM t WHERE s IS NULL",
      "SELECT COUNT(*), MIN(k) FROM t WHERE n IS NOT NULL AND n <> 42",
      "SELECT s, COUNT(*) FROM t WHERE n > 50 AND s > 'name-2' "
      "GROUP BY s ORDER BY s",
  };
  for (const char* sql : queries) {
    PlannerOptions options = db.default_options();
    options.vectorized_execution = false;
    Result<QueryResult> ref = db.Query(sql, options, nullptr);
    ASSERT_TRUE(ref.ok()) << sql << "\n" << ref.status().ToString();
    options.vectorized_execution = true;
    for (int workers : {1, 4}) {
      options.parallelism = workers;
      Result<QueryResult> vec = db.Query(sql, options, nullptr);
      ASSERT_TRUE(vec.ok()) << sql << "\n" << vec.status().ToString();
      EXPECT_EQ(vec->ToCsv(), ref->ToCsv())
          << sql << " at parallelism " << workers;
    }
  }
}

TEST(VectorizedScanTest, ZoneMapsPruneAndStayCorrectAfterMutation) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable("t", {{"k", ColumnType::kIdentifier}}).ok());
  EngineTable* t = db.FindTable("t");
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i)}).ok());
  }
  const std::string sql = "SELECT COUNT(*) FROM t WHERE k >= 4000";
  ExecStats stats;
  Result<QueryResult> r = db.Query(sql, db.default_options(), &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 96);
  EXPECT_GT(stats.morsels_pruned, 0);  // first three 1024-row blocks skip

  // Mutation invalidates the zone maps; the rebuilt map must see new rows.
  ASSERT_TRUE(t->AppendRowStrings({"100000"}).ok());
  stats = ExecStats();
  r = db.Query(sql, db.default_options(), &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 97);
}

TEST(VectorizedScanTest, MorselsPruneByTheirOwnZoneMapBlock) {
  // The scan prunes morsel m with zone-map block m, which is only sound
  // while both are kBatchRows long. k ascends, so every block holds its
  // own key range; the last block is partial.
  Database db;
  ASSERT_TRUE(
      db.CreateTable("t", {{"k", ColumnType::kIdentifier}}).ok());
  EngineTable* t = db.FindTable("t");
  const int64_t rows = 5 * static_cast<int64_t>(kBatchRows) + 300;
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i)}).ok());
  }
  const int64_t b = static_cast<int64_t>(kBatchRows);
  struct Case {
    std::string sql;
    int64_t count;
    int64_t pruned;
  };
  const Case cases[] = {
      {StringPrintf("SELECT COUNT(*) FROM t WHERE k BETWEEN %lld AND %lld",
                    static_cast<long long>(2 * b),
                    static_cast<long long>(3 * b - 1)),
       b, 5},
      {StringPrintf("SELECT COUNT(*) FROM t WHERE k >= %lld",
                    static_cast<long long>(5 * b)),
       300, 5},
      {StringPrintf("SELECT COUNT(*) FROM t WHERE k BETWEEN %lld AND %lld",
                    static_cast<long long>(b - 1), static_cast<long long>(b)),
       2, 4},
  };
  for (const Case& c : cases) {
    for (int workers : {1, 4}) {
      PlannerOptions options = db.default_options();
      options.parallelism = workers;
      ExecStats stats;
      Result<QueryResult> r = db.Query(c.sql, options, &stats);
      ASSERT_TRUE(r.ok()) << c.sql << "\n" << r.status().ToString();
      EXPECT_EQ(r->rows[0][0].AsInt(), c.count)
          << c.sql << " at parallelism " << workers;
      EXPECT_EQ(stats.morsels_pruned, c.pruned)
          << c.sql << " at parallelism " << workers;
    }
  }
}

TEST(VectorizedScanTest, ConstantBoundsPruneMorselsAndMatchTheRowPath) {
  // d ascends one day per row over five morsels and a partial sixth, so a
  // folded date range keeps only the morsels it overlaps.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"k", ColumnType::kIdentifier},
                                   {"d", ColumnType::kDate}})
                  .ok());
  EngineTable* t = db.FindTable("t");
  const int64_t rows = 5 * static_cast<int64_t>(kBatchRows) + 300;
  const Date start = *Date::Parse("1990-01-01");
  for (int64_t i = 0; i < rows; ++i) {
    Date d(static_cast<int32_t>(start.jdn() + i));
    ASSERT_TRUE(
        t->AppendRowStrings({std::to_string(i), d.ToString()}).ok());
  }
  // Rows 2100-2130, all in morsel 2; rows from 4000 on, in morsels 3-5;
  // and a NULL bound, which no row passes.
  const std::string first = Date(static_cast<int32_t>(start.jdn() + 2100))
                                .ToString();
  struct Case {
    std::string where;
    int64_t count;
    int64_t pruned;
  };
  const Case cases[] = {
      {"d BETWEEN '" + first + "' AND (CAST('" + first +
           "' AS DATE) + 30)",
       31, 5},
      {"d >= CAST('" + first + "' AS DATE) + 1900", rows - 4000, 3},
      {"d NOT IN (CAST('" + first + "' AS DATE), CAST('x' AS DATE))",
       rows - 1, 0},
      {"d <= CAST('x' AS DATE)", 0, 6},
  };
  for (const Case& c : cases) {
    const std::string sql = "SELECT COUNT(*), SUM(k) FROM t WHERE " + c.where;
    PlannerOptions options = db.default_options();
    options.vectorized_execution = false;
    Result<QueryResult> ref = db.Query(sql, options, nullptr);
    ASSERT_TRUE(ref.ok()) << sql << "\n" << ref.status().ToString();
    EXPECT_EQ(ref->rows[0][0].AsInt(), c.count) << sql;
    options.vectorized_execution = true;
    for (int workers : {1, 4}) {
      options.parallelism = workers;
      ExecStats stats;
      Result<QueryResult> vec = db.Query(sql, options, &stats);
      ASSERT_TRUE(vec.ok()) << sql << "\n" << vec.status().ToString();
      EXPECT_EQ(vec->ToCsv(), ref->ToCsv())
          << sql << " at parallelism " << workers;
      EXPECT_EQ(stats.morsels_pruned, c.pruned)
          << sql << " at parallelism " << workers;
    }
  }
}

TEST(VectorizedScanTest, BytesTouchedChargesPayloadOfScannedMorsels) {
  // 5000 rows: four full morsels and a partial one. Payloads are 8 bytes
  // per int64 row; a string column adds rows + 1 u64 offsets and its
  // arena (2 bytes per row here).
  Database db;
  ASSERT_TRUE(db.CreateTable("f", {{"k", ColumnType::kIdentifier},
                                   {"v", ColumnType::kInteger},
                                   {"s", ColumnType::kVarchar}})
                  .ok());
  EngineTable* t = db.FindTable("f");
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i),
                                     std::to_string(i % 10),
                                     "s" + std::to_string(i % 10)})
                    .ok());
  }
  struct Case {
    const char* sql;
    int64_t bytes;
    int64_t pruned;
  };
  const Case cases[] = {
      // Full scan of v and s: 5000 * 8 + (5001 * 8 + 10000).
      {"SELECT SUM(v), MAX(s) FROM f", 90008, 0},
      // Zone maps keep only the first morsel: 1024 rows of k and v.
      {"SELECT SUM(v) FROM f WHERE k BETWEEN 10 AND 90", 1024 * 8 * 2, 4},
  };
  for (const Case& c : cases) {
    for (int workers : {1, 4}) {
      PlannerOptions options = db.default_options();
      options.parallelism = workers;
      ExecStats stats;
      Result<QueryResult> r = db.Query(c.sql, options, &stats);
      ASSERT_TRUE(r.ok()) << c.sql << "\n" << r.status().ToString();
      EXPECT_EQ(stats.bytes_touched, c.bytes)
          << c.sql << " at parallelism " << workers;
      EXPECT_EQ(stats.morsels_pruned, c.pruned)
          << c.sql << " at parallelism " << workers;
    }
  }
  Result<std::string> explain = db.Explain(cases[1].sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("bytes touched"), std::string::npos) << *explain;
}

// ---- Join-key pushdown gate ---------------------------------------------

TEST(JoinKeyPushdownTest, PushesKeySetsOfAtMostAnEighthOfTheProbeRows) {
  // The fact key ascends over eight morsels. Each dimension holds `keys`
  // consecutive fact keys from 2500 on, so a pushed key set keeps only
  // morsels 2 and 3 (rows 2048-4095) by zone map and rejects their rows
  // outside [2500, 2500 + keys - 1]. The gate pushes a key set into the
  // probe scan only when keys * 8 <= the 8192 fact rows.
  Database db;
  const int64_t rows = 8 * static_cast<int64_t>(kBatchRows);
  ASSERT_TRUE(db.CreateTable("fact", {{"k", ColumnType::kIdentifier}}).ok());
  EngineTable* fact = db.FindTable("fact");
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(fact->AppendRowStrings({std::to_string(i)}).ok());
  }
  ASSERT_TRUE(db.CreateTable("one", {{"g", ColumnType::kInteger}}).ok());
  ASSERT_TRUE(db.FindTable("one")->AppendRowStrings({"0"}).ok());
  const int64_t first_key = 2500;
  for (int64_t keys : {rows / 8 - 1, rows / 8, rows / 8 + 1}) {
    // The hash join's gate counts build rows, one per key here. The star
    // semi-join's counts distinct keys; its dimension holds each key
    // twice, so the hash join above it (2 * keys build rows) never pushes.
    const std::string hash_dim = "h" + std::to_string(keys);
    const std::string semi_dim = "s" + std::to_string(keys);
    ASSERT_TRUE(
        db.CreateTable(hash_dim, {{"k", ColumnType::kIdentifier}}).ok());
    ASSERT_TRUE(db.CreateTable(semi_dim, {{"k", ColumnType::kIdentifier},
                                          {"g", ColumnType::kInteger}})
                    .ok());
    for (int64_t i = 0; i < keys; ++i) {
      std::string k = std::to_string(first_key + i);
      ASSERT_TRUE(db.FindTable(hash_dim)->AppendRowStrings({k}).ok());
      for (int copy = 0; copy < 2; ++copy) {
        ASSERT_TRUE(db.FindTable(semi_dim)->AppendRowStrings({k, "0"}).ok());
      }
    }
    const bool pushed = keys * 8 <= rows;
    const int64_t last_key = first_key + keys - 1;
    const int64_t pruned = pushed ? 6 : 0;
    const int64_t rejects =
        pushed ? (first_key - 2048) + (4095 - last_key) : 0;
    const std::pair<std::string, int64_t> queries[] = {
        {"SELECT COUNT(*) FROM fact JOIN " + hash_dim + " d ON fact.k = d.k",
         keys},
        {"SELECT COUNT(*) FROM fact, " + semi_dim +
             " d, one WHERE fact.k = d.k AND d.g = one.g",
         2 * keys}};
    for (const auto& [sql, count] : queries) {
      for (bool vectorized : {false, true}) {
        for (int workers : {1, 4}) {
          PlannerOptions options = db.default_options();
          options.vectorized_execution = vectorized;
          options.parallelism = workers;
          ExecStats stats;
          Result<QueryResult> r = db.Query(sql, options, &stats);
          ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
          const std::string where = sql + (vectorized ? ", vectorized" : "") +
                                    " at parallelism " +
                                    std::to_string(workers);
          EXPECT_EQ(r->rows[0][0].AsInt(), count) << where;
          if (!vectorized) continue;
          EXPECT_EQ(stats.morsels_pruned, pruned) << where;
          EXPECT_EQ(stats.bloom_rejects, rejects) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tpcds
