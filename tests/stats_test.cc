// Statistics subsystem tests (engine/stats.h): HyperLogLog NDV error
// bounds, equi-depth histogram selectivity against exact counts, the
// checkpoint STATS sidecar round-trip (deep load and mmap attach), and
// invalidation + refresh through data maintenance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/stats.h"
#include "engine/table.h"
#include "maintenance/maintenance.h"
#include "temp_path.h"
#include "util/bytes.h"
#include "util/random.h"

namespace tpcds {
namespace {

TEST(HyperLogLogTest, EstimateWithinErrorBoundsAtKnownNdvs) {
  // p = 12 gives sigma ~ 1.04/sqrt(4096) ~ 1.6%; 5% is > 3 sigma, and the
  // inputs are fixed, so this never flakes.
  for (int64_t ndv : {100, 1000, 10000, 100000, 1000000}) {
    HyperLogLog hll;
    for (int64_t v = 0; v < ndv; ++v) {
      hll.AddHash(HashStatsInt(v));
      // Duplicates must not move the estimate.
      if (v % 3 == 0) hll.AddHash(HashStatsInt(v));
    }
    const double est = static_cast<double>(hll.Estimate());
    EXPECT_NEAR(est, static_cast<double>(ndv), 0.05 * static_cast<double>(ndv))
        << "ndv " << ndv;
  }
}

TEST(HyperLogLogTest, SmallRangeIsNearExactViaLinearCounting) {
  for (int64_t ndv : {0, 1, 5, 50, 500}) {
    HyperLogLog hll;
    for (int64_t v = 0; v < ndv; ++v) hll.AddHash(HashStatsInt(v * 7919));
    EXPECT_NEAR(static_cast<double>(hll.Estimate()),
                static_cast<double>(ndv),
                std::max(1.0, 0.02 * static_cast<double>(ndv)))
        << "ndv " << ndv;
  }
}

TEST(HistogramTest, SelectivityTracksExactCountsOnSkewedData) {
  // Zipf-ish skew: value v appears with frequency decaying in v, so
  // equal-width buckets would be badly off while equi-depth stays close.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"v", ColumnType::kInteger}}).ok());
  EngineTable* table = db.FindTable("t");
  RngStream rng(4242);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = static_cast<int64_t>(
        1000.0 * std::pow(rng.NextDouble(), 3.0));  // dense near 0
    values.push_back(v);
    ASSERT_TRUE(table->AppendRowStrings({std::to_string(v)}).ok());
  }
  TableStats stats = AnalyzeTable(*table);
  ASSERT_EQ(stats.columns.size(), 1u);
  const Histogram& h = stats.columns[0].histogram;
  ASSERT_FALSE(h.empty());

  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 10}, {0, 50}, {25, 100}, {100, 500}, {500, 1000},
           {0, 1000}, {900, 2000}}) {
    int64_t exact = 0;
    for (int64_t v : values) exact += (v >= lo && v <= hi) ? 1 : 0;
    double exact_frac =
        static_cast<double>(exact) / static_cast<double>(values.size());
    double est = h.SelectivityRange(lo, hi);
    // Equi-depth with 64 buckets: each partially covered bucket can be
    // off by at most its depth (~1/64); two boundary buckets + slack.
    EXPECT_NEAR(est, exact_frac, 0.05) << "range [" << lo << ", " << hi
                                       << "]";
  }
  EXPECT_EQ(h.SelectivityRange(5000, 6000), 0.0);
  EXPECT_EQ(h.SelectivityRange(10, 5), 0.0);
}

TEST(HistogramTest, SingleDistinctValueDegeneratesCleanly) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"v", ColumnType::kInteger}}).ok());
  EngineTable* table = db.FindTable("t");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table->AppendRowStrings({"7"}).ok());
  }
  TableStats stats = AnalyzeTable(*table);
  const ColumnStats& cs = stats.columns[0];
  EXPECT_EQ(cs.min, 7);
  EXPECT_EQ(cs.max, 7);
  EXPECT_EQ(cs.ndv, 1);
  EXPECT_EQ(cs.histogram.SelectivityRange(7, 7), 1.0);
  EXPECT_EQ(cs.histogram.SelectivityRange(8, 9), 0.0);
}

TEST(StatsTest, AnalyzeCountsNullsMinMaxAndNdv) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"n", ColumnType::kInteger},
                                   {"s", ColumnType::kVarchar}})
                  .ok());
  EngineTable* table = db.FindTable("t");
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::string> fields(2);
    if (i % 10 != 0) fields[0] = std::to_string(i % 250 - 25);
    fields[1] = "cat" + std::to_string(i % 16);
    ASSERT_TRUE(table->AppendRowStrings(fields).ok());
  }
  TableStats stats = AnalyzeTable(*table);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_EQ(stats.row_count, 1000);
  EXPECT_EQ(stats.columns[0].null_count, 100);
  // Residues divisible by 10 only occur at i % 10 == 0 rows, which are all
  // NULL: the observed domain is the other 225 residues, starting at -24.
  EXPECT_EQ(stats.columns[0].min, -24);
  EXPECT_EQ(stats.columns[0].max, 224);
  EXPECT_NEAR(static_cast<double>(stats.columns[0].ndv), 225.0, 12.0);
  // Small string domains sit in the sketch's linear-counting range.
  EXPECT_EQ(stats.columns[1].null_count, 0);
  EXPECT_FALSE(stats.columns[1].has_minmax);
  EXPECT_NEAR(static_cast<double>(stats.columns[1].ndv), 16.0, 1.0);
}

TEST(StatsTest, SerializationRoundTripsExactly) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"n", ColumnType::kInteger},
                                   {"s", ColumnType::kVarchar}})
                  .ok());
  EngineTable* table = db.FindTable("t");
  RngStream rng(99);
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::string> fields(2);
    if (rng.NextDouble() > 0.05) {
      fields[0] = std::to_string(rng.UniformInt(-1000, 1000));
    }
    fields[1] = "v" + std::to_string(rng.UniformInt(0, 400));
    ASSERT_TRUE(table->AppendRowStrings(fields).ok());
  }
  TableStats stats = AnalyzeTable(*table);
  std::string body;
  SerializeTableStats(stats, &body);
  ByteReader reader(body, "test");
  Result<TableStats> round = DeserializeTableStats(&reader);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(round->row_count, stats.row_count);
  ASSERT_EQ(round->columns.size(), stats.columns.size());
  for (size_t c = 0; c < stats.columns.size(); ++c) {
    const ColumnStats& a = stats.columns[c];
    const ColumnStats& b = round->columns[c];
    EXPECT_EQ(b.row_count, a.row_count);
    EXPECT_EQ(b.null_count, a.null_count);
    EXPECT_EQ(b.ndv, a.ndv);
    EXPECT_EQ(b.has_minmax, a.has_minmax);
    EXPECT_EQ(b.min, a.min);
    EXPECT_EQ(b.max, a.max);
    EXPECT_EQ(b.histogram.bounds, a.histogram.bounds);
    EXPECT_EQ(b.histogram.counts, a.histogram.counts);
    EXPECT_EQ(b.histogram.sample_rows, a.histogram.sample_rows);
  }
}

TEST(StatsTest, CheckpointRoundTripWarmsLoadAndAttach) {
  Database db;
  ASSERT_TRUE(db.CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = 0.001;
  ASSERT_TRUE(db.LoadTpcdsData(gen).ok());
  EXPECT_GT(db.AnalyzeStorage(), 0u);
  std::shared_ptr<const TableStats> item_stats =
      db.FindTable("item")->ComputedStats();
  ASSERT_NE(item_stats, nullptr);

  const std::string dir = ProcessTempPath("stats_ckpt");
  std::filesystem::remove_all(dir);
  Status saved = db.SaveCheckpoint(dir);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  ASSERT_TRUE(std::filesystem::exists(dir + "/STATS"));

  for (bool attach : {false, true}) {
    Database restored;
    Status st = attach ? restored.AttachCheckpoint(dir)
                       : restored.LoadCheckpoint(dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (const std::string& name : restored.TableNames()) {
      const EngineTable* orig = db.FindTable(name);
      std::shared_ptr<const TableStats> got =
          restored.FindTable(name)->ComputedStats();
      // Restored stats arrive warm (no analyze pass) and match the
      // originals exactly.
      ASSERT_NE(got, nullptr) << name;
      std::shared_ptr<const TableStats> want = orig->ComputedStats();
      ASSERT_NE(want, nullptr) << name;
      EXPECT_EQ(got->row_count, want->row_count) << name;
      ASSERT_EQ(got->columns.size(), want->columns.size()) << name;
      for (size_t c = 0; c < want->columns.size(); ++c) {
        EXPECT_EQ(got->columns[c].ndv, want->columns[c].ndv)
            << name << " col " << c;
        EXPECT_EQ(got->columns[c].null_count, want->columns[c].null_count)
            << name << " col " << c;
      }
    }
  }

  // A missing sidecar is not an error: stats simply recompute lazily.
  std::filesystem::remove(dir + "/STATS");
  Database cold;
  Status st = cold.LoadCheckpoint(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(cold.FindTable("item")->ComputedStats(), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(StatsTest, MutationInvalidatesAndMaintenanceRefreshes) {
  Database db;
  ASSERT_TRUE(db.CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = 0.001;
  ASSERT_TRUE(db.LoadTpcdsData(gen).ok());
  EXPECT_GT(db.AnalyzeStorage(), 0u);

  // Direct mutation retires the stats with the rest of the derived state.
  EngineTable* item = db.FindTable("item");
  std::shared_ptr<const TableStats> before = item->ComputedStats();
  ASSERT_NE(before, nullptr);
  const int64_t rows_before = item->num_rows();
  ASSERT_EQ(item->DeleteRows({0}), 1);
  EXPECT_EQ(item->ComputedStats(), nullptr);
  std::shared_ptr<const TableStats> after = item->GetOrComputeStats();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->row_count, rows_before - 1);
  // The retired generation's snapshot is untouched (readers may hold it).
  EXPECT_EQ(before->row_count, rows_before);

  // A maintenance generation swap leaves every maintained table with
  // freshly collected stats for the new generation.
  MaintenanceOptions dm;
  dm.scale_factor = 0.001;
  MaintenanceReport report;
  Status st = RunMaintenanceGeneration(&db, dm, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (const std::string& name : MaintainedTables()) {
    const EngineTable* table = db.FindTable(name);
    std::shared_ptr<const TableStats> stats = table->ComputedStats();
    ASSERT_NE(stats, nullptr) << name;
    EXPECT_EQ(stats->row_count, table->num_rows()) << name;
  }
}

}  // namespace
}  // namespace tpcds
