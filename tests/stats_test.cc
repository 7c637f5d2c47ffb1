// Statistics subsystem tests (engine/stats.h): HyperLogLog NDV error
// bounds, equi-depth histogram selectivity against exact counts, the
// checkpoint STATS sidecar round-trip (deep load and mmap attach) and its
// rejection of corrupt counts, and statistics carried across maintenance
// generations under the one-tenth re-analysis rule.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/stats.h"
#include "engine/table.h"
#include "maintenance/maintenance.h"
#include "temp_path.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/wal.h"

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

/// A TPC-DS database at SF 0.001 with every table analysed.
void LoadAnalyzedTpcds(Database* db) {
  ASSERT_TRUE(db->CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = 0.001;
  ASSERT_TRUE(db->LoadTpcdsData(gen).ok());
  EXPECT_GT(db->AnalyzeStorage(), 0u);
}

/// One maintenance generation at SF 0.001 for `cycle`.
void RunGeneration(Database* db, int cycle) {
  MaintenanceOptions dm;
  dm.scale_factor = 0.001;
  dm.refresh_cycle = cycle;
  MaintenanceReport report;
  Status st = RunMaintenanceGeneration(db, dm, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
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
  LoadAnalyzedTpcds(&db);
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

TEST(StatsTest, SidecarLeavesOutStatsWithRowsChanged) {
  // The sidecar has no field for a changed-row count, so statistics with
  // rows changed since their analysis are not saved: a reload would take
  // them as fresh. An updated cell keeps the row count, which the reader
  // checks, so only the writer can leave them out.
  Database db;
  for (const char* name : {"kept", "changed"}) {
    ASSERT_TRUE(db.CreateTable(name, {{"n", ColumnType::kInteger}}).ok());
    EngineTable* t = db.FindTable(name);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(t->AppendRowStrings({std::to_string(i)}).ok());
    }
  }
  EXPECT_EQ(db.AnalyzeStorage(), 2u);
  db.FindTable("changed")->SetValue(0, 0, Value::Int(-1));
  ASSERT_NE(db.FindTable("changed")->ComputedStats(), nullptr);

  const std::string dir = ProcessTempPath("changed_stats_ckpt");
  std::filesystem::remove_all(dir);
  Status saved = db.SaveCheckpoint(dir);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  for (bool attach : {false, true}) {
    Database restored;
    Status st = attach ? restored.AttachCheckpoint(dir)
                       : restored.LoadCheckpoint(dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_NE(restored.FindTable("kept")->ComputedStats(), nullptr);
    EngineTable* changed = restored.FindTable("changed");
    EXPECT_EQ(changed->ComputedStats(), nullptr);
    // Analysed lazily from the saved rows, which hold the update.
    EXPECT_EQ(changed->GetOrComputeStats()->columns[0].min, -1);
  }
  std::filesystem::remove_all(dir);
}

TEST(StatsTest, MaintenanceGenerationCarriesFactTableStats) {
  Database db;
  LoadAnalyzedTpcds(&db);
  const std::vector<std::string> facts = {
      "store_sales", "store_returns", "catalog_sales",
      "catalog_returns", "web_sales", "web_returns"};

  // What one cycle appends and deletes per fact table, measured on a
  // throwaway fork: the first nine operations end with the deletes, the
  // last three are the inserts.
  std::map<std::string, int64_t> rows_before, appended_plus_deleted;
  {
    Result<std::unique_ptr<Database>> probe =
        db.ForkForMaintenance(MaintainedTables());
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    Database* p = probe->get();
    for (const std::string& name : facts) {
      rows_before[name] = p->FindTable(name)->num_rows();
    }
    MaintenanceOptions dm;
    dm.scale_factor = 0.001;
    dm.operations = {"scd_update:item", "scd_update:store",
                     "scd_update:web_site", "inplace_update:customer",
                     "inplace_update:customer_address",
                     "inplace_update:promotion", "fact_delete:store",
                     "fact_delete:catalog", "fact_delete:web"};
    MaintenanceReport report;
    ASSERT_TRUE(RunDataMaintenance(p, dm, &report).ok());
    std::map<std::string, int64_t> rows_mid;
    for (const std::string& name : facts) {
      rows_mid[name] = p->FindTable(name)->num_rows();
    }
    dm.operations = {"fact_insert:store", "fact_insert:catalog",
                     "fact_insert:web"};
    ASSERT_TRUE(RunDataMaintenance(p, dm, &report).ok());
    for (const std::string& name : facts) {
      const int64_t deleted = rows_before[name] - rows_mid[name];
      const int64_t appended = p->FindTable(name)->num_rows() - rows_mid[name];
      EXPECT_GE(deleted, 0) << name;
      EXPECT_GT(appended, 0) << name;
      appended_plus_deleted[name] = appended + deleted;
    }
  }

  std::map<std::string, std::shared_ptr<const TableStats>> before;
  for (const std::string& name : facts) {
    before[name] = db.FindTable(name)->ComputedStats();
    ASSERT_NE(before[name], nullptr) << name;
  }
  RunGeneration(&db, 1);
  for (const std::string& name : facts) {
    const EngineTable* table = db.FindTable(name);
    int64_t rows_changed = -1;
    std::shared_ptr<const TableStats> stats = table->ComputedStats(&rows_changed);
    // The very object analysed before the cycle, not a recollection.
    EXPECT_EQ(stats, before[name]) << name;
    EXPECT_EQ(rows_changed, appended_plus_deleted[name]) << name;
    EXPECT_NE(table->num_rows(), rows_before[name]) << name;
  }
}

TEST(StatsTest, ReanalyzesOnlyPastOneTenthOfRowsChanged) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"n", ColumnType::kInteger}}).ok());
  EngineTable* t = db.FindTable("t");
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i)}).ok());
  }
  std::shared_ptr<const TableStats> analysed = t->GetOrComputeStats();
  int64_t rows_changed = -1;
  ASSERT_EQ(t->ComputedStats(&rows_changed), analysed);
  EXPECT_EQ(rows_changed, 0);

  // Every mutator counts its rows: 40 appends, 20 deletes, 5 truncated,
  // 3 reinserted (1038 rows left), then updated cells.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(t->AppendRowValues({Value::Int(5000 + i)}).ok());
  }
  std::vector<int64_t> doomed;
  for (int64_t r = 0; r < 20; ++r) doomed.push_back(r * 7);
  ASSERT_EQ(t->DeleteRows(doomed), 20);
  ASSERT_TRUE(t->TruncateRows(t->num_rows() - 5).ok());
  ASSERT_TRUE(t->ReinsertRows({0, 1, 2}, {{Value::Int(-1)},
                                          {Value::Int(-2)},
                                          {Value::Int(-3)}})
                  .ok());
  ASSERT_EQ(t->num_rows(), 1018);
  t->ComputedStats(&rows_changed);
  EXPECT_EQ(rows_changed, 40 + 20 + 5 + 3);

  // 101 of 1018 rows changed: one short of the threshold (101.8).
  for (int64_t r = 0; r < 33; ++r) t->SetValue(r, 0, Value::Int(r));
  t->ComputedStats(&rows_changed);
  ASSERT_EQ(rows_changed, 101);
  EXPECT_EQ(t->GetOrComputeStats(), analysed);
  EXPECT_EQ(t->GetOrComputeStats()->row_count, 1000);

  // 102 is above a tenth of 1018: the next call recollects.
  t->SetValue(0, 0, Value::Null());
  std::shared_ptr<const TableStats> fresh = t->GetOrComputeStats();
  EXPECT_NE(fresh, analysed);
  EXPECT_EQ(fresh->row_count, 1018);
  EXPECT_EQ(fresh->columns[0].null_count, 1);
  t->ComputedStats(&rows_changed);
  EXPECT_EQ(rows_changed, 0);
  // The replaced statistics still describe the rows they came from.
  EXPECT_EQ(analysed->row_count, 1000);
}

TEST(StatsTest, PinnedFacadeKeepsItsStatistics) {
  Database db;
  LoadAnalyzedTpcds(&db);
  std::shared_ptr<const DataFacade> pinned = db.Snapshot();
  std::map<std::string, std::shared_ptr<const TableStats>> before;
  for (const std::string& name : MaintainedTables()) {
    before[name] = pinned->FindTable(name)->ComputedStats();
    ASSERT_NE(before[name], nullptr) << name;
  }
  // Three cycles change some dimension past the one-tenth threshold.
  for (int cycle = 1; cycle <= 3; ++cycle) RunGeneration(&db, cycle);

  int recollected = 0;
  for (const std::string& name : MaintainedTables()) {
    EngineTable* old_table = pinned->FindTable(name);
    int64_t rows_changed = -1;
    EXPECT_EQ(old_table->ComputedStats(&rows_changed), before[name]) << name;
    EXPECT_EQ(rows_changed, 0) << name;
    EXPECT_EQ(old_table->GetOrComputeStats(), before[name]) << name;
    if (db.FindTable(name)->ComputedStats() != before[name]) ++recollected;
  }
  EXPECT_GT(recollected, 0);
}

// ---- STATS sidecar rejection -------------------------------------------
//
// Each case edits the saved STATS file of a one-table checkpoint and
// recomputes its body CRC, so the load reaches the check it targets.

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Sidecar layout (engine/checkpoint.cc): "TPCDSST1" | u32 tables, then
/// per table name (u32 length + bytes) | TableStats (i64 rows | u32
/// columns | per column i64 rows, nulls, ndv | u8 flags | i64 min, max |
/// u32 bounds | ...), then u32 body CRC. With the one table named "t",
/// these are the two counts' offsets.
constexpr size_t kColumnCountAt = 8 + 4 + 4 + 1 + 8;
constexpr size_t kFirstBoundCountAt = kColumnCountAt + 4 + 8 * 3 + 1 + 8 * 2;

void SetU32At(std::string* bytes, size_t pos, uint32_t v) {
  std::memcpy(bytes->data() + pos, &v, sizeof(v));
}

struct SidecarRejection {
  const char* name;
  void (*edit)(std::string*);
  const char* message;
};

const SidecarRejection kSidecarRejections[] = {
    {"ColumnCount",
     [](std::string* b) { SetU32At(b, kColumnCountAt, 0xFFFFFFFFu); },
     "checkpoint stats: 4294967295 columns exceed the"},
    {"HistogramBoundCount",
     [](std::string* b) { SetU32At(b, kFirstBoundCountAt, 0xFFFFFFFFu); },
     "checkpoint stats: 4294967295 histogram bounds exceed the"},
};

struct SidecarRejectionParam {
  const SidecarRejection* rejection;
  bool attach;
};

// Names each ctest case after its rejection and read path.
void PrintTo(const SidecarRejectionParam& p, std::ostream* os) {
  *os << p.rejection->name << (p.attach ? "OnAttach" : "OnLoad");
}

std::vector<SidecarRejectionParam> SidecarRejectionParams() {
  std::vector<SidecarRejectionParam> params;
  for (const SidecarRejection& r : kSidecarRejections) {
    params.push_back({&r, true});
    params.push_back({&r, false});
  }
  return params;
}

class StatsSidecarRejectionTest
    : public ::testing::TestWithParam<SidecarRejectionParam> {};

TEST_P(StatsSidecarRejectionTest, RejectsAsDataLoss) {
  const SidecarRejection& r = *GetParam().rejection;
  const std::string dir = ProcessTempPath("stats_rejection_ckpt");
  std::filesystem::remove_all(dir);
  {
    Database db;
    ASSERT_TRUE(db.CreateTable("t", {{"n", ColumnType::kInteger},
                                     {"s", ColumnType::kVarchar}})
                    .ok());
    EngineTable* t = db.FindTable("t");
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(t->AppendRowStrings({std::to_string(i % 37),
                                       "s" + std::to_string(i % 5)})
                      .ok());
    }
    EXPECT_EQ(db.AnalyzeStorage(), 1u);
    ASSERT_FALSE(t->ComputedStats()->columns[0].histogram.empty());
    ASSERT_TRUE(db.SaveCheckpoint(dir).ok());
  }
  std::string bytes = ReadFileBytes(dir + "/STATS");
  ASSERT_GT(bytes.size(), kFirstBoundCountAt + 4);
  r.edit(&bytes);
  const uint32_t crc = Crc32(bytes.data() + 8, bytes.size() - 12);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  WriteFileBytes(dir + "/STATS", bytes);

  Database db;
  Status st = GetParam().attach ? db.AttachCheckpoint(dir)
                                : db.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find(r.message), std::string::npos)
      << st.ToString();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Corruptions, StatsSidecarRejectionTest,
                         ::testing::ValuesIn(SidecarRejectionParams()));

}  // namespace
}  // namespace tpcds
