// Durability tests: checkpoint round-trip fidelity, WAL framing and torn
// tails, and crash-point recovery for the data-maintenance run — after a
// fault at any WAL or checkpoint site, recovery must rebuild exactly the
// committed prefix, byte-identical (content hash) to the live database.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/audit.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "maintenance/maintenance.h"
#include "schema/schema.h"
#include "temp_path.h"
#include "util/fault.h"
#include "util/flatfile.h"
#include "util/wal.h"

namespace tpcds {
namespace {

namespace fs = std::filesystem;

constexpr double kSf = 0.01;

/// Loads the TPC-DS database once and checkpoints it once; every test
/// recovers from that shared checkpoint instead of re-serializing it.
class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = kSf;
    Status st = db_->LoadTpcdsData(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ckpt_dir_ = ProcessTempPath("recovery_test_ckpt");
    fs::remove_all(ckpt_dir_);
    st = db_->SaveCheckpoint(ckpt_dir_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  static void TearDownTestSuite() {
    fs::remove_all(ckpt_dir_);
    delete db_;
    db_ = nullptr;
  }

  void TearDown() override { FaultInjector::Global().Clear(); }

  /// A per-test scratch path under the test tempdir, removed up front.
  static std::string Scratch(const std::string& leaf) {
    std::string path = ProcessTempPath("recovery_test_" + leaf);
    fs::remove_all(path);
    return path;
  }

  static void FlipByteNearEnd(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(0, std::ios::end);
    std::streamoff size = f.tellg();
    ASSERT_GT(size, 16);
    f.seekp(size - 9);
    char byte = 0;
    f.seekg(size - 9);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size - 9);
    f.write(&byte, 1);
  }

  MaintenanceOptions DmOptions() {
    MaintenanceOptions o;
    o.scale_factor = kSf;
    o.refresh_cycle = 1;
    o.dimension_updates = 20;
    return o;
  }

  static Database* db_;
  static std::string ckpt_dir_;
};

Database* RecoveryTest::db_ = nullptr;
std::string RecoveryTest::ckpt_dir_;

TEST_F(RecoveryTest, CheckpointRoundTripIsByteIdentical) {
  Database restored;
  Status st = restored.LoadCheckpoint(ckpt_dir_);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(restored.TableNames().size(), db_->TableNames().size());
  for (const std::string& name : db_->TableNames()) {
    const EngineTable* got = restored.FindTable(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(HashTableContent(*got), HashTableContent(*db_->FindTable(name)))
        << name;
  }
  EXPECT_EQ(HashDatabaseContent(restored), HashDatabaseContent(*db_));
}

TEST_F(RecoveryTest, CheckpointTableCorruptionIsDataLoss) {
  std::string dir = Scratch("corrupt_table");
  fs::copy(ckpt_dir_, dir, fs::copy_options::recursive);
  FlipByteNearEnd(dir + "/item.col");
  Database restored;
  Status st = restored.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, CheckpointManifestCorruptionIsDataLoss) {
  std::string dir = Scratch("corrupt_manifest");
  fs::copy(ckpt_dir_, dir, fs::copy_options::recursive);
  FlipByteNearEnd(dir + "/MANIFEST");
  Database restored;
  Status st = restored.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, MissingManifestIsNotFound) {
  std::string dir = Scratch("no_manifest");
  fs::create_directories(dir);
  Database restored;
  Status st = restored.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, CheckpointWriteFaultsLeaveNoManifest) {
  for (const char* spec : {"ckpt-write=nth:3", "ckpt-manifest=nth:1"}) {
    std::string dir = Scratch("ckpt_fault");
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    Status st = db_->SaveCheckpoint(dir);
    FaultInjector::Global().Clear();
    EXPECT_FALSE(st.ok()) << spec;
    // The manifest is written last: a crashed save must never leave a
    // directory that looks loadable.
    EXPECT_FALSE(fs::exists(dir + "/MANIFEST")) << spec;
    fs::remove_all(dir);
  }
}

TEST(WalTest, RoundTripPreservesRecordsAndLsns) {
  std::string path = ProcessTempPath("wal_roundtrip.wal");
  std::remove(path.c_str());
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kOpBegin, "op").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdateCell, "payload-1").ok());
    ASSERT_TRUE(wal.AppendCommit("op-commit").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  Result<WalReadResult> read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].type, WalRecordType::kOpBegin);
  EXPECT_EQ(read->records[1].payload, "payload-1");
  EXPECT_EQ(read->records[2].type, WalRecordType::kOpCommit);
  EXPECT_EQ(read->records[0].lsn, 1u);
  EXPECT_EQ(read->records[2].lsn, 3u);
  EXPECT_EQ(read->torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  std::string path = ProcessTempPath("wal_torn.wal");
  std::remove(path.c_str());
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path).ok());
    wal.set_torn_writes(true);
    ASSERT_TRUE(wal.Append(WalRecordType::kOpBegin, "op").ok());
    ASSERT_TRUE(FaultInjector::Global().Configure("wal-append=nth:1").ok());
    EXPECT_FALSE(wal.Append(WalRecordType::kUpdateCell, "payload").ok());
    FaultInjector::Global().Clear();
    (void)wal.Close();
  }
  Result<WalReadResult> read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 1u);  // the half-written record is gone
  EXPECT_EQ(read->records[0].type, WalRecordType::kOpBegin);
  EXPECT_TRUE(read->truncated_tail);
  EXPECT_GT(read->torn_bytes, 0u);
  std::remove(path.c_str());
}

TEST(WalTest, MidFileCorruptionIsDataLoss) {
  std::string path = ProcessTempPath("wal_corrupt.wal");
  std::remove(path.c_str());
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kOpBegin, "payload-one").ok());
    ASSERT_TRUE(wal.AppendCommit("payload-two").ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Corrupt the FIRST record: damage before the physical tail is committed
  // history gone bad, not a torn write, and must refuse to recover.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(12 + 9);  // header, then past the first record's framing
  f.write("X", 1);
  f.close();
  Result<WalReadResult> read = ReadWal(path);
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
      << read.status().ToString();
  std::remove(path.c_str());
}

// The core durability property: inject a fault at every WAL-involved
// crash point, then prove recovery rebuilds exactly the committed prefix.
//
//   live      = checkpointed state + DM run that crashed mid-way
//   recovered = Recover(checkpoint, WAL)
//   expected  = checkpointed state + re-run of only the committed ops
//
// All three must be byte-identical (content hash), and the recovered
// database must still satisfy the schema's PK/FK constraints and the SCD
// single-open-revision invariant.
TEST_F(RecoveryTest, CrashSweepRecoversExactlyTheCommittedPrefix) {
  struct Trial {
    const char* spec;
    bool torn;
  };
  const Trial trials[] = {
      {"wal-append=nth:1", false},  {"wal-append=nth:5", false},
      {"wal-append=nth:20", true},  {"wal-commit=nth:1", false},
      {"wal-commit=nth:2", false},  {"maintenance=nth:2", false},
  };
  for (const Trial& trial : trials) {
    SCOPED_TRACE(trial.spec);
    std::string wal_path = Scratch("sweep.wal");

    Database live;
    ASSERT_TRUE(live.LoadCheckpoint(ckpt_dir_).ok());
    WalWriter wal;
    ASSERT_TRUE(wal.Open(wal_path).ok());
    wal.set_torn_writes(trial.torn);
    ASSERT_TRUE(FaultInjector::Global().Configure(trial.spec).ok());
    MaintenanceReport report;
    Status dm = RunDataMaintenance(&live, DmOptions(), &report, &wal);
    FaultInjector::Global().Clear();
    (void)wal.Close();
    EXPECT_FALSE(dm.ok());  // every trial crashes mid-run

    Database recovered;
    Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal_path);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->ops_replayed,
              static_cast<int64_t>(report.operations.size()));
    EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(live));

    // Independent replay: the committed prefix alone, no WAL involved.
    Database expected;
    ASSERT_TRUE(expected.LoadCheckpoint(ckpt_dir_).ok());
    if (!rec->replayed_ops.empty()) {
      MaintenanceOptions prefix = DmOptions();
      prefix.operations = rec->replayed_ops;
      MaintenanceReport prefix_report;
      Status st = RunDataMaintenance(&expected, prefix, &prefix_report);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(expected));

    Result<AuditReport> audit =
        ValidateConstraints(&recovered, TpcdsSchema());
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();
    EXPECT_EQ(audit->TotalViolations(), 0) << audit->ToString();

    // SCD invariant (Fig. 9): at most one open revision per business key,
    // whether or not the crashed run got to the item update.
    const EngineTable* item = recovered.FindTable("item");
    int end_col = item->ColumnIndex("i_rec_end_date");
    int bk_col = item->ColumnIndex("i_item_id");
    const EngineTable::StringIndex& index =
        const_cast<EngineTable*>(item)->GetOrBuildStringIndex(bk_col);
    for (const auto& [key, rows] : index) {
      int open = 0;
      for (int64_t row : rows) {
        if (item->GetValue(row, end_col).is_null()) ++open;
      }
      EXPECT_EQ(open, 1) << "business key " << key;
    }
    std::remove(wal_path.c_str());
  }
}

TEST_F(RecoveryTest, UncommittedTailIsDiscarded) {
  std::string wal_path = Scratch("uncommitted.wal");
  Database live;
  ASSERT_TRUE(live.LoadCheckpoint(ckpt_dir_).ok());
  // Crash right before the first commit marker: the op's mutations are in
  // the log but never committed, so recovery must ignore all of them.
  WalWriter wal;
  ASSERT_TRUE(wal.Open(wal_path).ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("wal-commit=nth:1").ok());
  MaintenanceReport report;
  Status dm = RunDataMaintenance(&live, DmOptions(), &report, &wal);
  FaultInjector::Global().Clear();
  (void)wal.Close();
  EXPECT_FALSE(dm.ok());
  EXPECT_TRUE(report.operations.empty());

  Database recovered;
  Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal_path);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->ops_replayed, 0);
  EXPECT_EQ(rec->ops_discarded, 1);
  EXPECT_GT(rec->records_scanned, 0);
  EXPECT_EQ(rec->records_replayed, 0);
  EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(*db_));
  std::remove(wal_path.c_str());
}

TEST_F(RecoveryTest, WalOnAndOffConvergeToTheSameState) {
  Database with_wal;
  ASSERT_TRUE(with_wal.LoadCheckpoint(ckpt_dir_).ok());
  std::string wal_path = Scratch("converge.wal");
  WalWriter wal;
  ASSERT_TRUE(wal.Open(wal_path).ok());
  MaintenanceReport report_on;
  Status st = RunDataMaintenance(&with_wal, DmOptions(), &report_on, &wal);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(wal.Close().ok());

  Database without_wal;
  ASSERT_TRUE(without_wal.LoadCheckpoint(ckpt_dir_).ok());
  MaintenanceReport report_off;
  st = RunDataMaintenance(&without_wal, DmOptions(), &report_off);
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(report_on.operations.size(), report_off.operations.size());
  EXPECT_EQ(HashDatabaseContent(with_wal),
            HashDatabaseContent(without_wal));

  // And a full replay of that WAL lands on the same state again.
  Database recovered;
  Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal_path);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->ops_replayed, 12);
  EXPECT_EQ(HashDatabaseContent(recovered), HashDatabaseContent(with_wal));
  std::remove(wal_path.c_str());
}

TEST_F(RecoveryTest, OperationsFilterRunsOnlyNamedOps) {
  Database db;
  ASSERT_TRUE(db.LoadCheckpoint(ckpt_dir_).ok());
  MaintenanceOptions options = DmOptions();
  options.operations = {"scd_update:item", "inplace_update:customer"};
  MaintenanceReport report;
  Status st = RunDataMaintenance(&db, options, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(report.operations.size(), 2u);
  EXPECT_EQ(report.operations[0].operation, "scd_update:item");
  EXPECT_EQ(report.operations[1].operation, "inplace_update:customer");
}

TEST(FlatFileFaultTest, WriteFaultSurfacesAndLatches) {
  std::string path = ProcessTempPath("flatfile_fault.dat");
  std::remove(path.c_str());
  FlatFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append({"1", "a"}).ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("io-write=nth:1").ok());
  Status st = writer.Append({"2", "b"});
  FaultInjector::Global().Clear();
  EXPECT_FALSE(st.ok());
  // The failure latches: an ENOSPC-style mid-table error must not be
  // masked by later writes or a clean-looking close.
  EXPECT_FALSE(writer.Append({"3", "c"}).ok());
  EXPECT_FALSE(writer.Close().ok());
  std::remove(path.c_str());
}

TEST(FlatFileFaultTest, CloseFaultSurfaces) {
  std::string path = ProcessTempPath("flatfile_close_fault.dat");
  std::remove(path.c_str());
  FlatFileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append({"1", "a"}).ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("io-close=nth:1").ok());
  EXPECT_FALSE(writer.Close().ok());
  FaultInjector::Global().Clear();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpcds
