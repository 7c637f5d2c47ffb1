// Durability tests: checkpoint round-trip fidelity, rejection of every
// malformed table file on both read paths, copy-on-write of mapped
// columns, WAL framing and torn tails, and crash-point recovery for the
// data-maintenance run — after a fault at any WAL or checkpoint site,
// recovery must rebuild exactly the committed prefix, byte-identical
// (content hash) to the live database.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <regex>
#include <string>
#include <vector>

#include "engine/audit.h"
#include "engine/database.h"
#include "engine/recovery.h"
#include "maintenance/maintenance.h"
#include "schema/schema.h"
#include "temp_path.h"
#include "util/bytes.h"
#include "util/fault.h"
#include "util/flatfile.h"
#include "util/string_util.h"
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

TEST_F(RecoveryTest, RestoredTablesKeepTheirClass) {
  // Named after a dimension in FROM, store_sales is still the star's fact
  // on a restored database: its semi-joins reduce the fact table.
  const std::string star =
      "SELECT dt.d_year, i.i_brand_id, SUM(ss_ext_sales_price) "
      "FROM date_dim dt, store_sales, item i "
      "WHERE dt.d_date_sk = ss_sold_date_sk AND ss_item_sk = i.i_item_sk "
      "AND i.i_manufact_id = 128 AND dt.d_moy = 11 "
      "GROUP BY dt.d_year, i.i_brand_id";
  auto plan_of = [&](Database* db) {
    Result<std::string> plan = db->Explain(star);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    // Self times differ from run to run.
    return std::regex_replace(plan.ok() ? *plan : "",
                              std::regex(", [0-9.]+ ms"), "");
  };
  const std::string live = plan_of(db_);
  EXPECT_NE(live.find("star semi-join on ss_"), std::string::npos) << live;
  auto expect_classes = [&](Database* db, const std::string& how) {
    int facts = 0;
    for (const TableDef& def : TpcdsSchema().tables()) {
      const EngineTable* table = db->FindTable(def.name);
      ASSERT_NE(table, nullptr) << how << ": " << def.name;
      EXPECT_EQ(table->table_class(), def.table_class)
          << how << ": " << def.name;
      facts += table->is_fact() ? 1 : 0;
    }
    EXPECT_EQ(facts, 7) << how;
    EXPECT_EQ(plan_of(db), live) << how;
  };

  const std::string wal = Scratch("class.wal");  // none: the checkpoint
  Database recovered;
  Result<RecoveryReport> rec = Recover(&recovered, ckpt_dir_, wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  expect_classes(&recovered, "recovered");

  // A table created without a class is checkpointed without one.
  ASSERT_TRUE(
      recovered.CreateTable("mini", {{"k", ColumnType::kInteger}}).ok());
  const std::string dir = Scratch("class_ckpt");
  Status st = recovered.SaveCheckpoint(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (const std::string how : {"loaded", "attached", "recovered again"}) {
    Database db;
    st = how == "loaded"     ? db.LoadCheckpoint(dir)
         : how == "attached" ? db.AttachCheckpoint(dir)
                             : Recover(&db, dir, wal).status();
    ASSERT_TRUE(st.ok()) << how << ": " << st.ToString();
    expect_classes(&db, how);
    ASSERT_NE(db.FindTable("mini"), nullptr) << how;
    EXPECT_FALSE(db.FindTable("mini")->table_class().has_value()) << how;
  }
  fs::remove_all(dir);
}

TEST_F(RecoveryTest, LeftoverStatsFileIsNotRead) {
  // Older builds saved optimizer statistics beside the tables as STATS.
  // A checkpoint has no such file now, and one left in the directory is
  // not read, even when it is corrupt, on either read path.
  EXPECT_FALSE(fs::exists(ckpt_dir_ + "/STATS"));
  std::string dir = Scratch("leftover_stats");
  fs::copy(ckpt_dir_, dir, fs::copy_options::recursive);
  std::ofstream(dir + "/STATS", std::ios::binary) << "TPCDSST1 corrupt";
  {
    Database loaded;
    Status st = loaded.LoadCheckpoint(dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(HashDatabaseContent(loaded), HashDatabaseContent(*db_));
    Database attached;
    st = attached.AttachCheckpoint(dir);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(HashDatabaseContent(attached), HashDatabaseContent(*db_));
  }
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

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

constexpr size_t kRows = 200;

/// Saves a kRows-row table `t` (identifier `k`, varchar `s`, date `d`,
/// each with NULLs) as the only table of a checkpoint in `dir`.
void SaveSmallCheckpoint(const std::string& dir) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"k", ColumnType::kIdentifier},
                                   {"s", ColumnType::kVarchar},
                                   {"d", ColumnType::kDate}})
                  .ok());
  EngineTable* t = db.FindTable("t");
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->AppendRowStrings(
                     {i % 17 == 0 ? "" : std::to_string(1000 + i),
                      i % 13 == 0 ? "" : "s" + std::to_string(i % 9),
                      i % 11 == 0 ? "" : StringPrintf("1998-02-%02zu",
                                                      1 + i / 10)})
                    .ok());
  }
  fs::remove_all(dir);
  Status st = db.SaveCheckpoint(dir);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

/// Mapped copy-on-write: mutating an attached table copies exactly the
/// columns it writes to the heap, ends in the same content as the same
/// mutations on heap storage, and never writes the checkpoint file.
TEST(MappedCheckpointTest, MutationsCopyOnWriteAndLeaveFileUnchanged) {
  const std::string dir = ProcessTempPath("mapped_cow_ckpt");
  SaveSmallCheckpoint(dir);
  const std::string file_before = ReadBytes(dir + "/t.col");
  ASSERT_FALSE(file_before.empty());

  Database heap;
  ASSERT_TRUE(heap.LoadCheckpoint(dir).ok());
  Database attached;
  ASSERT_TRUE(attached.AttachCheckpoint(dir).ok());
  EngineTable* ht = heap.FindTable("t");
  EngineTable* at = attached.FindTable("t");
  for (size_t c = 0; c < at->num_columns(); ++c) {
    ASSERT_TRUE(at->column(c).is_mapped()) << "column " << c;
    ASSERT_FALSE(ht->column(c).is_mapped()) << "column " << c;
  }
  ASSERT_EQ(HashTableContent(*at), HashTableContent(*ht));

  for (EngineTable* t : {ht, at}) {
    t->SetValue(10, 1, Value::Str("X"));
    t->SetValue(kRows - 1, 0, Value::Int(99));
  }
  EXPECT_FALSE(at->column(0).is_mapped());
  EXPECT_FALSE(at->column(1).is_mapped());
  EXPECT_TRUE(at->column(2).is_mapped()) << "an unwritten column copied";
  EXPECT_EQ(HashTableContent(*at), HashTableContent(*ht));

  for (EngineTable* t : {ht, at}) {
    ASSERT_TRUE(t->AppendRowStrings({"2000", "", "1998-03-01"}).ok());
    EXPECT_EQ(t->DeleteRows({3, 150}), 2);
  }
  for (size_t c = 0; c < at->num_columns(); ++c) {
    EXPECT_FALSE(at->column(c).is_mapped()) << "column " << c;
  }
  EXPECT_EQ(at->num_rows(), static_cast<int64_t>(kRows) - 1);
  EXPECT_EQ(HashTableContent(*at), HashTableContent(*ht));
  EXPECT_EQ(ReadBytes(dir + "/t.col"), file_before);
  fs::remove_all(dir);
}

// ---- checkpoint rejection ---------------------------------------------
//
// Each case edits the saved t.col, then recomputes whichever checksums
// stand between the edit and the check it targets, so the load reaches
// that check instead of failing an earlier one.

/// Table-file layout (engine/checkpoint.h): "TPCDSTB3" | u32 cols |
/// u64 rows | u32 dir_crc, then per column type(1) nulls_off(8)
/// data_off(8) arena_off(8) arena_len(8) section_crc(4).
constexpr size_t kTableHeader = 24;
constexpr size_t kDirEntry = 37;
constexpr size_t kCols = 3;
enum Field : size_t {
  kType = 0,
  kNullsOff = 1,
  kDataOff = 9,
  kArenaOff = 17,
  kArenaLen = 25,
  kSectionCrc = 33,
};
constexpr size_t kStringCol = 1;

struct TableFile {
  std::string bytes;

  size_t Pos(size_t col, Field field) const {
    return kTableHeader + col * kDirEntry + field;
  }
  uint64_t Get(size_t col, Field field) const {
    uint64_t v;
    std::memcpy(&v, bytes.data() + Pos(col, field), sizeof(v));
    return v;
  }
  void Set(size_t col, Field field, uint64_t v) {
    std::memcpy(bytes.data() + Pos(col, field), &v, sizeof(v));
  }
  void SetU32(size_t pos, uint32_t v) {
    std::memcpy(bytes.data() + pos, &v, sizeof(v));
  }
  /// Sets entry `row` of the string column's offsets array.
  void SetStringOffset(size_t row, uint64_t v) {
    std::memcpy(bytes.data() + Get(kStringCol, kDataOff) + row * 8, &v,
                sizeof(v));
  }
  /// An aligned offset past the end of the file.
  uint64_t PastEnd() const { return (bytes.size() / 64 + 1) * 64; }

  /// Recomputes column `col`'s section CRC over nulls, data and arena.
  void ResealSection(size_t col) {
    const bool str = col == kStringCol;
    const char* b = bytes.data();
    uint32_t crc = Crc32(b + Get(col, kNullsOff), kRows);
    crc = Crc32(b + Get(col, kDataOff), (kRows + (str ? 1 : 0)) * 8, crc);
    if (str) crc = Crc32(b + Get(col, kArenaOff), Get(col, kArenaLen), crc);
    SetU32(Pos(col, kSectionCrc), crc);
  }
  void ResealDirectory() {
    SetU32(20, Crc32(bytes.data() + kTableHeader, kCols * kDirEntry));
  }
};

/// The same table in the 62-byte-entry layout that carried column
/// encodings (magic "TPCDSTB2"; per column type, encoding, nulls_off,
/// data_off, aux_off, arena_off, arena_len, param0, param1, section_crc),
/// every column plain.
void ToOldLayout(TableFile* f) {
  const size_t old_entry = 62;
  std::string out = "TPCDSTB2";
  out.append(f->bytes, 8, 16);  // cols, rows, dir_crc (patched below)
  std::string sections;
  size_t off = kTableHeader + kCols * old_entry;
  auto place = [&](uint64_t from, uint64_t len) {
    off = (off + 63) / 64 * 64;
    sections.resize(off - kTableHeader - kCols * old_entry, '\0');
    sections.append(f->bytes, from, len);
    const uint64_t at = off;
    off += len;
    return at;
  };
  for (size_t c = 0; c < kCols; ++c) {
    const bool str = c == kStringCol;
    const uint64_t nulls = place(f->Get(c, kNullsOff), kRows);
    const uint64_t data =
        place(f->Get(c, kDataOff), (kRows + (str ? 1 : 0)) * 8);
    const uint64_t arena =
        str ? place(f->Get(c, kArenaOff), f->Get(c, kArenaLen)) : 0;
    out.push_back(f->bytes[f->Pos(c, kType)]);
    out.push_back('\0');  // plain
    for (uint64_t v : {nulls, data, uint64_t{0}, arena, f->Get(c, kArenaLen),
                       uint64_t{0}, uint64_t{0}}) {
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    out.append(f->bytes, f->Pos(c, kSectionCrc), 4);
  }
  const uint32_t dir_crc =
      Crc32(out.data() + kTableHeader, kCols * old_entry);
  std::memcpy(out.data() + 20, &dir_crc, sizeof(dir_crc));
  f->bytes = out + sections;
}

enum class Reseal { kNone, kDirectory, kSectionAndDirectory };

struct Rejection {
  const char* name;
  void (*edit)(TableFile*);
  Reseal reseal;
  bool deep_only;    // a payload check only LoadCheckpoint makes
  const char* message;
};

const Rejection kRejections[] = {
    {"TruncatedFile", [](TableFile* f) { f->bytes.resize(10); },
     Reseal::kNone, false, "t: truncated or bad magic"},
    {"BadMagic", [](TableFile* f) { f->bytes[7] = 'X'; }, Reseal::kNone,
     false, "t: truncated or bad magic"},
    {"OldEncodedLayout", ToOldLayout, Reseal::kNone, false,
     "t: truncated or bad magic"},
    {"RowCountDisagrees", [](TableFile* f) { f->SetU32(12, kRows + 1); },
     Reseal::kNone, false, "t: header disagrees with manifest"},
    {"ColumnCountDisagrees", [](TableFile* f) { f->SetU32(8, kCols + 1); },
     Reseal::kNone, false, "t: header disagrees with manifest"},
    {"TruncatedDirectory",
     [](TableFile* f) { f->bytes.resize(kTableHeader + 2 * kDirEntry); },
     Reseal::kNone, false, "t: truncated directory"},
    {"DirectoryCrcMismatch",
     [](TableFile* f) { f->Set(2, kArenaLen, 1); }, Reseal::kNone, false,
     "t: directory CRC mismatch"},
    {"InvalidTypeByte", [](TableFile* f) { f->bytes[f->Pos(0, kType)] = 6; },
     Reseal::kDirectory, false, "column 0: invalid column type 6"},
    {"TypeDisagreesWithManifest",
     [](TableFile* f) {
       f->bytes[f->Pos(0, kType)] = static_cast<char>(ColumnType::kInteger);
     },
     Reseal::kDirectory, false, "column 0: type disagrees with manifest"},
    {"NullsOutOfBounds",
     [](TableFile* f) { f->Set(0, kNullsOff, f->PastEnd()); },
     Reseal::kDirectory, false, "column 0: nulls section out of bounds"},
    {"DataOutOfBounds",
     [](TableFile* f) { f->Set(2, kDataOff, f->PastEnd() - 64); },
     Reseal::kDirectory, false, "column 2: data section out of bounds"},
    {"ArenaOutOfBounds",
     [](TableFile* f) {
       f->Set(kStringCol, kArenaLen, f->Get(kStringCol, kArenaLen) + 4096);
     },
     Reseal::kDirectory, false, "column 1: arena section out of bounds"},
    {"NullsMisaligned",
     [](TableFile* f) { f->Set(0, kNullsOff, f->Get(0, kNullsOff) + 1); },
     Reseal::kDirectory, false, "column 0: nulls section misaligned"},
    {"DataMisaligned",
     [](TableFile* f) { f->Set(2, kDataOff, f->Get(2, kDataOff) + 8); },
     Reseal::kDirectory, false, "column 2: data section misaligned"},
    {"ArenaMisaligned",
     [](TableFile* f) {
       f->Set(kStringCol, kArenaOff, f->Get(kStringCol, kArenaOff) + 1);
     },
     Reseal::kDirectory, false, "column 1: arena section misaligned"},
    {"OffsetsDisagreeWithArenaLength",
     [](TableFile* f) {
       f->Set(kStringCol, kArenaLen, f->Get(kStringCol, kArenaLen) - 1);
     },
     Reseal::kDirectory, false, "column 1: offsets/arena length mismatch"},
    // 2^64 - 64 is 64-byte aligned, and nulls_off + rows wraps to 136.
    {"WrappingNullsOffset",
     [](TableFile* f) { f->Set(0, kNullsOff, ~uint64_t{0} - 63); },
     Reseal::kDirectory, false, "column 0: nulls section out of bounds"},
    {"SectionCrcMismatch",
     [](TableFile* f) { f->bytes[f->Get(0, kNullsOff)] ^= 1; },
     Reseal::kNone, true, "column 0: section CRC mismatch"},
    {"OffsetsDoNotStartAtZero",
     [](TableFile* f) { f->SetStringOffset(0, 1); },
     Reseal::kSectionAndDirectory, true, "column 1: offsets do not start at 0"},
    {"NonMonotonicOffsets",
     [](TableFile* f) {
       f->SetStringOffset(1, f->Get(kStringCol, kArenaLen));
     },
     Reseal::kSectionAndDirectory, true, "column 1: non-monotonic offsets"},
};

struct RejectionParam {
  const Rejection* rejection;
  bool attach;
};

// Names each ctest case after its rejection and read path.
void PrintTo(const RejectionParam& p, std::ostream* os) {
  *os << p.rejection->name << (p.attach ? "OnAttach" : "OnLoad");
}

std::vector<RejectionParam> RejectionParams() {
  std::vector<RejectionParam> params;
  for (const Rejection& r : kRejections) {
    if (!r.deep_only) params.push_back({&r, true});
    params.push_back({&r, false});
  }
  return params;
}

class CheckpointRejectionTest
    : public ::testing::TestWithParam<RejectionParam> {};

TEST_P(CheckpointRejectionTest, RejectsAsDataLoss) {
  const Rejection& r = *GetParam().rejection;
  const std::string dir = ProcessTempPath("rejection_ckpt");
  SaveSmallCheckpoint(dir);
  TableFile file{ReadBytes(dir + "/t.col")};
  ASSERT_GT(file.bytes.size(), kTableHeader + kCols * kDirEntry);
  r.edit(&file);
  if (r.reseal == Reseal::kSectionAndDirectory) file.ResealSection(kStringCol);
  if (r.reseal != Reseal::kNone) file.ResealDirectory();
  WriteBytes(dir + "/t.col", file.bytes);
  // The deep path checks the whole-file CRC in the manifest first. With
  // one table, its CRC is the last field of the manifest body.
  std::string manifest = ReadBytes(dir + "/MANIFEST");
  const uint32_t file_crc = Crc32(file.bytes.data(), file.bytes.size());
  std::memcpy(manifest.data() + manifest.size() - 8, &file_crc, 4);
  const uint32_t body_crc = Crc32(manifest.data() + 8, manifest.size() - 12);
  std::memcpy(manifest.data() + manifest.size() - 4, &body_crc, 4);
  WriteBytes(dir + "/MANIFEST", manifest);

  Database db;
  Status st = GetParam().attach ? db.AttachCheckpoint(dir)
                                : db.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find(r.message), std::string::npos)
      << st.ToString();
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Corruptions, CheckpointRejectionTest,
                         ::testing::ValuesIn(RejectionParams()));

/// A MANIFEST count that runs past the manifest's bytes. The CRC is
/// recomputed, so only the count is wrong, and both read paths must
/// return kDataLoss before they size anything by it.
struct ManifestCount {
  const char* name;
  size_t offset;   // of the u32 count in the MANIFEST file
  uint32_t saved;  // the count SaveSmallCheckpoint writes there
  const char* message;
};

// MANIFEST: the 8-byte magic, the generation (u64), the table count (u32),
// then per table its name (u32 length, then "t"), rows (u64), the column
// count (u32) and the columns.
const ManifestCount kManifestCounts[] = {
    {"TableCount", 16, 1, "tables exceed"},
    {"ColumnCount", 16 + 4 + 4 + 1 + 8, 3, "columns exceed"},
};

struct ManifestCountParam {
  const ManifestCount* count;
  bool attach;
};

void PrintTo(const ManifestCountParam& p, std::ostream* os) {
  *os << p.count->name << (p.attach ? "OnAttach" : "OnLoad");
}

std::vector<ManifestCountParam> ManifestCountParams() {
  std::vector<ManifestCountParam> params;
  for (const ManifestCount& c : kManifestCounts) {
    params.push_back({&c, true});
    params.push_back({&c, false});
  }
  return params;
}

class ManifestCountRejectionTest
    : public ::testing::TestWithParam<ManifestCountParam> {};

TEST_P(ManifestCountRejectionTest, RejectsAsDataLoss) {
  const ManifestCount& c = *GetParam().count;
  const std::string dir = ProcessTempPath("manifest_count_ckpt");
  SaveSmallCheckpoint(dir);
  std::string manifest = ReadBytes(dir + "/MANIFEST");
  ASSERT_GT(manifest.size(), c.offset + 4 + 4);
  uint32_t count = 0;
  std::memcpy(&count, manifest.data() + c.offset, 4);
  ASSERT_EQ(count, c.saved);
  count = 0xFFFFFFFFu;
  std::memcpy(manifest.data() + c.offset, &count, 4);
  const uint32_t body_crc = Crc32(manifest.data() + 8, manifest.size() - 12);
  std::memcpy(manifest.data() + manifest.size() - 4, &body_crc, 4);
  WriteBytes(dir + "/MANIFEST", manifest);

  Database db;
  Status st = GetParam().attach ? db.AttachCheckpoint(dir)
                                : db.LoadCheckpoint(dir);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find(c.message), std::string::npos)
      << st.ToString();
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Corruptions, ManifestCountRejectionTest,
                         ::testing::ValuesIn(ManifestCountParams()));

/// A committed kDeleteRows record whose row count runs past its payload.
/// The writer computes the CRC, so only the count is wrong, and replay
/// must return kDataLoss before it sizes anything by it.
TEST(WalReplayTest, DeleteRowCountPastPayloadIsDataLoss) {
  const std::string dir = ProcessTempPath("wal_delete_count_ckpt");
  SaveSmallCheckpoint(dir);
  const std::string wal_path = ProcessTempPath("wal_delete_count.wal");
  std::remove(wal_path.c_str());
  std::string op;
  PutLenString(&op, "delete");
  std::string payload;
  PutLenString(&payload, "t");
  PutU32(&payload, 3);            // the table's column count
  PutU32(&payload, 0xFFFFFFFFu);  // rows to delete; no row follows
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(wal_path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kOpBegin, op).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kDeleteRows, payload).ok());
    ASSERT_TRUE(wal.AppendCommit(op).ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  Database db;
  Result<RecoveryReport> rec = Recover(&db, dir, wal_path);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kDataLoss)
      << rec.status().ToString();
  EXPECT_NE(rec.status().message().find("rows exceed"), std::string::npos)
      << rec.status().ToString();
  std::remove(wal_path.c_str());
  fs::remove_all(dir);
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
