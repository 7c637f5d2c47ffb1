#include "engine/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "engine/stats.h"
#include "util/bytes.h"
#include "util/fault.h"
#include "util/mmap_file.h"
#include "util/wal.h"

namespace tpcds {
namespace {

// Mapped columns read int64/u64 payloads in place, so the on-disk byte
// order must be the host's.
static_assert(std::endian::native == std::endian::little,
              "checkpoint v2 assumes a little-endian host");

// Bumped from "TPCDSTB2", whose 62-byte directory entries carried
// column-encoding fields: such files fail the magic check as kDataLoss.
constexpr char kTableMagic[8] = {'T', 'P', 'C', 'D', 'S', 'T', 'B', '3'};
constexpr char kManifestMagic[8] = {'T', 'P', 'C', 'D', 'S', 'C', 'K', '2'};
constexpr const char* kManifestName = "MANIFEST";
// Optional statistics sidecar (engine/stats.h): per-table NDV sketches,
// histograms and min/max, so a restored or attached checkpoint starts with
// warm optimizer statistics instead of re-scanning every table.
constexpr char kStatsMagic[8] = {'T', 'P', 'C', 'D', 'S', 'S', 'T', '1'};
constexpr const char* kStatsName = "STATS";

constexpr size_t kSectionAlign = 64;
constexpr size_t kHeaderSize = 8 + 4 + 8 + 4;  // magic, cols, rows, dir crc
// type, nulls_off, data_off, arena_off, arena_len, section_crc.
constexpr size_t kDirEntrySize = 1 + 8 + 8 + 8 + 8 + 4;

Status WriteFileAtomically(const std::string& path,
                           const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("checkpoint: cannot create " + tmp);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("checkpoint: short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError("checkpoint: rename " + tmp + " -> " + path +
                           ": " + ec.message());
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("checkpoint: cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("checkpoint: read failed: " + path);
  return data;
}

size_t AlignUp(size_t n) {
  return (n + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

void PatchU32(std::string* out, size_t pos, uint32_t v) {
  std::string bytes;
  PutU32(&bytes, v);
  out->replace(pos, 4, bytes);
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Per-column section placement, shared by the writer and both readers:
/// the null bytes (one per row), then the data — int64 × rows for numeric
/// columns, u64 offsets × (rows+1) into the arena for string columns —
/// and, for string columns, the arena.
struct ColumnLayout {
  ColumnType type = ColumnType::kInteger;
  uint64_t nulls_off = 0;
  uint64_t data_off = 0;
  uint64_t arena_off = 0;  // string columns only, else 0
  uint64_t arena_len = 0;
  uint32_t section_crc = 0;

  bool is_string() const {
    return type == ColumnType::kChar || type == ColumnType::kVarchar;
  }
  uint64_t data_len(uint64_t rows) const {
    return is_string() ? (rows + 1) * sizeof(uint64_t)
                       : rows * sizeof(int64_t);
  }
};

std::string EncodeTableFile(const EngineTable& table) {
  const size_t rows = static_cast<size_t>(table.num_rows());
  const size_t cols = table.num_columns();

  // Pass 1: place the sections.
  std::vector<ColumnLayout> layout(cols);
  size_t off = kHeaderSize + cols * kDirEntrySize;
  for (size_t c = 0; c < cols; ++c) {
    const StorageColumn& col = table.column(c);
    ColumnLayout& l = layout[c];
    l.type = col.type();
    l.nulls_off = off = AlignUp(off);
    off += rows;
    l.data_off = off = AlignUp(off);
    off += l.data_len(rows);
    if (l.is_string()) {
      for (size_t r = 0; r < rows; ++r) l.arena_len += col.Str(r).size();
      l.arena_off = off = AlignUp(off);
      off += l.arena_len;
    }
  }

  // Pass 2: header, directory (CRCs back-patched), then the sections.
  std::string out;
  out.reserve(off);
  out.append(kTableMagic, sizeof(kTableMagic));
  PutU32(&out, static_cast<uint32_t>(cols));
  PutU64(&out, static_cast<uint64_t>(rows));
  const size_t dir_crc_pos = out.size();
  PutU32(&out, 0);
  const size_t dir_pos = out.size();
  std::vector<size_t> crc_pos(cols);
  for (size_t c = 0; c < cols; ++c) {
    out.push_back(static_cast<char>(layout[c].type));
    PutU64(&out, layout[c].nulls_off);
    PutU64(&out, layout[c].data_off);
    PutU64(&out, layout[c].arena_off);
    PutU64(&out, layout[c].arena_len);
    crc_pos[c] = out.size();
    PutU32(&out, 0);
  }
  for (size_t c = 0; c < cols; ++c) {
    const StorageColumn& col = table.column(c);
    const ColumnLayout& l = layout[c];
    uint32_t crc = 0;
    out.resize(l.nulls_off, '\0');
    out.append(reinterpret_cast<const char*>(col.nulls().data()), rows);
    crc = Crc32(out.data() + l.nulls_off, rows, crc);
    out.resize(l.data_off, '\0');
    if (l.is_string()) {
      uint64_t run = 0;
      PutU64(&out, run);
      for (size_t r = 0; r < rows; ++r) {
        run += col.Str(r).size();
        PutU64(&out, run);
      }
    } else {
      out.append(reinterpret_cast<const char*>(col.nums().data()),
                 rows * sizeof(int64_t));
    }
    crc = Crc32(out.data() + l.data_off, l.data_len(rows), crc);
    if (l.is_string()) {
      out.resize(l.arena_off, '\0');
      for (size_t r = 0; r < rows; ++r) {
        std::string_view s = col.Str(r);
        out.append(s.data(), s.size());
      }
      crc = Crc32(out.data() + l.arena_off, l.arena_len, crc);
    }
    PatchU32(&out, crc_pos[c], crc);
  }
  // Directory CRC covers the final directory bytes, section CRCs included.
  PatchU32(&out, dir_crc_pos,
           Crc32(out.data() + dir_pos, cols * kDirEntrySize));
  return out;
}

Status WriteTableFile(const EngineTable& table, const std::string& path,
                      uint32_t* file_crc) {
  TPCDS_FAULT_POINT("ckpt-write");
  std::string encoded = EncodeTableFile(table);
  *file_crc = Crc32(encoded.data(), encoded.size());
  return WriteFileAtomically(path, encoded);
}

Result<ColumnType> DecodeColumnType(uint8_t raw, const std::string& ctx) {
  if (raw > static_cast<uint8_t>(ColumnType::kVarchar)) {
    return Status::DataLoss(ctx + ": invalid column type " +
                            std::to_string(raw));
  }
  return static_cast<ColumnType>(raw);
}

/// One table's manifest entry.
struct ManifestTable {
  std::string name;
  uint64_t rows = 0;
  std::vector<EngineTable::ColumnMeta> columns;
  uint32_t file_crc = 0;
};

struct Manifest {
  uint64_t generation = 0;
  std::vector<ManifestTable> tables;
};

Result<Manifest> ReadManifest(const std::string& dir) {
  TPCDS_ASSIGN_OR_RETURN(std::string raw,
                         ReadWholeFile(dir + "/" + kManifestName));
  if (raw.size() < 12 || raw.compare(0, 8, kManifestMagic, 8) != 0) {
    return Status::DataLoss("checkpoint manifest: truncated or bad magic");
  }
  const std::string body = raw.substr(8, raw.size() - 12);
  if (Crc32(body.data(), body.size()) != LoadU32(raw.data() + raw.size() - 4)) {
    return Status::DataLoss("checkpoint manifest: CRC mismatch");
  }
  ByteReader reader(body, "checkpoint manifest");
  Manifest manifest;
  TPCDS_ASSIGN_OR_RETURN(manifest.generation, reader.ReadU64());
  TPCDS_ASSIGN_OR_RETURN(uint32_t table_count, reader.ReadU32());
  manifest.tables.reserve(table_count);
  for (uint32_t t = 0; t < table_count; ++t) {
    ManifestTable entry;
    TPCDS_ASSIGN_OR_RETURN(entry.name, reader.ReadLenString());
    TPCDS_ASSIGN_OR_RETURN(entry.rows, reader.ReadU64());
    TPCDS_ASSIGN_OR_RETURN(uint32_t cols, reader.ReadU32());
    entry.columns.reserve(cols);
    for (uint32_t c = 0; c < cols; ++c) {
      EngineTable::ColumnMeta meta;
      TPCDS_ASSIGN_OR_RETURN(meta.name, reader.ReadLenString());
      TPCDS_ASSIGN_OR_RETURN(uint8_t raw_type, reader.ReadU8());
      TPCDS_ASSIGN_OR_RETURN(
          meta.type, DecodeColumnType(raw_type, "checkpoint manifest"));
      entry.columns.push_back(std::move(meta));
    }
    TPCDS_ASSIGN_OR_RETURN(entry.file_crc, reader.ReadU32());
    manifest.tables.push_back(std::move(entry));
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("checkpoint manifest: trailing bytes");
  }
  return manifest;
}

/// Rejects a section that is not 64-byte aligned or escapes the file.
/// Compares as `len > size - off` so that an offset near 2^64 cannot wrap
/// the sum back into range.
Status CheckSection(const std::string& col_ctx, const char* section,
                    uint64_t off, uint64_t len, uint64_t size) {
  if (off % kSectionAlign != 0) {
    return Status::DataLoss(col_ctx + ": " + section + " section misaligned");
  }
  if (off > size || len > size - off) {
    return Status::DataLoss(col_ctx + ": " + section +
                            " section out of bounds");
  }
  return Status::OK();
}

/// Parses and validates one table file's header + directory against its
/// manifest entry. `data`/`size` may come from a heap read or an mmap;
/// only header and directory bytes (plus each string column's last
/// offset) are touched. Fills `layout`.
Status ParseTableHeader(const char* data, size_t size,
                        const ManifestTable& entry,
                        std::vector<ColumnLayout>* layout) {
  const std::string ctx = "checkpoint table " + entry.name;
  if (size < kHeaderSize ||
      std::memcmp(data, kTableMagic, sizeof(kTableMagic)) != 0) {
    return Status::DataLoss(ctx + ": truncated or bad magic");
  }
  const uint32_t cols = LoadU32(data + 8);
  const uint64_t rows = LoadU64(data + 12);
  if (cols != entry.columns.size() || rows != entry.rows) {
    return Status::DataLoss(ctx + ": header disagrees with manifest");
  }
  const uint32_t dir_crc = LoadU32(data + 20);
  const size_t dir_len = static_cast<size_t>(cols) * kDirEntrySize;
  if (size < kHeaderSize + dir_len) {
    return Status::DataLoss(ctx + ": truncated directory");
  }
  if (Crc32(data + kHeaderSize, dir_len) != dir_crc) {
    return Status::DataLoss(ctx + ": directory CRC mismatch");
  }
  layout->resize(cols);
  const char* p = data + kHeaderSize;
  for (uint32_t c = 0; c < cols; ++c) {
    ColumnLayout& l = (*layout)[c];
    const std::string col_ctx = ctx + ": column " + std::to_string(c);
    TPCDS_ASSIGN_OR_RETURN(
        l.type, DecodeColumnType(static_cast<uint8_t>(*p), col_ctx));
    l.nulls_off = LoadU64(p + 1);
    l.data_off = LoadU64(p + 9);
    l.arena_off = LoadU64(p + 17);
    l.arena_len = LoadU64(p + 25);
    l.section_crc = LoadU32(p + 33);
    p += kDirEntrySize;
    if (l.type != entry.columns[c].type) {
      return Status::DataLoss(col_ctx + ": type disagrees with manifest");
    }
    // Mapped readers dereference these offsets directly. The nulls check
    // comes first: it bounds rows by the file size, so data_len(rows)
    // cannot overflow.
    TPCDS_RETURN_NOT_OK(
        CheckSection(col_ctx, "nulls", l.nulls_off, rows, size));
    TPCDS_RETURN_NOT_OK(
        CheckSection(col_ctx, "data", l.data_off, l.data_len(rows), size));
    if (l.is_string()) {
      TPCDS_RETURN_NOT_OK(
          CheckSection(col_ctx, "arena", l.arena_off, l.arena_len, size));
      // O(1) consistency probe: the offsets array must end exactly at the
      // arena length, or mapped string_views could run past the arena.
      if (LoadU64(data + l.data_off + rows * sizeof(uint64_t)) !=
          l.arena_len) {
        return Status::DataLoss(col_ctx + ": offsets/arena length mismatch");
      }
    }
  }
  return Status::OK();
}

/// Deep load of one table file: whole-file CRC (from the manifest), every
/// section CRC, then heap materialisation.
Status LoadTableFile(EngineTable* table, const ManifestTable& entry,
                     const std::string& path) {
  TPCDS_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
  const std::string ctx = "checkpoint table " + entry.name;
  if (Crc32(data.data(), data.size()) != entry.file_crc) {
    return Status::DataLoss(ctx + ": file CRC mismatch with manifest");
  }
  std::vector<ColumnLayout> layout;
  TPCDS_RETURN_NOT_OK(
      ParseTableHeader(data.data(), data.size(), entry, &layout));
  const size_t rows = static_cast<size_t>(entry.rows);
  for (size_t c = 0; c < layout.size(); ++c) {
    const ColumnLayout& l = layout[c];
    const std::string col_ctx = ctx + ": column " + std::to_string(c);
    uint32_t crc = Crc32(data.data() + l.nulls_off, rows);
    crc = Crc32(data.data() + l.data_off, l.data_len(rows), crc);
    if (l.is_string()) {
      crc = Crc32(data.data() + l.arena_off, l.arena_len, crc);
    }
    if (crc != l.section_crc) {
      return Status::DataLoss(col_ctx + ": section CRC mismatch");
    }
    const auto* null_bytes =
        reinterpret_cast<const uint8_t*>(data.data() + l.nulls_off);
    std::vector<uint8_t> nulls(null_bytes, null_bytes + rows);
    std::vector<int64_t> nums;
    std::vector<std::string> strings;
    if (l.is_string()) {
      const char* offsets_base = data.data() + l.data_off;
      const char* arena = data.data() + l.arena_off;
      strings.reserve(rows);
      uint64_t prev = LoadU64(offsets_base);
      if (prev != 0) {
        return Status::DataLoss(col_ctx + ": offsets do not start at 0");
      }
      for (size_t r = 0; r < rows; ++r) {
        uint64_t next = LoadU64(offsets_base + (r + 1) * sizeof(uint64_t));
        if (next < prev || next > l.arena_len) {
          return Status::DataLoss(col_ctx + ": non-monotonic offsets");
        }
        strings.emplace_back(arena + prev, next - prev);
        prev = next;
      }
    } else {
      nums.resize(rows);
      std::memcpy(nums.data(), data.data() + l.data_off,
                  rows * sizeof(int64_t));
    }
    TPCDS_RETURN_NOT_OK(table->LoadColumnStorage(
        c, std::move(nums), std::move(strings), std::move(nulls)));
  }
  return table->FinishRawLoad(static_cast<int64_t>(rows));
}

/// O(1) attach of one table file: header + directory verification, then
/// every column points into the mapped pages.
Status AttachTableFile(EngineTable* table, const ManifestTable& entry,
                       const std::string& path) {
  TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                         MappedFile::Open(path));
  std::vector<ColumnLayout> layout;
  TPCDS_RETURN_NOT_OK(
      ParseTableHeader(file->data(), file->size(), entry, &layout));
  const size_t rows = static_cast<size_t>(entry.rows);
  for (size_t c = 0; c < layout.size(); ++c) {
    const ColumnLayout& l = layout[c];
    const char* base = file->data();
    const auto* nulls = reinterpret_cast<const uint8_t*>(base + l.nulls_off);
    StorageColumn* col = table->mutable_column(c);
    if (l.is_string()) {
      col->AttachStorage(
          file, nulls, nullptr, base + l.arena_off,
          reinterpret_cast<const uint64_t*>(base + l.data_off), rows);
    } else {
      col->AttachStorage(
          file, nulls, reinterpret_cast<const int64_t*>(base + l.data_off),
          nullptr, nullptr, rows);
    }
  }
  return table->FinishRawLoad(static_cast<int64_t>(rows));
}

using TableFileLoader = Status (*)(EngineTable*, const ManifestTable&,
                                   const std::string&);

/// Writes the statistics sidecar: every table whose stats were collected
/// from its current rows serialises under its name. Stats carried across
/// maintenance with rows changed since their analysis are left out: the
/// sidecar has no field for that count, so a reload would take them as
/// fresh; such a table analyses lazily after the reload instead. Always
/// written — an empty sidecar overwrites any stale one left in a reused
/// directory.
Status WriteStatsFile(const Database& db, const std::string& dir) {
  std::string body;
  std::vector<std::pair<std::string, std::shared_ptr<const TableStats>>>
      entries;
  for (const std::string& name : db.TableNames()) {
    int64_t rows_changed = 0;
    std::shared_ptr<const TableStats> stats =
        db.FindTable(name)->ComputedStats(&rows_changed);
    if (stats != nullptr && rows_changed == 0) {
      entries.emplace_back(name, std::move(stats));
    }
  }
  PutU32(&body, static_cast<uint32_t>(entries.size()));
  for (const auto& [name, stats] : entries) {
    PutLenString(&body, name);
    SerializeTableStats(*stats, &body);
  }
  std::string file(kStatsMagic, sizeof(kStatsMagic));
  file.append(body);
  PutU32(&file, Crc32(body.data(), body.size()));
  return WriteFileAtomically(dir + "/" + kStatsName, file);
}

/// Restores the statistics sidecar when present. The sidecar is a cache:
/// a missing file is fine (stats recompute lazily) and entries whose
/// table, row count or column count no longer match are skipped; but a
/// present-yet-corrupt file is data loss, like every other durable file.
Status LoadStatsFile(Database* db, const std::string& dir) {
  Result<std::string> data = ReadWholeFile(dir + "/" + kStatsName);
  if (!data.ok()) {
    return data.status().code() == StatusCode::kNotFound ? Status::OK()
                                                         : data.status();
  }
  const std::string& s = *data;
  if (s.size() < sizeof(kStatsMagic) + 4) {
    return Status::DataLoss("checkpoint stats: truncated");
  }
  const uint32_t crc = LoadU32(s.data() + s.size() - 4);
  if (Crc32(s.data() + sizeof(kStatsMagic),
            s.size() - sizeof(kStatsMagic) - 4) != crc) {
    return Status::DataLoss("checkpoint stats: body crc mismatch");
  }
  ByteReader reader(s, "checkpoint stats");
  TPCDS_RETURN_NOT_OK(reader.ReadMagic(kStatsMagic));
  TPCDS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    TPCDS_ASSIGN_OR_RETURN(std::string name, reader.ReadLenString());
    TPCDS_ASSIGN_OR_RETURN(TableStats stats,
                           DeserializeTableStats(&reader));
    EngineTable* table = db->FindTable(name);
    if (table == nullptr || stats.row_count != table->num_rows() ||
        stats.columns.size() != table->num_columns()) {
      continue;
    }
    table->InstallStats(std::make_shared<TableStats>(std::move(stats)));
  }
  return Status::OK();
}

Status RestoreCheckpoint(Database* db, const std::string& dir,
                         TableFileLoader load_table) {
  if (!db->TableNames().empty()) {
    return Status::InvalidArgument(
        "checkpoint: target database is not empty");
  }
  TPCDS_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dir));
  for (const ManifestTable& entry : manifest.tables) {
    TPCDS_RETURN_NOT_OK(db->CreateTable(entry.name, entry.columns));
    EngineTable* table = db->FindTable(entry.name);
    TPCDS_RETURN_NOT_OK(
        load_table(table, entry, dir + "/" + entry.name + ".col"));
  }
  db->set_generation(manifest.generation);
  return LoadStatsFile(db, dir);
}

}  // namespace

Status SaveCheckpointTo(const Database& db, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("checkpoint: cannot create directory " + dir +
                           ": " + ec.message());
  }
  std::string body;
  PutU64(&body, db.generation());
  std::vector<std::string> names = db.TableNames();
  PutU32(&body, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const EngineTable* table = db.FindTable(name);
    uint32_t file_crc = 0;
    TPCDS_RETURN_NOT_OK(
        WriteTableFile(*table, dir + "/" + name + ".col", &file_crc));
    PutLenString(&body, name);
    PutU64(&body, static_cast<uint64_t>(table->num_rows()));
    PutU32(&body, static_cast<uint32_t>(table->num_columns()));
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const EngineTable::ColumnMeta& meta = table->column_meta(c);
      PutLenString(&body, meta.name);
      body.push_back(static_cast<char>(meta.type));
    }
    PutU32(&body, file_crc);
  }
  TPCDS_RETURN_NOT_OK(WriteStatsFile(db, dir));
  TPCDS_FAULT_POINT("ckpt-manifest");
  std::string manifest(kManifestMagic, sizeof(kManifestMagic));
  manifest.append(body);
  PutU32(&manifest, Crc32(body.data(), body.size()));
  return WriteFileAtomically(dir + "/" + kManifestName, manifest);
}

Status LoadCheckpointFrom(Database* db, const std::string& dir) {
  return RestoreCheckpoint(db, dir, &LoadTableFile);
}

Status AttachCheckpointFrom(Database* db, const std::string& dir) {
  return RestoreCheckpoint(db, dir, &AttachTableFile);
}

Status Database::SaveCheckpoint(const std::string& dir) const {
  return SaveCheckpointTo(*this, dir);
}

Status Database::LoadCheckpoint(const std::string& dir) {
  return LoadCheckpointFrom(this, dir);
}

Status Database::AttachCheckpoint(const std::string& dir) {
  return AttachCheckpointFrom(this, dir);
}

}  // namespace tpcds
