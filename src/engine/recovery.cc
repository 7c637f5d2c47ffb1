#include "engine/recovery.h"

#include <chrono>
#include <filesystem>
#include <set>
#include <utility>

#include "util/bytes.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

// Cell encoding inside WAL payloads: u8 tag 0 = NULL, 1 = numeric (the raw
// int64 a StorageColumn holds — int, decimal cents, or date JDN), 2 =
// string. Decoding restores the Value kind from the column's schema type,
// so a logged cell round-trips through SetValue/AppendValue into storage
// byte-identically.
constexpr uint8_t kCellNull = 0;
constexpr uint8_t kCellNum = 1;
constexpr uint8_t kCellStr = 2;

void PutCell(std::string* out, const Value& v) {
  if (v.is_null()) {
    out->push_back(static_cast<char>(kCellNull));
  } else if (v.kind() == Value::Kind::kString) {
    out->push_back(static_cast<char>(kCellStr));
    PutLenString(out, v.AsString());
  } else {
    out->push_back(static_cast<char>(kCellNum));
    PutU64(out, static_cast<uint64_t>(v.AsInt()));
  }
}

Result<Value> ReadCell(ByteReader* reader, ColumnType type,
                       const std::string& ctx) {
  TPCDS_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
  switch (tag) {
    case kCellNull:
      return Value::Null();
    case kCellStr: {
      TPCDS_ASSIGN_OR_RETURN(std::string s, reader->ReadLenString());
      return Value::Str(std::move(s));
    }
    case kCellNum: {
      TPCDS_ASSIGN_OR_RETURN(uint64_t raw, reader->ReadU64());
      int64_t num = static_cast<int64_t>(raw);
      switch (type) {
        case ColumnType::kIdentifier:
        case ColumnType::kInteger:
          return Value::Int(num);
        case ColumnType::kDecimal:
          return Value::Dec(Decimal::FromCents(num));
        case ColumnType::kDate:
          return Value::Dt(Date(static_cast<int32_t>(num)));
        default:
          return Status::DataLoss(ctx + ": numeric cell in string column");
      }
    }
    default:
      return Status::DataLoss(ctx + ": invalid cell tag " +
                              std::to_string(tag));
  }
}

std::string EncodeOpMarker(const std::string& op_name) {
  std::string payload;
  PutLenString(&payload, op_name);
  return payload;
}

}  // namespace

Status WalSession::Log(WalRecordType type, const std::string& payload) {
  if (writer_ == nullptr) return Status::OK();
  return writer_->Append(type, payload).status();
}

Status WalSession::BeginOp(const std::string& op_name) {
  return Log(WalRecordType::kOpBegin, EncodeOpMarker(op_name));
}

Status WalSession::CommitOp(const std::string& op_name,
                            int64_t rows_affected) {
  if (writer_ == nullptr) return Status::OK();
  std::string payload = EncodeOpMarker(op_name);
  PutU64(&payload, static_cast<uint64_t>(rows_affected));
  return writer_->AppendCommit(payload).status();
}

Status WalSession::SetCell(EngineTable* table, int64_t row, int col,
                           const Value& v) {
  Value before = table->GetValue(row, col);
  table->SetValue(row, col, v);
  std::string payload;
  PutLenString(&payload, table->name());
  PutU64(&payload, static_cast<uint64_t>(row));
  PutU32(&payload, static_cast<uint32_t>(col));
  PutCell(&payload, before);
  // After-image read back from storage, not the caller's argument: what
  // got stored is what must replay.
  PutCell(&payload, table->GetValue(row, col));
  Status logged = Log(WalRecordType::kUpdateCell, payload);
  if (!logged.ok()) {
    table->SetValue(row, col, before);
    return logged;
  }
  AppliedRecord rec;
  rec.type = WalRecordType::kUpdateCell;
  rec.table = table;
  rec.row = row;
  rec.col = col;
  rec.before = std::move(before);
  applied_.push_back(std::move(rec));
  return Status::OK();
}

Status WalSession::AppendRowValues(EngineTable* table,
                                   const std::vector<Value>& row) {
  TPCDS_RETURN_NOT_OK(table->AppendRowValues(row));
  return LogAppendedRow(table);
}

Status WalSession::AppendRowStrings(EngineTable* table,
                                    const std::vector<std::string>& fields) {
  TPCDS_RETURN_NOT_OK(table->AppendRowStrings(fields));
  return LogAppendedRow(table);
}

Status WalSession::LogAppendedRow(EngineTable* table) {
  const int64_t new_row = table->num_rows() - 1;
  std::string payload;
  PutLenString(&payload, table->name());
  PutU32(&payload, static_cast<uint32_t>(table->num_columns()));
  for (size_t c = 0; c < table->num_columns(); ++c) {
    PutCell(&payload, table->GetValue(new_row, static_cast<int>(c)));
  }
  Status logged = Log(WalRecordType::kAppendRow, payload);
  if (!logged.ok()) {
    TPCDS_RETURN_NOT_OK(table->TruncateRows(new_row));
    return logged;
  }
  AppliedRecord rec;
  rec.type = WalRecordType::kAppendRow;
  rec.table = table;
  applied_.push_back(std::move(rec));
  return Status::OK();
}

Result<int64_t> WalSession::DeleteRows(
    EngineTable* table, const std::vector<int64_t>& sorted_rows) {
  if (sorted_rows.empty()) return static_cast<int64_t>(0);
  std::vector<std::vector<Value>> images;
  images.reserve(sorted_rows.size());
  const size_t ncols = table->num_columns();
  for (int64_t r : sorted_rows) {
    std::vector<Value> image;
    image.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      image.push_back(table->GetValue(r, static_cast<int>(c)));
    }
    images.push_back(std::move(image));
  }
  int64_t removed = table->DeleteRows(sorted_rows);
  std::string payload;
  PutLenString(&payload, table->name());
  PutU32(&payload, static_cast<uint32_t>(ncols));
  PutU32(&payload, static_cast<uint32_t>(sorted_rows.size()));
  for (int64_t r : sorted_rows) PutU64(&payload, static_cast<uint64_t>(r));
  for (const std::vector<Value>& image : images) {
    for (const Value& v : image) PutCell(&payload, v);
  }
  Status logged = Log(WalRecordType::kDeleteRows, payload);
  if (!logged.ok()) {
    TPCDS_RETURN_NOT_OK(table->ReinsertRows(sorted_rows, images));
    return logged;
  }
  AppliedRecord rec;
  rec.type = WalRecordType::kDeleteRows;
  rec.table = table;
  rec.deleted_rows = sorted_rows;
  rec.deleted_images = std::move(images);
  applied_.push_back(std::move(rec));
  return removed;
}

Status WalSession::UndoToMark(size_t mark) {
  while (applied_.size() > mark) {
    AppliedRecord& rec = applied_.back();
    switch (rec.type) {
      case WalRecordType::kUpdateCell:
        rec.table->SetValue(rec.row, rec.col, rec.before);
        break;
      case WalRecordType::kAppendRow:
        TPCDS_RETURN_NOT_OK(
            rec.table->TruncateRows(rec.table->num_rows() - 1));
        break;
      case WalRecordType::kDeleteRows:
        TPCDS_RETURN_NOT_OK(
            rec.table->ReinsertRows(rec.deleted_rows, rec.deleted_images));
        break;
      default:
        return Status::Internal("WalSession: cannot undo record type " +
                                std::to_string(static_cast<int>(rec.type)));
    }
    applied_.pop_back();
  }
  return Status::OK();
}

namespace {

/// Applies one committed mutation record to the recovering database.
Status ApplyRecord(Database* db, const WalRecord& record,
                   std::set<std::string>* touched) {
  const std::string ctx = "wal record lsn " + std::to_string(record.lsn);
  ByteReader reader(record.payload, ctx);
  TPCDS_ASSIGN_OR_RETURN(std::string table_name, reader.ReadLenString());
  EngineTable* table = db->FindTable(table_name);
  if (table == nullptr) {
    return Status::DataLoss(ctx + ": unknown table '" + table_name + "'");
  }
  touched->insert(table_name);
  switch (record.type) {
    case WalRecordType::kUpdateCell: {
      TPCDS_ASSIGN_OR_RETURN(uint64_t row, reader.ReadU64());
      TPCDS_ASSIGN_OR_RETURN(uint32_t col, reader.ReadU32());
      if (col >= table->num_columns() ||
          static_cast<int64_t>(row) >= table->num_rows()) {
        return Status::DataLoss(ctx + ": cell out of range for " +
                                table_name);
      }
      ColumnType type = table->column_meta(col).type;
      TPCDS_ASSIGN_OR_RETURN(Value before, ReadCell(&reader, type, ctx));
      (void)before;  // the redo pass only needs the after-image
      TPCDS_ASSIGN_OR_RETURN(Value after, ReadCell(&reader, type, ctx));
      table->SetValue(static_cast<int64_t>(row), static_cast<int>(col),
                      after);
      return Status::OK();
    }
    case WalRecordType::kAppendRow: {
      TPCDS_ASSIGN_OR_RETURN(uint32_t ncells, reader.ReadU32());
      if (ncells != table->num_columns()) {
        return Status::DataLoss(ctx + ": arity mismatch for " + table_name);
      }
      std::vector<Value> row;
      row.reserve(ncells);
      for (uint32_t c = 0; c < ncells; ++c) {
        TPCDS_ASSIGN_OR_RETURN(
            Value v, ReadCell(&reader, table->column_meta(c).type, ctx));
        row.push_back(std::move(v));
      }
      return table->AppendRowValues(row);
    }
    case WalRecordType::kDeleteRows: {
      TPCDS_ASSIGN_OR_RETURN(uint32_t ncols, reader.ReadU32());
      if (ncols != table->num_columns()) {
        return Status::DataLoss(ctx + ": arity mismatch for " + table_name);
      }
      TPCDS_ASSIGN_OR_RETURN(uint32_t k, reader.ReadU32());
      TPCDS_RETURN_NOT_OK(reader.NeedItems(k, sizeof(uint64_t), "rows"));
      std::vector<int64_t> rows;
      rows.reserve(k);
      for (uint32_t i = 0; i < k; ++i) {
        TPCDS_ASSIGN_OR_RETURN(uint64_t r, reader.ReadU64());
        rows.push_back(static_cast<int64_t>(r));
      }
      // The before-images only matter for undo; decode (and discard) them
      // so corruption inside the record is still detected.
      for (uint32_t i = 0; i < k; ++i) {
        for (uint32_t c = 0; c < ncols; ++c) {
          TPCDS_ASSIGN_OR_RETURN(
              Value v, ReadCell(&reader, table->column_meta(c).type, ctx));
          (void)v;
        }
      }
      if (!rows.empty() && rows.back() >= table->num_rows()) {
        return Status::DataLoss(ctx + ": delete row out of range for " +
                                table_name);
      }
      table->DeleteRows(rows);
      return Status::OK();
    }
    default:
      return Status::DataLoss(ctx + ": unexpected record type " +
                              std::to_string(static_cast<int>(record.type)));
  }
}

Result<std::string> DecodeOpName(const WalRecord& record) {
  ByteReader reader(record.payload,
                    "wal record lsn " + std::to_string(record.lsn));
  return reader.ReadLenString();
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out = StringPrintf(
      "recovery: %lld tables restored, %lld/%lld WAL records replayed, "
      "%lld ops committed, %lld uncommitted op(s) discarded, "
      "%llu torn byte(s) truncated, %.3fs\n",
      static_cast<long long>(tables_restored),
      static_cast<long long>(records_replayed),
      static_cast<long long>(records_scanned),
      static_cast<long long>(ops_replayed),
      static_cast<long long>(ops_discarded),
      static_cast<unsigned long long>(torn_bytes), seconds);
  if (!replayed_ops.empty()) {
    out += "  replayed: " + Join(replayed_ops, ", ") + "\n";
  }
  if (!tables_touched.empty()) {
    out += "  tables touched: " + Join(tables_touched, ", ") + "\n";
  }
  return out;
}

Result<RecoveryReport> Recover(Database* db,
                               const std::string& checkpoint_dir,
                               const std::string& wal_path) {
  const auto start = std::chrono::steady_clock::now();
  RecoveryReport report;
  TPCDS_RETURN_NOT_OK(db->LoadCheckpoint(checkpoint_dir));
  report.tables_restored = static_cast<int64_t>(db->TableNames().size());
  const auto finish = [&]() {
    report.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return report;
  };
  // No WAL (or none was ever written): recover to the checkpoint alone.
  if (wal_path.empty() || !std::filesystem::exists(wal_path)) {
    return finish();
  }
  TPCDS_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(wal_path));
  report.torn_bytes = wal.torn_bytes;
  report.records_scanned = static_cast<int64_t>(wal.records.size());
  std::set<std::string> touched;
  std::vector<const WalRecord*> pending;
  bool in_op = false;
  for (const WalRecord& record : wal.records) {
    switch (record.type) {
      case WalRecordType::kOpBegin: {
        if (in_op) {
          return Status::DataLoss(
              "wal: operation begins at lsn " + std::to_string(record.lsn) +
              " while the previous operation is still open");
        }
        in_op = true;
        pending.clear();
        break;
      }
      case WalRecordType::kOpCommit: {
        if (!in_op) {
          return Status::DataLoss("wal: commit without begin at lsn " +
                                  std::to_string(record.lsn));
        }
        TPCDS_ASSIGN_OR_RETURN(std::string op_name, DecodeOpName(record));
        for (const WalRecord* mutation : pending) {
          TPCDS_RETURN_NOT_OK(ApplyRecord(db, *mutation, &touched));
        }
        report.records_replayed += static_cast<int64_t>(pending.size());
        ++report.ops_replayed;
        report.replayed_ops.push_back(std::move(op_name));
        pending.clear();
        in_op = false;
        break;
      }
      default: {
        if (!in_op) {
          return Status::DataLoss("wal: mutation outside operation at lsn " +
                                  std::to_string(record.lsn));
        }
        pending.push_back(&record);
        break;
      }
    }
  }
  if (in_op) report.ops_discarded = 1;
  report.tables_touched.assign(touched.begin(), touched.end());
  return finish();
}

}  // namespace tpcds
