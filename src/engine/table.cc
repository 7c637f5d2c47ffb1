#include "engine/table.h"

#include <cstdlib>

namespace tpcds {

void StorageColumn::EnsureOwned() {
  if (!mapped_) return;
  // Copy-on-write: materialise the mapped payload into owned vectors. The
  // mapped checkpoint pages are never written.
  const size_t rows = size();
  std::vector<uint8_t> owned_nulls(map_nulls_, map_nulls_ + rows);
  std::vector<int64_t> owned_nums;
  std::vector<std::string> owned_strings;
  if (is_string()) {
    owned_strings.reserve(rows);
    for (size_t r = 0; r < rows; ++r) owned_strings.emplace_back(Str(r));
  } else {
    owned_nums.assign(map_nums_, map_nums_ + rows);
  }
  ReplaceStorage(std::move(owned_nums), std::move(owned_strings),
                 std::move(owned_nulls));
}

uint64_t StorageColumn::PayloadByteSize() const {
  const size_t rows = size();
  if (!is_string()) return rows * sizeof(int64_t);
  if (mapped_) return (rows + 1) * sizeof(uint64_t) + map_offsets_[rows];
  uint64_t arena = 0;
  for (const std::string& s : strings_) arena += s.size();
  return (rows + 1) * sizeof(uint64_t) + arena;
}

void StorageColumn::AttachStorage(std::shared_ptr<const MappedFile> backing,
                                  const uint8_t* nulls, const int64_t* nums,
                                  const char* arena, const uint64_t* offsets,
                                  size_t rows) {
  nums_.clear();
  strings_.clear();
  nulls_.clear();
  mapped_ = true;
  mapped_rows_ = rows;
  map_nulls_ = nulls;
  map_nums_ = nums;
  map_arena_ = arena;
  map_offsets_ = offsets;
  backing_ = std::move(backing);
}

Status StorageColumn::AppendParsed(const std::string& field) {
  EnsureOwned();
  if (field.empty()) {
    nulls_.push_back(1);
    if (is_string()) {
      strings_.emplace_back();
    } else {
      nums_.push_back(0);
    }
    return Status::OK();
  }
  nulls_.push_back(0);
  switch (type_) {
    case ColumnType::kIdentifier:
    case ColumnType::kInteger: {
      char* end = nullptr;
      int64_t v = std::strtoll(field.c_str(), &end, 10);
      if (end == field.c_str()) {
        return Status::ParseError("bad integer field: '" + field + "'");
      }
      nums_.push_back(v);
      return Status::OK();
    }
    case ColumnType::kDecimal: {
      TPCDS_ASSIGN_OR_RETURN(Decimal d, Decimal::Parse(field));
      nums_.push_back(d.cents());
      return Status::OK();
    }
    case ColumnType::kDate: {
      TPCDS_ASSIGN_OR_RETURN(Date d, Date::Parse(field));
      nums_.push_back(d.jdn());
      return Status::OK();
    }
    case ColumnType::kChar:
    case ColumnType::kVarchar:
      strings_.push_back(field);
      return Status::OK();
  }
  return Status::Internal("unhandled column type");
}

Status StorageColumn::AppendValue(const Value& v) {
  EnsureOwned();
  if (v.is_null()) {
    nulls_.push_back(1);
    if (is_string()) {
      strings_.emplace_back();
    } else {
      nums_.push_back(0);
    }
    return Status::OK();
  }
  nulls_.push_back(0);
  switch (type_) {
    case ColumnType::kIdentifier:
    case ColumnType::kInteger:
      nums_.push_back(v.kind() == Value::Kind::kDecimal
                          ? v.AsDecimal().cents() / Decimal::kScale
                          : v.AsInt());
      return Status::OK();
    case ColumnType::kDecimal:
      if (v.kind() == Value::Kind::kDecimal) {
        nums_.push_back(v.AsDecimal().cents());
      } else {
        nums_.push_back(Decimal::FromDouble(v.AsDouble()).cents());
      }
      return Status::OK();
    case ColumnType::kDate:
      if (v.kind() == Value::Kind::kDate) {
        nums_.push_back(v.AsDate().jdn());
        return Status::OK();
      }
      if (v.kind() == Value::Kind::kString) {
        TPCDS_ASSIGN_OR_RETURN(Date d, Date::Parse(v.AsString()));
        nums_.push_back(d.jdn());
        return Status::OK();
      }
      nums_.push_back(v.AsInt());
      return Status::OK();
    case ColumnType::kChar:
    case ColumnType::kVarchar:
      strings_.push_back(v.ToDisplayString());
      return Status::OK();
  }
  return Status::Internal("unhandled column type");
}

Value StorageColumn::Get(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case ColumnType::kIdentifier:
    case ColumnType::kInteger:
      return Value::Int(Num(row));
    case ColumnType::kDecimal:
      return Value::Dec(Decimal::FromCents(Num(row)));
    case ColumnType::kDate:
      return Value::Dt(Date(static_cast<int32_t>(Num(row))));
    case ColumnType::kChar:
    case ColumnType::kVarchar:
      return Value::Str(std::string(Str(row)));
  }
  return Value::Null();
}

void StorageColumn::Set(size_t row, const Value& v) {
  EnsureOwned();
  if (v.is_null()) {
    nulls_[row] = 1;
    // Null cells store a normalized payload (0 / empty), same as
    // AppendValue: content hashes and checkpoints cover the raw storage,
    // so the slot must not remember the cell's former value.
    if (is_string()) {
      strings_[row].clear();
    } else {
      nums_[row] = 0;
    }
    return;
  }
  nulls_[row] = 0;
  switch (type_) {
    case ColumnType::kIdentifier:
    case ColumnType::kInteger:
      nums_[row] = v.AsInt();
      break;
    case ColumnType::kDecimal:
      nums_[row] = v.kind() == Value::Kind::kDecimal
                       ? v.AsDecimal().cents()
                       : Decimal::FromDouble(v.AsDouble()).cents();
      break;
    case ColumnType::kDate:
      nums_[row] = v.kind() == Value::Kind::kDate
                       ? v.AsDate().jdn()
                       : v.AsInt();
      break;
    case ColumnType::kChar:
    case ColumnType::kVarchar:
      strings_[row] = v.ToDisplayString();
      break;
  }
}

void StorageColumn::Retain(const std::vector<int64_t>& keep) {
  EnsureOwned();
  std::vector<uint8_t> new_nulls;
  new_nulls.reserve(keep.size());
  if (is_string()) {
    std::vector<std::string> new_strings;
    new_strings.reserve(keep.size());
    for (int64_t r : keep) {
      new_strings.push_back(std::move(strings_[static_cast<size_t>(r)]));
      new_nulls.push_back(nulls_[static_cast<size_t>(r)]);
    }
    strings_ = std::move(new_strings);
  } else {
    std::vector<int64_t> new_nums;
    new_nums.reserve(keep.size());
    for (int64_t r : keep) {
      new_nums.push_back(nums_[static_cast<size_t>(r)]);
      new_nulls.push_back(nulls_[static_cast<size_t>(r)]);
    }
    nums_ = std::move(new_nums);
  }
  nulls_ = std::move(new_nulls);
}

void StorageColumn::Truncate(size_t rows) {
  EnsureOwned();
  if (is_string()) {
    if (strings_.size() > rows) strings_.resize(rows);
  } else {
    if (nums_.size() > rows) nums_.resize(rows);
  }
  if (nulls_.size() > rows) nulls_.resize(rows);
}

void StorageColumn::ReplaceStorage(std::vector<int64_t> nums,
                                   std::vector<std::string> strings,
                                   std::vector<uint8_t> nulls) {
  nums_ = std::move(nums);
  strings_ = std::move(strings);
  nulls_ = std::move(nulls);
  mapped_ = false;
  mapped_rows_ = 0;
  map_nulls_ = nullptr;
  map_nums_ = nullptr;
  map_arena_ = nullptr;
  map_offsets_ = nullptr;
  backing_.reset();
}

EngineTable::EngineTable(std::string name, std::vector<ColumnMeta> columns)
    : name_(std::move(name)), meta_(std::move(columns)) {
  columns_.reserve(meta_.size());
  for (size_t i = 0; i < meta_.size(); ++i) {
    columns_.emplace_back(meta_[i].type);
    name_to_index_[meta_[i].name] = static_cast<int>(i);
  }
}

int EngineTable::ColumnIndex(const std::string& column_name) const {
  auto it = name_to_index_.find(column_name);
  return it == name_to_index_.end() ? -1 : it->second;
}

Status EngineTable::AppendRowStrings(
    const std::vector<std::string>& fields) {
  if (fields.size() != meta_.size()) {
    return Status::InvalidArgument(
        "row arity mismatch for " + name_ + ": got " +
        std::to_string(fields.size()) + ", want " +
        std::to_string(meta_.size()));
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    TPCDS_RETURN_NOT_OK(columns_[i].AppendParsed(fields[i]));
  }
  ++num_rows_;
  RecordMutation(1);
  return Status::OK();
}

Status EngineTable::AppendRowValues(const std::vector<Value>& values) {
  if (values.size() != meta_.size()) {
    return Status::InvalidArgument("row arity mismatch for " + name_);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    TPCDS_RETURN_NOT_OK(columns_[i].AppendValue(values[i]));
  }
  ++num_rows_;
  RecordMutation(1);
  return Status::OK();
}

void EngineTable::SetValue(int64_t row, int col, const Value& v) {
  columns_[static_cast<size_t>(col)].Set(static_cast<size_t>(row), v);
  RecordMutation(1);
}

std::vector<int64_t> EngineTable::FindRowsIntBetween(int col, int64_t lo,
                                                     int64_t hi) const {
  std::vector<int64_t> rows;
  const StorageColumn& c = columns_[static_cast<size_t>(col)];
  for (int64_t r = 0; r < num_rows_; ++r) {
    if (c.IsNull(static_cast<size_t>(r))) continue;
    int64_t v = c.Num(static_cast<size_t>(r));
    if (v >= lo && v <= hi) rows.push_back(r);
  }
  return rows;
}

int64_t EngineTable::DeleteRows(const std::vector<int64_t>& sorted_rows) {
  if (sorted_rows.empty()) return 0;
  std::vector<int64_t> keep;
  keep.reserve(static_cast<size_t>(num_rows_) - sorted_rows.size());
  size_t di = 0;
  for (int64_t r = 0; r < num_rows_; ++r) {
    if (di < sorted_rows.size() && sorted_rows[di] == r) {
      ++di;
      continue;
    }
    keep.push_back(r);
  }
  for (StorageColumn& c : columns_) c.Retain(keep);
  int64_t deleted = num_rows_ - static_cast<int64_t>(keep.size());
  num_rows_ = static_cast<int64_t>(keep.size());
  RecordMutation(deleted);
  return deleted;
}

Status EngineTable::TruncateRows(int64_t rows) {
  if (rows < 0 || rows > num_rows_) {
    return Status::InvalidArgument(
        "cannot truncate " + name_ + " to " + std::to_string(rows) +
        " rows (has " + std::to_string(num_rows_) + ")");
  }
  if (rows == num_rows_) return Status::OK();
  for (StorageColumn& c : columns_) c.Truncate(static_cast<size_t>(rows));
  RecordMutation(num_rows_ - rows);
  num_rows_ = rows;
  return Status::OK();
}

Status EngineTable::ReinsertRows(
    const std::vector<int64_t>& sorted_rows,
    const std::vector<std::vector<Value>>& images) {
  if (sorted_rows.size() != images.size()) {
    return Status::InvalidArgument("reinsert rows/images size mismatch on " +
                                   name_);
  }
  if (sorted_rows.empty()) return Status::OK();
  int64_t new_rows = num_rows_ + static_cast<int64_t>(sorted_rows.size());
  if (sorted_rows.back() >= new_rows || sorted_rows.front() < 0) {
    return Status::InvalidArgument("reinsert index out of range on " + name_);
  }
  // Rebuild each column by interleaving survivors with the before-images
  // at their recorded positions. AppendValue(Get()) round-trips the raw
  // storage exactly (same int64 payload / string / null byte), so the
  // result is byte-identical to the pre-delete column.
  for (size_t ci = 0; ci < columns_.size(); ++ci) {
    StorageColumn rebuilt(meta_[ci].type);
    size_t survivor = 0;
    size_t k = 0;
    for (int64_t j = 0; j < new_rows; ++j) {
      if (k < sorted_rows.size() && sorted_rows[k] == j) {
        if (images[k].size() != columns_.size()) {
          return Status::InvalidArgument("reinsert image arity mismatch on " +
                                         name_);
        }
        TPCDS_RETURN_NOT_OK(rebuilt.AppendValue(images[k][ci]));
        ++k;
      } else {
        TPCDS_RETURN_NOT_OK(
            rebuilt.AppendValue(columns_[ci].Get(survivor++)));
      }
    }
    columns_[ci] = std::move(rebuilt);
  }
  num_rows_ = new_rows;
  RecordMutation(static_cast<int64_t>(sorted_rows.size()));
  return Status::OK();
}

Status EngineTable::LoadColumnStorage(size_t col, std::vector<int64_t> nums,
                                      std::vector<std::string> strings,
                                      std::vector<uint8_t> nulls) {
  if (col >= columns_.size()) {
    return Status::InvalidArgument("raw load column out of range on " + name_);
  }
  columns_[col].ReplaceStorage(std::move(nums), std::move(strings),
                               std::move(nulls));
  return Status::OK();
}

Status EngineTable::FinishRawLoad(int64_t rows) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].size() != static_cast<size_t>(rows) ||
        columns_[i].nulls().size() != static_cast<size_t>(rows)) {
      return Status::DataLoss(
          "raw load of " + name_ + "." + meta_[i].name + " holds " +
          std::to_string(columns_[i].size()) + " rows, manifest says " +
          std::to_string(rows));
    }
  }
  num_rows_ = rows;
  InvalidateIndexes();
  return Status::OK();
}

const EngineTable::HashIndex& EngineTable::GetOrBuildIntIndex(int col) {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (derived_ == nullptr) derived_ = std::make_shared<DerivedState>();
  auto it = derived_->int_indexes.find(col);
  if (it != derived_->int_indexes.end()) return it->second;
  HashIndex index;
  const StorageColumn& c = columns_[static_cast<size_t>(col)];
  index.reserve(static_cast<size_t>(num_rows_));
  for (int64_t r = 0; r < num_rows_; ++r) {
    if (c.IsNull(static_cast<size_t>(r))) continue;
    index[c.Num(static_cast<size_t>(r))].push_back(r);
  }
  return derived_->int_indexes.emplace(col, std::move(index)).first->second;
}

const EngineTable::StringIndex& EngineTable::GetOrBuildStringIndex(int col) {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (derived_ == nullptr) derived_ = std::make_shared<DerivedState>();
  auto it = derived_->string_indexes.find(col);
  if (it != derived_->string_indexes.end()) return it->second;
  StringIndex index;
  const StorageColumn& c = columns_[static_cast<size_t>(col)];
  for (int64_t r = 0; r < num_rows_; ++r) {
    if (c.IsNull(static_cast<size_t>(r))) continue;
    index[std::string(c.Str(static_cast<size_t>(r)))].push_back(r);
  }
  return derived_->string_indexes.emplace(col, std::move(index))
      .first->second;
}

const ZoneMap* EngineTable::GetOrBuildZoneMap(int col) {
  const StorageColumn& c = columns_[static_cast<size_t>(col)];
  if (c.is_string()) return nullptr;
  std::lock_guard<std::mutex> lock(index_mu_);
  if (derived_ == nullptr) derived_ = std::make_shared<DerivedState>();
  auto it = derived_->zone_maps.find(col);
  if (it != derived_->zone_maps.end()) return &it->second;
  ZoneMap zm = BuildZoneMap(c, static_cast<size_t>(num_rows_));
  return &derived_->zone_maps.emplace(col, std::move(zm)).first->second;
}

std::shared_ptr<const TableStats> EngineTable::GetOrComputeStats() {
  // Re-analyse once more than a tenth of the live rows changed. One
  // maintenance cycle changes about 1% of a fact table, so carried
  // statistics serve several cycles before a pass re-reads every column.
  constexpr int64_t kReanalyzeDivisor = 10;
  std::lock_guard<std::mutex> lock(index_mu_);
  if (stats_ == nullptr || rows_changed_ > num_rows_ / kReanalyzeDivisor) {
    stats_ = std::make_shared<TableStats>(AnalyzeTable(*this));
    rows_changed_ = 0;
  }
  return stats_;
}

std::shared_ptr<const TableStats> EngineTable::ComputedStats(
    int64_t* rows_changed) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (rows_changed != nullptr) *rows_changed = rows_changed_;
  return stats_;
}

void EngineTable::InstallStats(std::shared_ptr<const TableStats> stats) {
  std::lock_guard<std::mutex> lock(index_mu_);
  stats_ = std::move(stats);
  rows_changed_ = 0;
}

void EngineTable::RecordMutation(int64_t rows) {
  std::lock_guard<std::mutex> lock(index_mu_);
  rows_changed_ += rows;
  if (derived_ == nullptr) return;
  // Generation-scoped: retire the bundle so outstanding references from
  // GetOrBuild* stay valid; the next builder starts fresh.
  retired_.push_back(std::move(derived_));
  derived_ = nullptr;
}

std::unique_ptr<EngineTable> EngineTable::Clone() const {
  auto copy = std::make_unique<EngineTable>(name_, meta_);
  copy->columns_ = columns_;
  copy->num_rows_ = num_rows_;
  copy->stats_ = ComputedStats(&copy->rows_changed_);
  return copy;
}

}  // namespace tpcds
