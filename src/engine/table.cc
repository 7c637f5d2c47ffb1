#include "engine/table.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

namespace tpcds {

namespace {

// Encoding guard rails. A dictionary past the NDV cap falls back to plain
// (the overflow path); RLE must average at least kRleMinRunLength rows per
// run to beat the 12 bytes a run costs; FOR widths past 32 bits save too
// little over the plain 64-bit payload to justify the decode.
constexpr uint32_t kDictMaxNdv = uint32_t{1} << 16;
constexpr size_t kRleMinRunLength = 4;
constexpr uint32_t kForMaxWidth = 32;

// Packed words for `rows` values of `width` bits, plus one padding word so
// the straddling two-word read in ForPacked never runs off the end.
size_t ForWordCount(size_t rows, uint32_t width) {
  return (rows * width + 63) / 64 + 1;
}

}  // namespace

int64_t StorageColumn::DecodeNum(size_t row) const {
  switch (encoding_) {
    case ColEncoding::kRle: {
      const uint32_t* ends = RleEnds();
      const uint32_t* run = std::upper_bound(
          ends, ends + enc_card_, static_cast<uint32_t>(row));
      return RleValues()[run - ends];
    }
    case ColEncoding::kFor:
      return for_base_ + static_cast<int64_t>(ForPacked(row));
    default:
      return NumsData()[row];
  }
}

void StorageColumn::ClearEncoding() {
  encoding_ = ColEncoding::kPlain;
  enc_card_ = 0;
  for_base_ = 0;
  for_width_ = 0;
  dict_codes_.clear();
  dict_offsets_.clear();
  dict_arena_.clear();
  rle_values_.clear();
  rle_ends_.clear();
  for_words_.clear();
  map_dict_codes_ = nullptr;
  map_dict_offsets_ = nullptr;
  map_dict_arena_ = nullptr;
  map_rle_values_ = nullptr;
  map_rle_ends_ = nullptr;
  map_for_words_ = nullptr;
}

void StorageColumn::EnsureOwned() {
  if (!mapped_ && encoding_ == ColEncoding::kPlain) return;
  // Copy-on-write + decode: materialise the mapped and/or encoded payload
  // into plain owned vectors. The mapped checkpoint pages are never
  // written, and mutators never patch an encoded payload in place — a
  // mutation on a mapped encoded column lands here and decodes first, so
  // the WAL/undo byte-identity contract sees only plain storage.
  const size_t rows = size();
  std::vector<uint8_t> plain_nulls(NullsData(), NullsData() + rows);
  std::vector<int64_t> plain_nums;
  std::vector<std::string> plain_strings;
  if (is_string()) {
    plain_strings.reserve(rows);
    for (size_t r = 0; r < rows; ++r) plain_strings.emplace_back(Str(r));
  } else {
    plain_nums.resize(rows);
    for (size_t r = 0; r < rows; ++r) plain_nums[r] = Num(r);
  }
  ReplaceStorage(std::move(plain_nums), std::move(plain_strings),
                 std::move(plain_nulls));
}

bool StorageColumn::Encode() {
  if (mapped_ || encoding_ != ColEncoding::kPlain) return false;
  const size_t rows = size();
  if (rows == 0) return false;
  if (is_string()) {
    // Dictionary: sorted unique set over *all* row payloads (NULL cells
    // store "", which therefore gets a code too — the payload array
    // round-trips byte-exactly). Sorted order makes code order equal
    // string order, so string compares become integer code ranges.
    std::vector<std::string_view> sorted;
    sorted.reserve(rows);
    for (const std::string& s : strings_) sorted.emplace_back(s);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    if (sorted.size() > kDictMaxNdv) return false;  // overflow: stay plain
    const uint32_t ndv = static_cast<uint32_t>(sorted.size());
    uint64_t dict_bytes = 0;
    for (std::string_view s : sorted) dict_bytes += s.size();
    const uint64_t encoded = rows * sizeof(uint32_t) +
                             (ndv + 1) * sizeof(uint64_t) + dict_bytes;
    if (encoded >= PlainByteSize()) return false;
    dict_offsets_.reserve(ndv + 1);
    dict_offsets_.push_back(0);
    dict_arena_.reserve(dict_bytes);
    for (std::string_view s : sorted) {
      dict_arena_.append(s.data(), s.size());
      dict_offsets_.push_back(dict_arena_.size());
    }
    dict_codes_.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      dict_codes_[r] = static_cast<uint32_t>(
          std::lower_bound(sorted.begin(), sorted.end(),
                           std::string_view(strings_[r])) -
          sorted.begin());
    }
    enc_card_ = ndv;
    encoding_ = ColEncoding::kDict;
    strings_.clear();
    strings_.shrink_to_fit();
    return true;
  }
  if (rows > UINT32_MAX) return false;  // RLE ends / codes are u32
  // One stats pass over the numeric payload: run count and min/max
  // (NULL-slot zeros included — they are part of the payload array).
  size_t runs = 1;
  int64_t min = nums_[0], max = nums_[0];
  for (size_t r = 1; r < rows; ++r) {
    if (nums_[r] != nums_[r - 1]) ++runs;
    min = std::min(min, nums_[r]);
    max = std::max(max, nums_[r]);
  }
  if (rows / runs >= kRleMinRunLength) {
    rle_values_.reserve(runs);
    rle_ends_.reserve(runs);
    for (size_t r = 0; r < rows; ++r) {
      if (r + 1 == rows || nums_[r + 1] != nums_[r]) {
        rle_values_.push_back(nums_[r]);
        rle_ends_.push_back(static_cast<uint32_t>(r + 1));
      }
    }
    enc_card_ = static_cast<uint32_t>(runs);
    encoding_ = ColEncoding::kRle;
    nums_.clear();
    nums_.shrink_to_fit();
    return true;
  }
  // Frame of reference: values become width-bit offsets from the minimum.
  const uint64_t range =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  const uint32_t width =
      range == 0 ? 0 : static_cast<uint32_t>(std::bit_width(range));
  if (width > kForMaxWidth) return false;
  for_words_.assign(ForWordCount(rows, width), 0);
  for (size_t r = 0; r < rows && width > 0; ++r) {
    const uint64_t v = static_cast<uint64_t>(nums_[r]) -
                       static_cast<uint64_t>(min);
    const size_t bit = r * width;
    const size_t off = bit & 63;
    for_words_[bit >> 6] |= v << off;
    if (off + width > 64) for_words_[(bit >> 6) + 1] |= v >> (64 - off);
  }
  for_base_ = min;
  for_width_ = width;
  encoding_ = ColEncoding::kFor;
  nums_.clear();
  nums_.shrink_to_fit();
  return true;
}

uint64_t StorageColumn::PayloadByteSize() const {
  const size_t rows = size();
  switch (encoding_) {
    case ColEncoding::kDict:
      return rows * sizeof(uint32_t) +
             (static_cast<uint64_t>(enc_card_) + 1) * sizeof(uint64_t) +
             DictOffsets()[enc_card_];
    case ColEncoding::kRle:
      return static_cast<uint64_t>(enc_card_) *
             (sizeof(int64_t) + sizeof(uint32_t));
    case ColEncoding::kFor:
      return ForWordCount(rows, for_width_) * sizeof(uint64_t);
    case ColEncoding::kPlain:
      break;
  }
  if (!is_string()) return rows * sizeof(int64_t);
  if (mapped_) return (rows + 1) * sizeof(uint64_t) + map_offsets_[rows];
  uint64_t arena = 0;
  for (const std::string& s : strings_) arena += s.size();
  return (rows + 1) * sizeof(uint64_t) + arena;
}

uint64_t StorageColumn::PlainByteSize() const {
  const size_t rows = size();
  if (!is_string()) return rows * sizeof(int64_t);
  if (encoding_ == ColEncoding::kDict) {
    // Logical arena length: each row contributes its dictionary entry.
    const uint64_t* offs = DictOffsets();
    const uint32_t* codes = DictCodes();
    uint64_t arena = 0;
    for (size_t r = 0; r < rows; ++r) {
      arena += offs[codes[r] + 1] - offs[codes[r]];
    }
    return (rows + 1) * sizeof(uint64_t) + arena;
  }
  return PayloadByteSize();
}

void StorageColumn::AttachStorage(std::shared_ptr<const MappedFile> backing,
                                  const uint8_t* nulls, const int64_t* nums,
                                  const char* arena, const uint64_t* offsets,
                                  size_t rows) {
  nums_.clear();
  strings_.clear();
  nulls_.clear();
  ClearEncoding();
  mapped_ = true;
  mapped_rows_ = rows;
  map_nulls_ = nulls;
  map_nums_ = nums;
  map_arena_ = arena;
  map_offsets_ = offsets;
  backing_ = std::move(backing);
}

void StorageColumn::AttachDictStorage(
    std::shared_ptr<const MappedFile> backing, const uint8_t* nulls,
    const uint32_t* codes, const uint64_t* offsets, const char* arena,
    uint32_t ndv, size_t rows) {
  AttachStorage(std::move(backing), nulls, nullptr, nullptr, nullptr, rows);
  encoding_ = ColEncoding::kDict;
  enc_card_ = ndv;
  map_dict_codes_ = codes;
  map_dict_offsets_ = offsets;
  map_dict_arena_ = arena;
}

void StorageColumn::AttachRleStorage(
    std::shared_ptr<const MappedFile> backing, const uint8_t* nulls,
    const int64_t* values, const uint32_t* ends, uint32_t runs,
    size_t rows) {
  AttachStorage(std::move(backing), nulls, nullptr, nullptr, nullptr, rows);
  encoding_ = ColEncoding::kRle;
  enc_card_ = runs;
  map_rle_values_ = values;
  map_rle_ends_ = ends;
}

void StorageColumn::AttachForStorage(
    std::shared_ptr<const MappedFile> backing, const uint8_t* nulls,
    const uint64_t* words, int64_t base, uint32_t width, size_t rows) {
  AttachStorage(std::move(backing), nulls, nullptr, nullptr, nullptr, rows);
  encoding_ = ColEncoding::kFor;
  for_base_ = base;
  for_width_ = width;
  map_for_words_ = words;
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
  ClearEncoding();
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
  InvalidateIndexes();
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
  InvalidateIndexes();
  return Status::OK();
}

void EngineTable::SetValue(int64_t row, int col, const Value& v) {
  columns_[static_cast<size_t>(col)].Set(static_cast<size_t>(row), v);
  InvalidateIndexes();
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
  InvalidateIndexes();
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
  num_rows_ = rows;
  InvalidateIndexes();
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
  InvalidateIndexes();
  return Status::OK();
}

size_t EngineTable::EncodeColumns() {
  size_t encoded = 0;
  for (StorageColumn& c : columns_) {
    if (c.Encode()) ++encoded;
  }
  return encoded;
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
  if (c.encoding() == ColEncoding::kDict) {
    // Key on dictionary codes: group rows by u32 code first (no string
    // materialisation or hashing per row), then emit one index entry per
    // referenced dictionary string.
    std::vector<std::vector<int64_t>> by_code(c.DictNdv());
    for (int64_t r = 0; r < num_rows_; ++r) {
      if (c.IsNull(static_cast<size_t>(r))) continue;
      by_code[c.DictCodes()[static_cast<size_t>(r)]].push_back(r);
    }
    for (uint32_t code = 0; code < c.DictNdv(); ++code) {
      if (!by_code[code].empty()) {
        index.emplace(std::string(c.DictEntry(code)),
                      std::move(by_code[code]));
      }
    }
  } else {
    for (int64_t r = 0; r < num_rows_; ++r) {
      if (c.IsNull(static_cast<size_t>(r))) continue;
      index[std::string(c.Str(static_cast<size_t>(r)))].push_back(r);
    }
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
  std::lock_guard<std::mutex> lock(index_mu_);
  if (derived_ == nullptr) derived_ = std::make_shared<DerivedState>();
  if (derived_->stats == nullptr) {
    derived_->stats = std::make_shared<TableStats>(AnalyzeTable(*this));
  }
  return derived_->stats;
}

std::shared_ptr<const TableStats> EngineTable::ComputedStats() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return derived_ == nullptr ? nullptr : derived_->stats;
}

void EngineTable::InstallStats(std::shared_ptr<const TableStats> stats) {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (derived_ == nullptr) derived_ = std::make_shared<DerivedState>();
  derived_->stats = std::move(stats);
}

void EngineTable::InvalidateIndexes() {
  std::lock_guard<std::mutex> lock(index_mu_);
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
  return copy;
}

}  // namespace tpcds
