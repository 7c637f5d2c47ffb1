#include "engine/audit.h"

#include <functional>
#include <map>
#include <string_view>

#include "engine/key_table.h"
#include "util/random.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// A constraint's key columns on one table, read straight from storage.
struct KeyColumns {
  std::vector<const StorageColumn*> cols;

  /// One int-backed column: its stored word is the key itself.
  bool exact() const { return cols.size() == 1 && !cols[0]->is_string(); }

  bool AnyNull(size_t row) const {
    for (const StorageColumn* c : cols) {
      if (c->IsNull(row)) return true;
    }
    return false;
  }

  /// The row's key as one KeyTable word: the stored word of an exact key,
  /// else a hash of the stored values that Equal must confirm.
  int64_t Word(size_t row) const {
    if (exact()) return cols[0]->Num(row);
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const StorageColumn* c : cols) {
      uint64_t v = c->is_string()
                       ? std::hash<std::string_view>()(c->Str(row))
                       : static_cast<uint64_t>(c->Num(row));
      h = Mix64(h ^ v);
    }
    return static_cast<int64_t>(h);
  }

  /// True when `row` holds the same key as row `other_row` of `other`.
  bool Equal(size_t row, const KeyColumns& other, size_t other_row) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      const StorageColumn& a = *cols[i];
      const StorageColumn& b = *other.cols[i];
      if (a.is_string() ? a.Str(row) != b.Str(other_row)
                        : a.Num(row) != b.Num(other_row)) {
        return false;
      }
    }
    return true;
  }
};

Result<KeyColumns> ResolveKey(const EngineTable& table,
                              const std::vector<std::string>& names) {
  if (static_cast<uint64_t>(table.num_rows()) >= KeyTable::kNone) {
    return Status::Internal("audit: too many rows to index: " + table.name());
  }
  KeyColumns key;
  for (const std::string& name : names) {
    int idx = table.ColumnIndex(name);
    if (idx < 0) {
      return Status::Internal("audit: missing column " + table.name() +
                              "." + name);
    }
    key.cols.push_back(&table.column(static_cast<size_t>(idx)));
  }
  return key;
}

/// A table's primary key indexed by KeyColumns::Word: a key set for an
/// exact key, else a multimap whose chains Equal confirms.
struct KeyIndex {
  KeyColumns key;
  KeyTable table;

  /// True when some indexed row holds the key of `probe` at `row`.
  bool Contains(const KeyColumns& probe, size_t row) const {
    int64_t word = probe.Word(row);
    if (key.exact()) return table.Contains(word);
    for (uint32_t r = table.Find(word); r != KeyTable::kNone;
         r = table.Next(r)) {
      if (probe.Equal(row, key, r)) return true;
    }
    return false;
  }
};

/// FNV-1a over raw bytes, seedable for chaining sections.
uint64_t Fnv64(const void* data, size_t len,
               uint64_t seed = 1469598103934665603ULL) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t FnvStr(const std::string& s, uint64_t seed) {
  seed = Fnv64(s.data(), s.size(), seed);
  uint64_t len = s.size();  // length-prefix defeats concatenation aliasing
  return Fnv64(&len, sizeof(len), seed);
}

}  // namespace

uint64_t HashTableContent(const EngineTable& table) {
  uint64_t h = FnvStr(table.name(), 1469598103934665603ULL);
  uint64_t cols = table.num_columns();
  h = Fnv64(&cols, sizeof(cols), h);
  int64_t rows = table.num_rows();
  h = Fnv64(&rows, sizeof(rows), h);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const EngineTable::ColumnMeta& meta = table.column_meta(c);
    h = FnvStr(meta.name, h);
    uint8_t type = static_cast<uint8_t>(meta.type);
    h = Fnv64(&type, sizeof(type), h);
    const StorageColumn& col = table.column(c);
    h = Fnv64(col.nulls().data(), col.nulls().size(), h);
    if (col.is_string()) {
      // Row-wise so heap and mmap-attached columns hash identically; the
      // length suffix matches FnvStr (defeats concatenation aliasing).
      for (size_t r = 0; r < col.size(); ++r) {
        std::string_view s = col.Str(r);
        h = Fnv64(s.data(), s.size(), h);
        uint64_t len = s.size();
        h = Fnv64(&len, sizeof(len), h);
      }
    } else {
      h = Fnv64(col.nums().data(), col.nums().size() * sizeof(int64_t), h);
    }
  }
  return Mix64(h);
}

uint64_t HashFacadeContent(const DataFacade& facade) {
  uint64_t h = 0x5D5D1E5D5C0FFEE5ULL;
  // TableNames() is sorted (map-backed), so the fingerprint is stable
  // regardless of creation order.
  for (const std::string& name : facade.TableNames()) {
    const EngineTable* table = facade.FindTable(name);
    uint64_t th = HashTableContent(*table);
    h = Mix64(h ^ th);
  }
  return h;
}

uint64_t HashDatabaseContent(const Database& db) {
  return HashFacadeContent(*db.Snapshot());
}

std::string AuditReport::ToString() const {
  std::string out;
  for (const ConstraintCheck& c : checks) {
    out += StringPrintf("%-64s %12lld rows %8lld violations\n",
                        c.constraint.c_str(),
                        static_cast<long long>(c.rows_checked),
                        static_cast<long long>(c.violations));
  }
  out += StringPrintf("total violations: %lld\n",
                      static_cast<long long>(TotalViolations()));
  return out;
}

Result<AuditReport> ValidateConstraints(Database* db, const Schema& schema) {
  return ValidateConstraints(*db->Snapshot(), schema);
}

Result<AuditReport> ValidateConstraints(const DataFacade& facade,
                                        const Schema& schema) {
  AuditReport report;
  // Primary-key indexes double as FK targets; build each once.
  std::map<std::string, KeyIndex> pk_index;
  for (const TableDef& def : schema.tables()) {
    EngineTable* table = facade.FindTable(def.name);
    if (table == nullptr) {
      return Status::NotFound("audit: table not loaded: " + def.name);
    }
    TPCDS_ASSIGN_OR_RETURN(KeyColumns key,
                           ResolveKey(*table, def.primary_key));
    ConstraintCheck check;
    check.constraint =
        def.name + " PK(" + Join(def.primary_key, ",") + ") unique";
    size_t n = static_cast<size_t>(table->num_rows());
    KeyIndex index{key, KeyTable(n, key.exact() ? 0 : n)};
    for (size_t r = 0; r < n; ++r) {
      ++check.rows_checked;
      if (key.AnyNull(r) || index.Contains(key, r)) {
        ++check.violations;
        continue;
      }
      index.table.Insert(key.Word(r), static_cast<uint32_t>(r));
    }
    pk_index.emplace(def.name, std::move(index));
    report.checks.push_back(std::move(check));
  }
  // Foreign keys: every non-NULL key must exist in the referenced PK index.
  for (const TableDef& def : schema.tables()) {
    EngineTable* table = facade.FindTable(def.name);
    for (const ForeignKeyDef& fk : def.foreign_keys) {
      TPCDS_ASSIGN_OR_RETURN(KeyColumns key, ResolveKey(*table, fk.columns));
      const KeyIndex& target = pk_index.at(fk.referenced_table);
      // Stored words compare like values only between equal types.
      bool comparable = key.cols.size() == target.key.cols.size();
      for (size_t i = 0; comparable && i < key.cols.size(); ++i) {
        comparable = key.cols[i]->type() == target.key.cols[i]->type();
      }
      if (!comparable) {
        return Status::Internal("audit: FK " + def.name + "(" +
                                Join(fk.columns, ",") +
                                ") is not stored like the key it references");
      }
      ConstraintCheck check;
      check.constraint = def.name + "(" + Join(fk.columns, ",") + ") -> " +
                         fk.referenced_table;
      size_t n = static_cast<size_t>(table->num_rows());
      for (size_t r = 0; r < n; ++r) {
        ++check.rows_checked;
        if (key.AnyNull(r)) continue;  // SQL FK semantics: NULLs pass
        if (!target.Contains(key, r)) ++check.violations;
      }
      report.checks.push_back(std::move(check));
    }
  }
  return report;
}

}  // namespace tpcds
