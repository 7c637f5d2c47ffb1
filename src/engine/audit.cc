#include "engine/audit.h"

#include <map>
#include <unordered_set>

#include "util/random.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

struct VecValueHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 1469598103u;
    for (const Value& v : key) h = h * 1099511628211ULL ^ v.Hash();
    return h;
  }
};
struct VecValueEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].is_null() != b[i].is_null()) return false;
      if (!a[i].is_null() && Value::Compare(a[i], b[i]) != 0) return false;
    }
    return true;
  }
};
using KeySet =
    std::unordered_set<std::vector<Value>, VecValueHash, VecValueEq>;

Result<std::vector<int>> ResolveColumns(
    const EngineTable& table, const std::vector<std::string>& names) {
  std::vector<int> cols;
  cols.reserve(names.size());
  for (const std::string& name : names) {
    int idx = table.ColumnIndex(name);
    if (idx < 0) {
      return Status::Internal("audit: missing column " + table.name() +
                              "." + name);
    }
    cols.push_back(idx);
  }
  return cols;
}

std::vector<Value> KeyAt(const EngineTable& table,
                         const std::vector<int>& cols, int64_t row) {
  std::vector<Value> key;
  key.reserve(cols.size());
  for (int c : cols) key.push_back(table.GetValue(row, c));
  return key;
}

bool AnyNull(const std::vector<Value>& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

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
  // Primary-key key sets double as FK targets; build each once.
  std::map<std::string, KeySet> pk_sets;
  for (const TableDef& def : schema.tables()) {
    EngineTable* table = facade.FindTable(def.name);
    if (table == nullptr) {
      return Status::NotFound("audit: table not loaded: " + def.name);
    }
    TPCDS_ASSIGN_OR_RETURN(std::vector<int> cols,
                           ResolveColumns(*table, def.primary_key));
    ConstraintCheck check;
    check.constraint =
        def.name + " PK(" + Join(def.primary_key, ",") + ") unique";
    KeySet keys;
    keys.reserve(static_cast<size_t>(table->num_rows()));
    for (int64_t r = 0; r < table->num_rows(); ++r) {
      std::vector<Value> key = KeyAt(*table, cols, r);
      ++check.rows_checked;
      if (AnyNull(key) || !keys.insert(std::move(key)).second) {
        ++check.violations;
      }
    }
    pk_sets[def.name] = std::move(keys);
    report.checks.push_back(std::move(check));
  }
  // Foreign keys: every non-NULL key must exist in the referenced PK set.
  for (const TableDef& def : schema.tables()) {
    EngineTable* table = facade.FindTable(def.name);
    for (const ForeignKeyDef& fk : def.foreign_keys) {
      TPCDS_ASSIGN_OR_RETURN(std::vector<int> cols,
                             ResolveColumns(*table, fk.columns));
      const KeySet& target = pk_sets.at(fk.referenced_table);
      ConstraintCheck check;
      check.constraint = def.name + "(" + Join(fk.columns, ",") + ") -> " +
                         fk.referenced_table;
      for (int64_t r = 0; r < table->num_rows(); ++r) {
        std::vector<Value> key = KeyAt(*table, cols, r);
        ++check.rows_checked;
        if (AnyNull(key)) continue;  // SQL FK semantics: NULLs pass
        if (target.find(key) == target.end()) ++check.violations;
      }
      report.checks.push_back(std::move(check));
    }
  }
  return report;
}

}  // namespace tpcds
