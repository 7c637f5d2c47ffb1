#include "engine/batch.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>

#include "engine/ast.h"
#include "engine/expr_eval.h"
#include "engine/rowset.h"
#include "engine/table.h"
#include "util/date.h"
#include "util/decimal.h"

namespace tpcds {
namespace {

// Floor division for b > 0 (C++ '/' truncates toward zero).
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  int64_t r = a % b;
  return (r != 0 && r < 0) ? q - 1 : q;
}

// Cross-kind comparisons (int column vs decimal literal, date vs int, ...)
// go through Value::Compare's double coercion. Translating them onto exact
// int64 range bounds is only guaranteed to agree with the double compare
// when the literal is small enough that no rounding can cross an integer
// boundary; larger literals stay on the residual path.
constexpr int64_t kMaxExactLiteral = int64_t{1} << 44;

struct LitRational {
  int64_t num = 0;  // literal == num / den in the column's storage units
  int64_t den = 1;  // 1 or Decimal::kScale
};

enum class LitMap {
  kOk,
  kUnsupported,  // coercion not reproducible on raw storage
  kParseFail,    // date column vs unparseable date string: Compare == -1
};

// Maps a non-null literal onto the storage-unit axis of an int-backed
// column (identifier/integer: units, decimal: cents, date: JDN).
LitMap MapLiteral(ColumnType col_type, const Value& lit, LitRational* out) {
  switch (col_type) {
    case ColumnType::kIdentifier:
    case ColumnType::kInteger:
      switch (lit.kind()) {
        case Value::Kind::kInt:
          *out = {lit.AsInt(), 1};
          return LitMap::kOk;
        case Value::Kind::kDate:
          *out = {lit.AsDate().jdn(), 1};
          return LitMap::kOk;
        case Value::Kind::kDecimal: {
          int64_t cents = lit.AsDecimal().cents();
          if (std::abs(cents) > kMaxExactLiteral) return LitMap::kUnsupported;
          *out = {cents, Decimal::kScale};
          return LitMap::kOk;
        }
        default:
          return LitMap::kUnsupported;
      }
    case ColumnType::kDecimal:
      switch (lit.kind()) {
        case Value::Kind::kDecimal:
          *out = {lit.AsDecimal().cents(), 1};
          return LitMap::kOk;
        case Value::Kind::kInt: {
          int64_t v = lit.AsInt();
          if (std::abs(v) > kMaxExactLiteral) return LitMap::kUnsupported;
          *out = {v * Decimal::kScale, 1};
          return LitMap::kOk;
        }
        case Value::Kind::kDate:
          *out = {int64_t{lit.AsDate().jdn()} * Decimal::kScale, 1};
          return LitMap::kOk;
        default:
          return LitMap::kUnsupported;
      }
    case ColumnType::kDate:
      switch (lit.kind()) {
        case Value::Kind::kDate:
          *out = {lit.AsDate().jdn(), 1};
          return LitMap::kOk;
        case Value::Kind::kInt: {
          int64_t v = lit.AsInt();
          if (std::abs(v) > kMaxExactLiteral) return LitMap::kUnsupported;
          *out = {v, 1};
          return LitMap::kOk;
        }
        case Value::Kind::kDecimal: {
          int64_t cents = lit.AsDecimal().cents();
          if (std::abs(cents) > kMaxExactLiteral) return LitMap::kUnsupported;
          *out = {cents, Decimal::kScale};
          return LitMap::kOk;
        }
        case Value::Kind::kString: {
          Result<Date> d = Date::Parse(lit.AsString());
          if (!d.ok()) return LitMap::kParseFail;
          *out = {(*d).jdn(), 1};
          return LitMap::kOk;
        }
        default:
          return LitMap::kUnsupported;
      }
    default:
      return LitMap::kUnsupported;
  }
}

struct PassRange {
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
  bool negated = false;      // "<>": pass outside [lo, hi]
  bool always_false = false;
};

// Inclusive raw-storage pass range for `column OP literal`, with the
// literal already mapped onto the storage axis. `op` is one of the six
// comparison operators with the column on the left.
bool RangeForCompare(const std::string& op, LitMap lm, const LitRational& q,
                     PassRange* out) {
  *out = PassRange();
  if (lm == LitMap::kUnsupported) return false;
  if (lm == LitMap::kParseFail) {
    // Date vs unparseable string always compares "less" (value.cc), so
    // <, <=, <> pass every non-null row and =, >, >= pass none.
    if (op == "<" || op == "<=" || op == "<>") return true;  // full range
    out->always_false = true;
    return true;
  }
  int64_t num = q.num, den = q.den;
  if (op == "<") {
    if (den == 1 && num == INT64_MIN) {
      out->always_false = true;
    } else {
      out->hi = den == 1 ? num - 1 : FloorDiv(num - 1, den);
    }
    return true;
  }
  if (op == "<=") {
    out->hi = den == 1 ? num : FloorDiv(num, den);
    return true;
  }
  if (op == ">") {
    if (den == 1 && num == INT64_MAX) {
      out->always_false = true;
    } else {
      out->lo = den == 1 ? num + 1 : FloorDiv(num, den) + 1;
    }
    return true;
  }
  if (op == ">=") {
    out->lo = den == 1 ? num : FloorDiv(num - 1, den) + 1;
    return true;
  }
  if (op == "=" || op == "<>") {
    bool exact = den == 1 || num % den == 0;
    if (op == "=") {
      if (!exact) {
        out->always_false = true;
      } else {
        out->lo = out->hi = num / den;
      }
    } else {
      if (exact) {
        out->lo = out->hi = num / den;
        out->negated = true;
      }  // inexact <>: no stored value equals it, full range passes
    }
    return true;
  }
  return false;
}

std::string FlipOp(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return op;  // = and <> are symmetric
}

// True when `e` reads no row: no column reference, subquery, aggregate,
// window or `*` anywhere in it.
bool IsConstant(const Expr& e) {
  switch (e.tag) {
    case Expr::Tag::kColumnRef:
    case Expr::Tag::kStar:
    case Expr::Tag::kAggregate:
    case Expr::Tag::kWindow:
    case Expr::Tag::kInSubquery:
    case Expr::Tag::kScalarSubquery:
    case Expr::Tag::kExistsSubquery:
      return false;
    default:
      break;
  }
  for (const auto& c : e.children) {
    if (!IsConstant(*c)) return false;
  }
  return true;
}

// The value of a kernel operand that reads no row: a literal as written,
// any other constant expression (`CAST('1998-01-01' AS DATE) + 30`)
// evaluated once, here, over an empty scope. nullopt for any other
// operand.
std::optional<Value> ConstantValue(const Expr& e) {
  if (e.tag == Expr::Tag::kLiteral) return e.literal;
  if (!IsConstant(e)) return std::nullopt;
  Result<std::unique_ptr<BoundExpr>> bound = BindExpr(e, RowSet(), nullptr);
  if (!bound.ok()) return std::nullopt;
  return (*bound)->Eval({});
}

// Resolves a bare column reference to its storage column index, or -1.
int ResolveStorageCol(const Expr& e, const RowSet& scope,
                      const std::vector<int>& scan_cols) {
  if (e.tag != Expr::Tag::kColumnRef) return -1;
  Result<int> slot = scope.Resolve(e.qualifier, e.name);
  if (!slot.ok()) return -1;
  size_t s = static_cast<size_t>(*slot);
  if (s >= scan_cols.size()) return -1;
  return scan_cols[s];
}

void PushAlwaysFalse(int col, std::vector<ScanKernel>* out) {
  ScanKernel k;
  k.kind = ScanKernel::Kind::kAlwaysFalse;
  k.col = col;
  out->push_back(std::move(k));
}

bool MapStrCmp(const std::string& op, ScanKernel::Cmp* out) {
  if (op == "=") *out = ScanKernel::Cmp::kEq;
  else if (op == "<>") *out = ScanKernel::Cmp::kNe;
  else if (op == "<") *out = ScanKernel::Cmp::kLt;
  else if (op == "<=") *out = ScanKernel::Cmp::kLe;
  else if (op == ">") *out = ScanKernel::Cmp::kGt;
  else if (op == ">=") *out = ScanKernel::Cmp::kGe;
  else return false;
  return true;
}

bool CompileCompare(const Expr& pred, const RowSet& scope,
                    const EngineTable& table,
                    const std::vector<int>& scan_cols,
                    std::vector<ScanKernel>* out) {
  if (pred.children.size() != 2) return false;
  std::string op = pred.name;
  if (op == "==") op = "=";
  if (op == "!=") op = "<>";
  if (op != "=" && op != "<>" && op != "<" && op != "<=" && op != ">" &&
      op != ">=") {
    return false;
  }
  const Expr* colref = pred.children[0].get();
  const Expr* operand = pred.children[1].get();
  if (colref->tag != Expr::Tag::kColumnRef &&
      operand->tag == Expr::Tag::kColumnRef) {
    // Value::Compare is antisymmetric across every coercion pair, so
    // `lit OP col` is exactly `col FLIP(OP) lit`.
    std::swap(colref, operand);
    op = FlipOp(op);
  }
  std::optional<Value> lit = ConstantValue(*operand);
  if (!lit) return false;
  int col = ResolveStorageCol(*colref, scope, scan_cols);
  if (col < 0) return false;
  const Value& v = *lit;
  if (v.is_null()) {  // comparison with NULL is never true
    PushAlwaysFalse(col, out);
    return true;
  }
  const StorageColumn& c = table.column(static_cast<size_t>(col));
  if (c.is_string()) {
    if (v.kind() != Value::Kind::kString) return false;
    ScanKernel k;
    k.kind = ScanKernel::Kind::kStrCompare;
    k.col = col;
    k.str = v.AsString();
    if (!MapStrCmp(op, &k.cmp)) return false;
    out->push_back(std::move(k));
    return true;
  }
  LitRational q;
  LitMap lm = MapLiteral(c.type(), v, &q);
  PassRange pr;
  if (!RangeForCompare(op, lm, q, &pr)) return false;
  if (pr.always_false) {
    PushAlwaysFalse(col, out);
    return true;
  }
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = col;
  k.lo = pr.lo;
  k.hi = pr.hi;
  k.negated = pr.negated;
  out->push_back(std::move(k));
  return true;
}

bool CompileBetween(const Expr& pred, const RowSet& scope,
                    const EngineTable& table,
                    const std::vector<int>& scan_cols,
                    std::vector<ScanKernel>* out) {
  if (pred.children.size() != 3) return false;
  std::optional<Value> lo = ConstantValue(*pred.children[1]);
  std::optional<Value> hi = ConstantValue(*pred.children[2]);
  if (!lo || !hi) return false;
  int col = ResolveStorageCol(*pred.children[0], scope, scan_cols);
  if (col < 0) return false;
  if (lo->is_null() || hi->is_null()) {
    // BETWEEN with a NULL bound evaluates to NULL even when negated.
    PushAlwaysFalse(col, out);
    return true;
  }
  const StorageColumn& c = table.column(static_cast<size_t>(col));
  if (c.is_string()) {
    // NOT BETWEEN on strings is a disjunction — one kernel can't carry it.
    if (pred.negated) return false;
    if (lo->kind() != Value::Kind::kString ||
        hi->kind() != Value::Kind::kString) {
      return false;
    }
    ScanKernel ge, le;
    ge.kind = le.kind = ScanKernel::Kind::kStrCompare;
    ge.col = le.col = col;
    ge.cmp = ScanKernel::Cmp::kGe;
    ge.str = lo->AsString();
    le.cmp = ScanKernel::Cmp::kLe;
    le.str = hi->AsString();
    out->push_back(std::move(ge));
    out->push_back(std::move(le));
    return true;
  }
  LitRational ql, qh;
  LitMap lml = MapLiteral(c.type(), *lo, &ql);
  LitMap lmh = MapLiteral(c.type(), *hi, &qh);
  PassRange rl, rh;
  if (!RangeForCompare(">=", lml, ql, &rl)) return false;
  if (!RangeForCompare("<=", lmh, qh, &rh)) return false;
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = col;
  k.lo = rl.always_false ? INT64_MAX : rl.lo;
  k.hi = rh.always_false ? INT64_MIN : rh.hi;
  k.negated = pred.negated;
  out->push_back(std::move(k));
  return true;
}

bool CompileInList(const Expr& pred, const RowSet& scope,
                   const EngineTable& table,
                   const std::vector<int>& scan_cols,
                   std::vector<ScanKernel>* out) {
  if (pred.children.size() < 2) return false;
  // Every list item must be constant. An all-literal list evaluates as a
  // value set (BoundInSet), where a NULL item makes a miss UNKNOWN; any
  // other list compares item by item (BoundInExprList), skipping NULLs.
  std::vector<Value> items;
  bool all_literals = true;
  for (size_t i = 1; i < pred.children.size(); ++i) {
    std::optional<Value> v = ConstantValue(*pred.children[i]);
    if (!v) return false;
    all_literals &= pred.children[i]->tag == Expr::Tag::kLiteral;
    items.push_back(std::move(*v));
  }
  int col = ResolveStorageCol(*pred.children[0], scope, scan_cols);
  if (col < 0) return false;
  const StorageColumn& c = table.column(static_cast<size_t>(col));
  bool has_null = false;
  ScanKernel k;
  k.col = col;
  k.negated = pred.negated;
  if (c.is_string()) {
    k.kind = ScanKernel::Kind::kStrIn;
    for (const Value& v : items) {
      if (v.is_null()) {
        has_null = all_literals;
        continue;
      }
      if (v.kind() != Value::Kind::kString) return false;
      k.strs.push_back(v.AsString());
    }
    std::sort(k.strs.begin(), k.strs.end());
    k.strs.erase(std::unique(k.strs.begin(), k.strs.end()), k.strs.end());
  } else {
    k.kind = ScanKernel::Kind::kIntIn;
    for (const Value& v : items) {
      if (v.is_null()) {
        has_null = all_literals;
        continue;
      }
      int64_t raw = 0;
      switch (StorageValueForEquality(c.type(), v, &raw)) {
        case StorageEq::kExact:
          k.values.push_back(raw);
          break;
        case StorageEq::kNoMatch:
          break;  // can't equal any stored value; contributes nothing
        case StorageEq::kUnsupported:
          return false;
      }
    }
    std::sort(k.values.begin(), k.values.end());
    k.values.erase(std::unique(k.values.begin(), k.values.end()),
                   k.values.end());
  }
  if (pred.negated && has_null) {
    // x NOT IN (..., NULL) is never true: either x is in the list, or the
    // NULL membership test is unknown.
    PushAlwaysFalse(col, out);
    return true;
  }
  out->push_back(std::move(k));
  return true;
}

bool CompileLike(const Expr& pred, const RowSet& scope,
                 const EngineTable& table, const std::vector<int>& scan_cols,
                 std::vector<ScanKernel>* out) {
  if (pred.children.size() != 2) return false;
  const Expr& pat_e = *pred.children[1];
  if (pat_e.tag != Expr::Tag::kLiteral) return false;
  int col = ResolveStorageCol(*pred.children[0], scope, scan_cols);
  if (col < 0) return false;
  const StorageColumn& c = table.column(static_cast<size_t>(col));
  if (!c.is_string()) return false;
  const Value& pv = pat_e.literal;
  if (pv.is_null()) {
    PushAlwaysFalse(col, out);
    return true;
  }
  if (pv.kind() != Value::Kind::kString) return false;
  const std::string& pattern = pv.AsString();
  size_t wild = pattern.find_first_of("%_");
  if (wild == std::string::npos) {
    // No wildcard: LIKE degrades to equality.
    ScanKernel k;
    k.kind = ScanKernel::Kind::kStrCompare;
    k.col = col;
    k.cmp = pred.negated ? ScanKernel::Cmp::kNe : ScanKernel::Cmp::kEq;
    k.str = pattern;
    out->push_back(std::move(k));
    return true;
  }
  ScanKernel k;
  k.kind = ScanKernel::Kind::kStrLike;
  k.col = col;
  k.negated = pred.negated;
  k.str = pattern;
  k.like_prefix = pattern.substr(0, wild);
  k.prefix_only = wild + 1 == pattern.size() && pattern[wild] == '%';
  out->push_back(std::move(k));
  return true;
}

bool CompileIsNull(const Expr& pred, const RowSet& scope,
                   const std::vector<int>& scan_cols,
                   std::vector<ScanKernel>* out) {
  if (pred.children.size() != 1) return false;
  int col = ResolveStorageCol(*pred.children[0], scope, scan_cols);
  if (col < 0) return false;
  ScanKernel k;
  k.kind = ScanKernel::Kind::kNullTest;
  k.col = col;
  k.negated = pred.negated;
  out->push_back(std::move(k));
  return true;
}

}  // namespace

bool CompileScanKernel(const Expr& pred, const RowSet& scope,
                       const EngineTable& table,
                       const std::vector<int>& scan_cols,
                       std::vector<ScanKernel>* out) {
  switch (pred.tag) {
    case Expr::Tag::kBinary:
      return CompileCompare(pred, scope, table, scan_cols, out);
    case Expr::Tag::kBetween:
      return CompileBetween(pred, scope, table, scan_cols, out);
    case Expr::Tag::kInList:
      return CompileInList(pred, scope, table, scan_cols, out);
    case Expr::Tag::kLike:
      return CompileLike(pred, scope, table, scan_cols, out);
    case Expr::Tag::kIsNull:
      return CompileIsNull(pred, scope, scan_cols, out);
    default:
      return false;
  }
}

void ApplyScanKernel(const ScanKernel& kernel, const StorageColumn& column,
                     SelectionVector* sel) {
  SelectionVector& s = *sel;
  size_t w = 0;
  switch (kernel.kind) {
    case ScanKernel::Kind::kAlwaysFalse:
      s.clear();
      return;
    case ScanKernel::Kind::kIntRange: {
      const uint8_t* nulls = column.nulls().data();
      const int64_t lo = kernel.lo, hi = kernel.hi;
      const int64_t* nums = column.nums().data();
      if (!kernel.negated) {
        for (uint32_t r : s) {
          if (!nulls[r] && nums[r] >= lo && nums[r] <= hi) s[w++] = r;
        }
      } else {
        for (uint32_t r : s) {
          if (!nulls[r] && (nums[r] < lo || nums[r] > hi)) s[w++] = r;
        }
      }
      break;
    }
    case ScanKernel::Kind::kIntIn: {
      const int64_t* nums = column.nums().data();
      const uint8_t* nulls = column.nulls().data();
      for (uint32_t r : s) {
        if (nulls[r]) continue;
        bool in = std::binary_search(kernel.values.begin(),
                                     kernel.values.end(), nums[r]);
        if (in != kernel.negated) s[w++] = r;
      }
      break;
    }
    case ScanKernel::Kind::kStrCompare: {
      const uint8_t* nulls = column.nulls().data();
      for (uint32_t r : s) {
        if (nulls[r]) continue;
        int cmp = column.Str(r).compare(kernel.str);
        bool keep = false;
        switch (kernel.cmp) {
          case ScanKernel::Cmp::kEq: keep = cmp == 0; break;
          case ScanKernel::Cmp::kNe: keep = cmp != 0; break;
          case ScanKernel::Cmp::kLt: keep = cmp < 0; break;
          case ScanKernel::Cmp::kLe: keep = cmp <= 0; break;
          case ScanKernel::Cmp::kGt: keep = cmp > 0; break;
          case ScanKernel::Cmp::kGe: keep = cmp >= 0; break;
        }
        if (keep) s[w++] = r;
      }
      break;
    }
    case ScanKernel::Kind::kStrIn: {
      const uint8_t* nulls = column.nulls().data();
      for (uint32_t r : s) {
        if (nulls[r]) continue;
        bool in = std::binary_search(kernel.strs.begin(), kernel.strs.end(),
                                     column.Str(r));
        if (in != kernel.negated) s[w++] = r;
      }
      break;
    }
    case ScanKernel::Kind::kStrLike: {
      const uint8_t* nulls = column.nulls().data();
      const std::string& prefix = kernel.like_prefix;
      for (uint32_t r : s) {
        if (nulls[r]) continue;
        std::string_view text = column.Str(r);
        bool match = text.size() >= prefix.size() &&
                     text.compare(0, prefix.size(), prefix) == 0;
        if (match && !kernel.prefix_only) {
          match = SqlLikeMatch(text, kernel.str);
        }
        if (match != kernel.negated) s[w++] = r;
      }
      break;
    }
    case ScanKernel::Kind::kNullTest: {
      const uint8_t* nulls = column.nulls().data();
      for (uint32_t r : s) {
        if ((nulls[r] != 0) != kernel.negated) s[w++] = r;
      }
      break;
    }
  }
  s.resize(w);
}

void GatherColumn(const StorageColumn& column, const uint32_t* rows,
                  size_t n, size_t stride, size_t slot,
                  std::vector<Value>* out) {
  const uint8_t* nulls = column.nulls().data();
  const int64_t* nums = column.nums().data();
  Value::Kind kind = Value::Kind::kInt;
  switch (column.type()) {
    case ColumnType::kIdentifier:
    case ColumnType::kInteger:
      break;
    case ColumnType::kDecimal:
      kind = Value::Kind::kDecimal;
      break;
    case ColumnType::kDate:
      kind = Value::Kind::kDate;
      break;
    case ColumnType::kChar:
    case ColumnType::kVarchar:
      for (size_t i = 0; i < n; ++i) {
        uint32_t r = rows[i * stride];
        Value& v = out[i][slot];
        if (nulls[r]) {
          v.SetNull();
        } else {
          v.SetStr(column.Str(r));
        }
      }
      return;
  }
  for (size_t i = 0; i < n; ++i) {
    uint32_t r = rows[i * stride];
    Value& v = out[i][slot];
    if (nulls[r]) {
      v.SetNull();
    } else {
      v.SetWord(kind, nums[r]);
    }
  }
}

ZoneMap BuildZoneMap(const StorageColumn& column, size_t num_rows) {
  ZoneMap zm;
  zm.blocks.resize((num_rows + kBatchRows - 1) / kBatchRows);
  const int64_t* nums = column.nums().data();
  const uint8_t* nulls = column.nulls().data();
  for (size_t b = 0; b < zm.blocks.size(); ++b) {
    ZoneEntry& z = zm.blocks[b];
    size_t end = std::min(num_rows, (b + 1) * kBatchRows);
    for (size_t r = b * kBatchRows; r < end; ++r) {
      if (nulls[r]) {
        z.has_null = true;
        continue;
      }
      const int64_t v = nums[r];
      if (!z.has_nonnull) {
        z.min = z.max = v;
        z.has_nonnull = true;
      } else {
        z.min = std::min(z.min, v);
        z.max = std::max(z.max, v);
      }
    }
  }
  return zm;
}

bool KernelPrunesBlock(const ScanKernel& kernel, const ZoneEntry& zone) {
  switch (kernel.kind) {
    case ScanKernel::Kind::kAlwaysFalse:
      return true;
    case ScanKernel::Kind::kIntRange:
      if (!zone.has_nonnull) return true;
      if (!kernel.negated) {
        return zone.max < kernel.lo || zone.min > kernel.hi;
      }
      // Negated: prune when every value sits inside [lo, hi].
      return zone.min >= kernel.lo && zone.max <= kernel.hi;
    case ScanKernel::Kind::kIntIn:
      if (!zone.has_nonnull) return true;
      if (kernel.negated) return false;
      return kernel.values.empty() || zone.max < kernel.values.front() ||
             zone.min > kernel.values.back();
    case ScanKernel::Kind::kNullTest:
      return kernel.negated ? !zone.has_nonnull : !zone.has_null;
    default:
      return false;
  }
}

bool RangePrunesBlock(const ZoneEntry& zone, int64_t lo, int64_t hi) {
  return !zone.has_nonnull || zone.max < lo || zone.min > hi;
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BloomFilter::BloomFilter(size_t expected_keys) {
  size_t bits = BitsFor(expected_keys);
  words_.assign(bits / 64, 0);
  bit_mask_ = bits - 1;
}

size_t BloomFilter::BitsFor(size_t expected_keys) {
  size_t bits = 64;
  while (bits < expected_keys * 10) bits <<= 1;
  return bits;
}

void BloomFilter::Add(size_t hash) {
  uint64_t h1 = hash;
  uint64_t h2 = SplitMix64(hash) | 1;
  size_t b1 = h1 & bit_mask_;
  size_t b2 = (h1 + h2) & bit_mask_;
  words_[b1 >> 6] |= uint64_t{1} << (b1 & 63);
  words_[b2 >> 6] |= uint64_t{1} << (b2 & 63);
}

bool BloomFilter::MayContain(size_t hash) const {
  uint64_t h1 = hash;
  uint64_t h2 = SplitMix64(hash) | 1;
  size_t b1 = h1 & bit_mask_;
  size_t b2 = (h1 + h2) & bit_mask_;
  return (words_[b1 >> 6] & (uint64_t{1} << (b1 & 63))) != 0 &&
         (words_[b2 >> 6] & (uint64_t{1} << (b2 & 63))) != 0;
}

size_t HashStorageValue(ColumnType type, int64_t raw) {
  switch (type) {
    case ColumnType::kIdentifier:
    case ColumnType::kInteger:
    case ColumnType::kDate:
      return std::hash<int64_t>()(raw * 10007);
    case ColumnType::kDecimal:
      // Integral cents hash as the integer they equal.
      if (raw % Decimal::kScale == 0) {
        return std::hash<int64_t>()(raw / Decimal::kScale * 10007);
      }
      return std::hash<double>()(static_cast<double>(raw) / Decimal::kScale);
    case ColumnType::kChar:
    case ColumnType::kVarchar:
      break;  // string columns hash the std::string payload directly
  }
  return 0;
}

StorageEq StorageValueForEquality(ColumnType type, const Value& key,
                                  int64_t* out) {
  if (key.is_null()) return StorageEq::kNoMatch;
  switch (type) {
    case ColumnType::kIdentifier:
    case ColumnType::kInteger:
      switch (key.kind()) {
        case Value::Kind::kInt:
          *out = key.AsInt();
          return StorageEq::kExact;
        case Value::Kind::kDate:
          *out = key.AsDate().jdn();
          return StorageEq::kExact;
        case Value::Kind::kDecimal: {
          int64_t cents = key.AsDecimal().cents();
          if (std::abs(cents) > kMaxExactLiteral) {
            return StorageEq::kUnsupported;
          }
          if (cents % Decimal::kScale != 0) return StorageEq::kNoMatch;
          *out = cents / Decimal::kScale;
          return StorageEq::kExact;
        }
        default:
          return StorageEq::kUnsupported;
      }
    case ColumnType::kDecimal:
      switch (key.kind()) {
        case Value::Kind::kDecimal:
          *out = key.AsDecimal().cents();
          return StorageEq::kExact;
        case Value::Kind::kInt: {
          int64_t v = key.AsInt();
          if (std::abs(v) > kMaxExactLiteral) return StorageEq::kUnsupported;
          *out = v * Decimal::kScale;
          return StorageEq::kExact;
        }
        case Value::Kind::kDate:
          *out = int64_t{key.AsDate().jdn()} * Decimal::kScale;
          return StorageEq::kExact;
        default:
          return StorageEq::kUnsupported;
      }
    case ColumnType::kDate:
      switch (key.kind()) {
        case Value::Kind::kDate:
          *out = key.AsDate().jdn();
          return StorageEq::kExact;
        case Value::Kind::kInt: {
          int64_t v = key.AsInt();
          if (std::abs(v) > kMaxExactLiteral) return StorageEq::kUnsupported;
          *out = v;
          return StorageEq::kExact;
        }
        case Value::Kind::kDecimal: {
          int64_t cents = key.AsDecimal().cents();
          if (std::abs(cents) > kMaxExactLiteral) {
            return StorageEq::kUnsupported;
          }
          if (cents % Decimal::kScale != 0) return StorageEq::kNoMatch;
          *out = cents / Decimal::kScale;
          return StorageEq::kExact;
        }
        case Value::Kind::kString: {
          Result<Date> d = Date::Parse(key.AsString());
          if (!d.ok()) return StorageEq::kNoMatch;
          *out = (*d).jdn();
          return StorageEq::kExact;
        }
        default:
          return StorageEq::kUnsupported;
      }
    default:
      return StorageEq::kUnsupported;
  }
}

}  // namespace tpcds
