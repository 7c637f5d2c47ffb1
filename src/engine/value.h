#ifndef TPCDS_ENGINE_VALUE_H_
#define TPCDS_ENGINE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/date.h"
#include "util/decimal.h"

namespace tpcds {

/// A runtime SQL value. Numeric kinds (int, decimal, double) compare and
/// combine with the usual SQL coercions; dates compare with date-literal
/// strings by parsing. NULL is a distinct kind with SQL semantics
/// (comparisons involving NULL are unknown; aggregates skip NULLs).
/// Hashed lookups (joins, IN sets, DISTINCT, set operations, grouping)
/// key a value through KeyCell (engine/group_table.h), which equates what
/// Compare does, a DATE and the string naming it where dates meet strings.
class Value {
 public:
  enum class Kind { kNull, kInt, kDecimal, kDouble, kString, kDate };

  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.kind_ = Kind::kInt;
    out.num_ = v;
    return out;
  }
  static Value Dec(Decimal v) {
    Value out;
    out.kind_ = Kind::kDecimal;
    out.num_ = v.cents();
    return out;
  }
  static Value Dbl(double v) {
    Value out;
    out.kind_ = Kind::kDouble;
    out.dbl_ = v;
    return out;
  }
  static Value Str(std::string v) {
    Value out;
    out.kind_ = Kind::kString;
    out.str_ = std::move(v);
    return out;
  }
  static Value Dt(Date v) {
    Value out;
    out.kind_ = Kind::kDate;
    out.num_ = v.jdn();
    return out;
  }
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  /// In-place setters for a slot of a reused row: each leaves the Value
  /// equal to the one its factory builds, but keeps the string buffer, so
  /// a warm slot allocates nothing unless a string outgrows it.
  void SetNull() { Set(Kind::kNull, 0); }
  /// `kind` is one stored as a word: kInt, kDecimal (cents) or kDate (JDN).
  void SetWord(Kind kind, int64_t word) { Set(kind, word); }
  void SetStr(std::string_view s) {
    Set(Kind::kString, 0);
    str_.assign(s.data(), s.size());
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_numeric() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDecimal ||
           kind_ == Kind::kDouble;
  }

  int64_t AsInt() const { return num_; }
  Decimal AsDecimal() const { return Decimal::FromCents(num_); }
  Date AsDate() const { return Date(static_cast<int32_t>(num_)); }
  const std::string& AsString() const { return str_; }
  /// Numeric coercion to double (0 for non-numerics).
  double AsDouble() const;
  /// Truthiness for filters: non-null, non-zero numeric.
  bool IsTruthy() const;

  /// Three-way comparison with SQL coercions. Callers must handle NULLs
  /// first (Compare treats NULL as less-than for sorting purposes).
  static int Compare(const Value& a, const Value& b);

  /// SQL equality (after coercion); NULL never equals anything.
  static bool SqlEquals(const Value& a, const Value& b);

  /// Rendering for result display and CSV output; NULL renders as "NULL".
  std::string ToDisplayString() const;

 private:
  void Set(Kind kind, int64_t num) {
    kind_ = kind;
    num_ = num;
    dbl_ = 0.0;
    str_.clear();
  }

  Kind kind_;
  int64_t num_ = 0;  // int / decimal cents / date jdn
  double dbl_ = 0.0;
  std::string str_;
};

}  // namespace tpcds

#endif  // TPCDS_ENGINE_VALUE_H_
