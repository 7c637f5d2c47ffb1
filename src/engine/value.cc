#include "engine/value.h"

#include <cstdio>

namespace tpcds {

double Value::AsDouble() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(num_);
    case Kind::kDecimal:
      return static_cast<double>(num_) / Decimal::kScale;
    case Kind::kDouble:
      return dbl_;
    case Kind::kDate:
      return static_cast<double>(num_);
    default:
      return 0.0;
  }
}

bool Value::IsTruthy() const {
  switch (kind_) {
    case Kind::kNull:
      return false;
    case Kind::kInt:
    case Kind::kDecimal:
    case Kind::kDate:
      return num_ != 0;
    case Kind::kDouble:
      return dbl_ != 0.0;
    case Kind::kString:
      return !str_.empty();
  }
  return false;
}

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  // NULL sorts first (only relevant for ORDER BY; filters never see it).
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return -1;
  if (b.is_null()) return 1;

  if (a.kind_ == Kind::kString && b.kind_ == Kind::kString) {
    return a.str_.compare(b.str_) < 0 ? -1 : (a.str_ == b.str_ ? 0 : 1);
  }
  // Date vs string: parse the string as a date literal.
  if (a.kind_ == Kind::kDate && b.kind_ == Kind::kString) {
    Result<Date> d = Date::Parse(b.str_);
    if (d.ok()) return CompareDoubles(a.AsDouble(), d.ValueOrDie().jdn());
    return -1;
  }
  if (a.kind_ == Kind::kString && b.kind_ == Kind::kDate) {
    return -Compare(b, a);
  }
  if (a.kind_ == Kind::kInt && b.kind_ == Kind::kInt) {
    return a.num_ < b.num_ ? -1 : (a.num_ == b.num_ ? 0 : 1);
  }
  if (a.kind_ == Kind::kDecimal && b.kind_ == Kind::kDecimal) {
    return a.num_ < b.num_ ? -1 : (a.num_ == b.num_ ? 0 : 1);
  }
  if (a.kind_ == Kind::kDate && b.kind_ == Kind::kDate) {
    return a.num_ < b.num_ ? -1 : (a.num_ == b.num_ ? 0 : 1);
  }
  // String vs numeric: compare textually-parsed doubles when possible.
  return CompareDoubles(a.AsDouble(), b.AsDouble());
}

bool Value::SqlEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  return Compare(a, b) == 0;
}

std::string Value::ToDisplayString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt:
      return std::to_string(num_);
    case Kind::kDecimal:
      return AsDecimal().ToString();
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", dbl_);
      return buf;
    }
    case Kind::kString:
      return str_;
    case Kind::kDate:
      return AsDate().ToString();
  }
  return "";
}

}  // namespace tpcds
