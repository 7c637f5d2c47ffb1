#include "engine/expr_eval.h"

#include <cmath>

#include "engine/group_table.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

// ---------------------------------------------------------------- helpers

/// Simple SQL LIKE matcher: % = any run, _ = any one character.
bool LikeMatch(std::string_view text, const std::string& pattern,
               size_t ti = 0, size_t pi = 0) {
  while (pi < pattern.size()) {
    char pc = pattern[pi];
    if (pc == '%') {
      // Collapse consecutive %.
      while (pi < pattern.size() && pattern[pi] == '%') ++pi;
      if (pi == pattern.size()) return true;
      for (size_t t = ti; t <= text.size(); ++t) {
        if (LikeMatch(text, pattern, t, pi)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (pc != '_' && text[ti] != pc) return false;
    ++ti;
    ++pi;
  }
  return ti == text.size();
}

// ------------------------------------------------------------ bound nodes

class BoundLiteral : public BoundExpr {
 public:
  explicit BoundLiteral(Value v) : value_(std::move(v)) {}
  Value Eval(const std::vector<Value>&) const override { return value_; }

 private:
  Value value_;
};

class BoundColumn : public BoundExpr {
 public:
  explicit BoundColumn(int index) : index_(index) {}
  Value Eval(const std::vector<Value>& row) const override {
    return row[static_cast<size_t>(index_)];
  }

 private:
  int index_;
};

class BoundUnary : public BoundExpr {
 public:
  BoundUnary(std::string op, std::unique_ptr<BoundExpr> inner)
      : op_(std::move(op)), inner_(std::move(inner)) {}
  Value Eval(const std::vector<Value>& row) const override {
    Value v = inner_->Eval(row);
    if (v.is_null()) return Value::Null();
    if (op_ == "NOT") return Value::Bool(!v.IsTruthy());
    // Unary minus.
    switch (v.kind()) {
      case Value::Kind::kInt:
        return Value::Int(-v.AsInt());
      case Value::Kind::kDecimal:
        return Value::Dec(-v.AsDecimal());
      default:
        return Value::Dbl(-v.AsDouble());
    }
  }

 private:
  std::string op_;
  std::unique_ptr<BoundExpr> inner_;
};

class BoundBinary : public BoundExpr {
 public:
  BoundBinary(std::string op, std::unique_ptr<BoundExpr> l,
              std::unique_ptr<BoundExpr> r)
      : op_(std::move(op)), left_(std::move(l)), right_(std::move(r)) {}

  Value Eval(const std::vector<Value>& row) const override {
    if (op_ == "AND") {
      Value l = left_->Eval(row);
      if (!l.is_null() && !l.IsTruthy()) return Value::Bool(false);
      Value r = right_->Eval(row);
      if (!r.is_null() && !r.IsTruthy()) return Value::Bool(false);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(true);
    }
    if (op_ == "OR") {
      Value l = left_->Eval(row);
      if (!l.is_null() && l.IsTruthy()) return Value::Bool(true);
      Value r = right_->Eval(row);
      if (!r.is_null() && r.IsTruthy()) return Value::Bool(true);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(false);
    }
    Value l = left_->Eval(row);
    Value r = right_->Eval(row);
    if (l.is_null() || r.is_null()) return Value::Null();
    if (op_ == "=") return Value::Bool(Value::Compare(l, r) == 0);
    if (op_ == "<>") return Value::Bool(Value::Compare(l, r) != 0);
    if (op_ == "<") return Value::Bool(Value::Compare(l, r) < 0);
    if (op_ == "<=") return Value::Bool(Value::Compare(l, r) <= 0);
    if (op_ == ">") return Value::Bool(Value::Compare(l, r) > 0);
    if (op_ == ">=") return Value::Bool(Value::Compare(l, r) >= 0);
    if (op_ == "||") return Value::Str(l.ToDisplayString() + r.ToDisplayString());
    return EvalArithmetic(op_, l, r);
  }

 private:
  std::string op_;
  std::unique_ptr<BoundExpr> left_;
  std::unique_ptr<BoundExpr> right_;
};

class BoundBetween : public BoundExpr {
 public:
  BoundBetween(bool negated, std::unique_ptr<BoundExpr> v,
               std::unique_ptr<BoundExpr> lo, std::unique_ptr<BoundExpr> hi)
      : negated_(negated),
        value_(std::move(v)),
        lo_(std::move(lo)),
        hi_(std::move(hi)) {}
  Value Eval(const std::vector<Value>& row) const override {
    Value v = value_->Eval(row);
    Value lo = lo_->Eval(row);
    Value hi = hi_->Eval(row);
    if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
    bool in = Value::Compare(v, lo) >= 0 && Value::Compare(v, hi) <= 0;
    return Value::Bool(negated_ ? !in : in);
  }

 private:
  bool negated_;
  std::unique_ptr<BoundExpr> value_;
  std::unique_ptr<BoundExpr> lo_;
  std::unique_ptr<BoundExpr> hi_;
};

/// `probe IN (values)`, the values keyed through KeyCell in the GroupTable
/// key index. The DATE/string rule (DateKeyed) applies where a probe meets
/// the set: a string probe also keys as the date it names when the set
/// holds dates, and a date probe is also looked up among the dates the
/// set's strings name.
class BoundInSet : public BoundExpr {
 public:
  BoundInSet(bool negated, std::unique_ptr<BoundExpr> probe,
             std::vector<Value> values)
      : negated_(negated),
        probe_(std::move(probe)),
        values_(std::move(values)) {
    for (const Value& v : values_) {
      if (v.is_null()) {
        contains_null_ = true;
        continue;
      }
      KeyCell k = KeyCell::Of(Cell::Of(v));
      Insert(&set_, k);
      dates_ |= v.kind() == Value::Kind::kDate;
      KeyCell named = DateKeyed(k);
      if (named.cls != k.cls) Insert(&named_dates_, named);
    }
  }
  Value Eval(const std::vector<Value>& row) const override {
    Value v = probe_->Eval(row);
    if (v.is_null()) return Value::Null();
    bool in = Contains(v);
    // SQL three-valued IN: a non-match against a set containing NULL is
    // UNKNOWN, not FALSE — which makes NOT IN filter everything out.
    if (!in && contains_null_) return Value::Null();
    return Value::Bool(negated_ ? !in : in);
  }

 private:
  static void Insert(GroupTable* set, const KeyCell& k) {
    bool created = false;
    set->FindOrAdd(&k, HashKey(&k, 1), 0, /*stable=*/true, &created);
  }
  static bool Has(const GroupTable& set, const KeyCell& k) {
    return set.Find(&k, HashKey(&k, 1)) != GroupTable::kNone;
  }
  bool Contains(const Value& v) const {
    KeyCell k = KeyCell::Of(Cell::Of(v));
    if (Has(set_, k)) return true;
    if (v.kind() == Value::Kind::kString) {
      return dates_ && Has(set_, DateKeyed(k));
    }
    return v.kind() == Value::Kind::kDate && Has(named_dates_, k);
  }

  bool negated_;
  std::unique_ptr<BoundExpr> probe_;
  std::vector<Value> values_;  // the strings the key views point into
  GroupTable set_{1};
  GroupTable named_dates_{1};  // the dates the set's strings name
  bool contains_null_ = false;
  bool dates_ = false;
};

class BoundInExprList : public BoundExpr {
 public:
  BoundInExprList(bool negated, std::vector<std::unique_ptr<BoundExpr>> exprs)
      : negated_(negated), exprs_(std::move(exprs)) {}
  Value Eval(const std::vector<Value>& row) const override {
    Value v = exprs_[0]->Eval(row);
    if (v.is_null()) return Value::Null();
    for (size_t i = 1; i < exprs_.size(); ++i) {
      Value candidate = exprs_[i]->Eval(row);
      if (!candidate.is_null() && Value::Compare(v, candidate) == 0) {
        return Value::Bool(!negated_);
      }
    }
    return Value::Bool(negated_);
  }

 private:
  bool negated_;
  std::vector<std::unique_ptr<BoundExpr>> exprs_;  // [probe, v1, v2, ...]
};

class BoundIsNull : public BoundExpr {
 public:
  BoundIsNull(bool negated, std::unique_ptr<BoundExpr> inner)
      : negated_(negated), inner_(std::move(inner)) {}
  Value Eval(const std::vector<Value>& row) const override {
    bool null = inner_->Eval(row).is_null();
    return Value::Bool(negated_ ? !null : null);
  }

 private:
  bool negated_;
  std::unique_ptr<BoundExpr> inner_;
};

class BoundLike : public BoundExpr {
 public:
  BoundLike(bool negated, std::unique_ptr<BoundExpr> text,
            std::unique_ptr<BoundExpr> pattern)
      : negated_(negated),
        text_(std::move(text)),
        pattern_(std::move(pattern)) {}
  Value Eval(const std::vector<Value>& row) const override {
    Value t = text_->Eval(row);
    Value p = pattern_->Eval(row);
    if (t.is_null() || p.is_null()) return Value::Null();
    bool match = LikeMatch(t.ToDisplayString(), p.ToDisplayString());
    return Value::Bool(negated_ ? !match : match);
  }

 private:
  bool negated_;
  std::unique_ptr<BoundExpr> text_;
  std::unique_ptr<BoundExpr> pattern_;
};

class BoundCase : public BoundExpr {
 public:
  BoundCase(std::vector<std::unique_ptr<BoundExpr>> parts, bool has_else)
      : parts_(std::move(parts)), has_else_(has_else) {}
  Value Eval(const std::vector<Value>& row) const override {
    size_t pairs = has_else_ ? (parts_.size() - 1) / 2 : parts_.size() / 2;
    for (size_t i = 0; i < pairs; ++i) {
      Value cond = parts_[2 * i]->Eval(row);
      if (!cond.is_null() && cond.IsTruthy()) {
        return parts_[2 * i + 1]->Eval(row);
      }
    }
    if (has_else_) return parts_.back()->Eval(row);
    return Value::Null();
  }

 private:
  std::vector<std::unique_ptr<BoundExpr>> parts_;
  bool has_else_;
};

class BoundCast : public BoundExpr {
 public:
  BoundCast(std::string type, std::unique_ptr<BoundExpr> inner)
      : type_(std::move(type)), inner_(std::move(inner)) {}
  Value Eval(const std::vector<Value>& row) const override {
    Value v = inner_->Eval(row);
    if (v.is_null()) return Value::Null();
    if (type_ == "DATE") {
      if (v.kind() == Value::Kind::kDate) return v;
      Result<Date> d = Date::Parse(v.ToDisplayString());
      return d.ok() ? Value::Dt(d.ValueOrDie()) : Value::Null();
    }
    if (type_ == "INTEGER" || type_ == "INT" || type_ == "BIGINT") {
      return Value::Int(static_cast<int64_t>(v.AsDouble()));
    }
    if (type_ == "DECIMAL" || type_ == "NUMERIC") {
      return Value::Dec(Decimal::FromDouble(v.AsDouble()));
    }
    if (type_ == "DOUBLE" || type_ == "FLOAT" || type_ == "REAL") {
      return Value::Dbl(v.AsDouble());
    }
    if (type_ == "CHAR" || type_ == "VARCHAR") {
      return Value::Str(v.ToDisplayString());
    }
    return v;
  }

 private:
  std::string type_;
  std::unique_ptr<BoundExpr> inner_;
};

class BoundFunction : public BoundExpr {
 public:
  BoundFunction(std::string name,
                std::vector<std::unique_ptr<BoundExpr>> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  Value Eval(const std::vector<Value>& row) const override {
    if (name_ == "COALESCE") {
      for (const auto& a : args_) {
        Value v = a->Eval(row);
        if (!v.is_null()) return v;
      }
      return Value::Null();
    }
    if (name_ == "SUBSTR" || name_ == "SUBSTRING") {
      Value s = args_[0]->Eval(row);
      if (s.is_null()) return Value::Null();
      std::string text = s.ToDisplayString();
      int64_t start = args_.size() > 1
                          ? args_[1]->Eval(row).AsInt()
                          : 1;
      int64_t len = args_.size() > 2
                        ? args_[2]->Eval(row).AsInt()
                        : static_cast<int64_t>(text.size());
      if (start < 1) start = 1;
      if (static_cast<size_t>(start - 1) >= text.size()) {
        return Value::Str("");
      }
      return Value::Str(text.substr(static_cast<size_t>(start - 1),
                                    static_cast<size_t>(len)));
    }
    if (name_ == "UPPER" || name_ == "LOWER") {
      Value s = args_[0]->Eval(row);
      if (s.is_null()) return Value::Null();
      std::string text = s.ToDisplayString();
      return Value::Str(name_ == "UPPER" ? ToUpper(text) : ToLower(text));
    }
    if (name_ == "ABS") {
      Value v = args_[0]->Eval(row);
      if (v.is_null()) return Value::Null();
      switch (v.kind()) {
        case Value::Kind::kInt:
          return Value::Int(std::abs(v.AsInt()));
        case Value::Kind::kDecimal:
          return Value::Dec(Decimal::FromCents(
              std::abs(v.AsDecimal().cents())));
        default:
          return Value::Dbl(std::abs(v.AsDouble()));
      }
    }
    if (name_ == "ROUND") {
      Value v = args_[0]->Eval(row);
      if (v.is_null()) return Value::Null();
      int64_t digits = args_.size() > 1 ? args_[1]->Eval(row).AsInt() : 0;
      double scale = std::pow(10.0, static_cast<double>(digits));
      return Value::Dbl(std::round(v.AsDouble() * scale) / scale);
    }
    return Value::Null();
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<BoundExpr>> args_;
};

}  // namespace

bool SqlLikeMatch(std::string_view text, const std::string& pattern) {
  return LikeMatch(text, pattern);
}

Value EvalArithmetic(const std::string& op, const Value& a, const Value& b) {
  using K = Value::Kind;
  if (a.is_null() || b.is_null()) return Value::Null();
  // Date +/- days.
  if (a.kind() == K::kDate && b.kind() == K::kInt) {
    if (op == "+") return Value::Dt(a.AsDate().AddDays(
        static_cast<int>(b.AsInt())));
    if (op == "-") return Value::Dt(a.AsDate().AddDays(
        static_cast<int>(-b.AsInt())));
  }
  if (a.kind() == K::kDate && b.kind() == K::kDate && op == "-") {
    return Value::Int(a.AsDate() - b.AsDate());
  }
  if (op == "/") {
    double denom = b.AsDouble();
    if (denom == 0.0) return Value::Null();
    return Value::Dbl(a.AsDouble() / denom);
  }
  // Exact paths first.
  if (a.kind() == K::kInt && b.kind() == K::kInt) {
    int64_t x = a.AsInt();
    int64_t y = b.AsInt();
    if (op == "+") return Value::Int(x + y);
    if (op == "-") return Value::Int(x - y);
    if (op == "*") return Value::Int(x * y);
  }
  if (a.kind() == K::kDecimal && b.kind() == K::kDecimal &&
      (op == "+" || op == "-")) {
    return Value::Dec(op == "+" ? a.AsDecimal() + b.AsDecimal()
                                : a.AsDecimal() - b.AsDecimal());
  }
  if (a.kind() == K::kDecimal && b.kind() == K::kInt) {
    if (op == "*") return Value::Dec(a.AsDecimal() * b.AsInt());
    if (op == "+") return Value::Dec(a.AsDecimal() +
                                     Decimal::FromUnits(b.AsInt()));
    if (op == "-") return Value::Dec(a.AsDecimal() -
                                     Decimal::FromUnits(b.AsInt()));
  }
  if (a.kind() == K::kInt && b.kind() == K::kDecimal) {
    if (op == "*") return Value::Dec(b.AsDecimal() * a.AsInt());
    if (op == "+") return Value::Dec(Decimal::FromUnits(a.AsInt()) +
                                     b.AsDecimal());
    if (op == "-") return Value::Dec(Decimal::FromUnits(a.AsInt()) -
                                     b.AsDecimal());
  }
  // Everything else through double.
  double x = a.AsDouble();
  double y = b.AsDouble();
  if (op == "+") return Value::Dbl(x + y);
  if (op == "-") return Value::Dbl(x - y);
  if (op == "*") return Value::Dbl(x * y);
  return Value::Null();
}

Result<std::unique_ptr<BoundExpr>> BindExpr(const Expr& expr,
                                            const RowSet& scope,
                                            SubqueryEvaluator* subqueries) {
  switch (expr.tag) {
    case Expr::Tag::kLiteral:
      return std::unique_ptr<BoundExpr>(new BoundLiteral(expr.literal));
    case Expr::Tag::kColumnRef: {
      TPCDS_ASSIGN_OR_RETURN(int idx,
                             scope.Resolve(expr.qualifier, expr.name));
      return std::unique_ptr<BoundExpr>(new BoundColumn(idx));
    }
    case Expr::Tag::kUnary: {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> inner,
                             BindExpr(*expr.children[0], scope, subqueries));
      return std::unique_ptr<BoundExpr>(
          new BoundUnary(expr.name, std::move(inner)));
    }
    case Expr::Tag::kBinary: {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> l,
                             BindExpr(*expr.children[0], scope, subqueries));
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> r,
                             BindExpr(*expr.children[1], scope, subqueries));
      return std::unique_ptr<BoundExpr>(
          new BoundBinary(expr.name, std::move(l), std::move(r)));
    }
    case Expr::Tag::kBetween: {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> v,
                             BindExpr(*expr.children[0], scope, subqueries));
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> lo,
                             BindExpr(*expr.children[1], scope, subqueries));
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> hi,
                             BindExpr(*expr.children[2], scope, subqueries));
      return std::unique_ptr<BoundExpr>(new BoundBetween(
          expr.negated, std::move(v), std::move(lo), std::move(hi)));
    }
    case Expr::Tag::kInList: {
      // Constant lists compile to a hash set.
      bool all_literals = true;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (expr.children[i]->tag != Expr::Tag::kLiteral) {
          all_literals = false;
          break;
        }
      }
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> probe,
                             BindExpr(*expr.children[0], scope, subqueries));
      if (all_literals) {
        std::vector<Value> values;
        for (size_t i = 1; i < expr.children.size(); ++i) {
          values.push_back(expr.children[i]->literal);
        }
        return std::unique_ptr<BoundExpr>(
            new BoundInSet(expr.negated, std::move(probe), std::move(values)));
      }
      std::vector<std::unique_ptr<BoundExpr>> exprs;
      exprs.push_back(std::move(probe));
      for (size_t i = 1; i < expr.children.size(); ++i) {
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> e,
                               BindExpr(*expr.children[i], scope, subqueries));
        exprs.push_back(std::move(e));
      }
      return std::unique_ptr<BoundExpr>(
          new BoundInExprList(expr.negated, std::move(exprs)));
    }
    case Expr::Tag::kInSubquery: {
      if (subqueries == nullptr) {
        return Status::NotImplemented("subquery not allowed here");
      }
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> probe,
                             BindExpr(*expr.children[0], scope, subqueries));
      TPCDS_ASSIGN_OR_RETURN(std::vector<Value> values,
                             subqueries->EvaluateColumn(*expr.subquery));
      return std::unique_ptr<BoundExpr>(
          new BoundInSet(expr.negated, std::move(probe), std::move(values)));
    }
    case Expr::Tag::kScalarSubquery: {
      if (subqueries == nullptr) {
        return Status::NotImplemented("subquery not allowed here");
      }
      TPCDS_ASSIGN_OR_RETURN(std::vector<Value> values,
                             subqueries->EvaluateColumn(*expr.subquery));
      Value v = values.empty() ? Value::Null() : values[0];
      return std::unique_ptr<BoundExpr>(new BoundLiteral(std::move(v)));
    }
    case Expr::Tag::kExistsSubquery: {
      if (subqueries == nullptr) {
        return Status::NotImplemented("subquery not allowed here");
      }
      TPCDS_ASSIGN_OR_RETURN(std::vector<Value> values,
                             subqueries->EvaluateColumn(*expr.subquery));
      bool exists = !values.empty();
      return std::unique_ptr<BoundExpr>(
          new BoundLiteral(Value::Bool(expr.negated ? !exists : exists)));
    }
    case Expr::Tag::kIsNull: {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> inner,
                             BindExpr(*expr.children[0], scope, subqueries));
      return std::unique_ptr<BoundExpr>(
          new BoundIsNull(expr.negated, std::move(inner)));
    }
    case Expr::Tag::kLike: {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> text,
                             BindExpr(*expr.children[0], scope, subqueries));
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> pattern,
                             BindExpr(*expr.children[1], scope, subqueries));
      return std::unique_ptr<BoundExpr>(new BoundLike(
          expr.negated, std::move(text), std::move(pattern)));
    }
    case Expr::Tag::kCase: {
      std::vector<std::unique_ptr<BoundExpr>> parts;
      for (const auto& c : expr.children) {
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                               BindExpr(*c, scope, subqueries));
        parts.push_back(std::move(b));
      }
      return std::unique_ptr<BoundExpr>(
          new BoundCase(std::move(parts), expr.case_has_else));
    }
    case Expr::Tag::kCast: {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> inner,
                             BindExpr(*expr.children[0], scope, subqueries));
      return std::unique_ptr<BoundExpr>(
          new BoundCast(expr.cast_type, std::move(inner)));
    }
    case Expr::Tag::kFunction: {
      std::vector<std::unique_ptr<BoundExpr>> args;
      for (const auto& c : expr.children) {
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                               BindExpr(*c, scope, subqueries));
        args.push_back(std::move(b));
      }
      return std::unique_ptr<BoundExpr>(
          new BoundFunction(expr.name, std::move(args)));
    }
    case Expr::Tag::kAggregate:
      return Status::Internal(
          "aggregate not rewritten before binding: " + ExprToString(expr));
    case Expr::Tag::kWindow:
      return Status::Internal(
          "window function not rewritten before binding: " +
          ExprToString(expr));
    case Expr::Tag::kStar:
      return Status::Internal("unexpected * outside COUNT(*)");
  }
  return Status::Internal("unhandled expression tag");
}

std::string ExprToString(const Expr& expr) {
  switch (expr.tag) {
    case Expr::Tag::kLiteral:
      return expr.literal.is_null()
                 ? "NULL"
                 : (expr.literal.kind() == Value::Kind::kString
                        ? "'" + expr.literal.AsString() + "'"
                        : expr.literal.ToDisplayString());
    case Expr::Tag::kColumnRef:
      return expr.qualifier.empty()
                 ? ToLower(expr.name)
                 : ToLower(expr.qualifier) + "." + ToLower(expr.name);
    case Expr::Tag::kStar:
      return "*";
    case Expr::Tag::kBinary:
      return "(" + ExprToString(*expr.children[0]) + " " + expr.name + " " +
             ExprToString(*expr.children[1]) + ")";
    case Expr::Tag::kUnary:
      return expr.name + "(" + ExprToString(*expr.children[0]) + ")";
    case Expr::Tag::kFunction:
    case Expr::Tag::kAggregate: {
      std::string out = ToLower(expr.name) + "(";
      if (expr.distinct) out += "distinct ";
      for (size_t i = 0; i < expr.children.size(); ++i) {
        if (i > 0) out += ",";
        out += ExprToString(*expr.children[i]);
      }
      return out + ")";
    }
    case Expr::Tag::kWindow: {
      std::string out = ToLower(expr.name) + "(";
      for (size_t i = 0; i < expr.children.size(); ++i) {
        if (i > 0) out += ",";
        out += ExprToString(*expr.children[i]);
      }
      out += ") over (partition by ";
      for (size_t i = 0; i < expr.partition_by.size(); ++i) {
        if (i > 0) out += ",";
        out += ExprToString(*expr.partition_by[i]);
      }
      if (!expr.order_by.empty()) {
        out += " order by ";
        for (size_t i = 0; i < expr.order_by.size(); ++i) {
          if (i > 0) out += ",";
          out += ExprToString(*expr.order_by[i]);
          if (expr.order_desc[i]) out += " desc";
        }
      }
      return out + ")";
    }
    case Expr::Tag::kCase: {
      std::string out = "case";
      size_t pairs = expr.case_has_else ? (expr.children.size() - 1) / 2
                                        : expr.children.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " when " + ExprToString(*expr.children[2 * i]) + " then " +
               ExprToString(*expr.children[2 * i + 1]);
      }
      if (expr.case_has_else) {
        out += " else " + ExprToString(*expr.children.back());
      }
      return out + " end";
    }
    case Expr::Tag::kBetween:
      return ExprToString(*expr.children[0]) +
             (expr.negated ? " not between " : " between ") +
             ExprToString(*expr.children[1]) + " and " +
             ExprToString(*expr.children[2]);
    case Expr::Tag::kInList: {
      std::string out = ExprToString(*expr.children[0]) +
                        (expr.negated ? " not in (" : " in (");
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (i > 1) out += ",";
        out += ExprToString(*expr.children[i]);
      }
      return out + ")";
    }
    case Expr::Tag::kInSubquery:
      return ExprToString(*expr.children[0]) +
             (expr.negated ? " not in (<subquery>)" : " in (<subquery>)");
    case Expr::Tag::kScalarSubquery:
      return "(<subquery>)";
    case Expr::Tag::kExistsSubquery:
      return expr.negated ? "not exists(<subquery>)" : "exists(<subquery>)";
    case Expr::Tag::kIsNull:
      return ExprToString(*expr.children[0]) +
             (expr.negated ? " is not null" : " is null");
    case Expr::Tag::kLike:
      return ExprToString(*expr.children[0]) +
             (expr.negated ? " not like " : " like ") +
             ExprToString(*expr.children[1]);
    case Expr::Tag::kCast:
      return "cast(" + ExprToString(*expr.children[0]) + " as " +
             ToLower(expr.cast_type) + ")";
  }
  return "?";
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.tag == Expr::Tag::kAggregate) return true;
  // Window arguments may contain aggregates, but the window itself is
  // evaluated after aggregation; the planner inspects them separately.
  for (const auto& c : expr.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

bool ContainsWindow(const Expr& expr) {
  if (expr.tag == Expr::Tag::kWindow) return true;
  for (const auto& c : expr.children) {
    if (ContainsWindow(*c)) return true;
  }
  return false;
}

}  // namespace tpcds
