#include "digest.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "engine/parser.h"
#include "engine/planner.h"

namespace tpcbench {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv1a(uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

struct OrderKey {
  size_t column = 0;
};

/// Output columns the ORDER BY items name, in order; nullopt when an item
/// is an expression or names no single output column (the order is then
/// not checkable from the answer alone).
std::optional<std::vector<OrderKey>> ResolveOrderKeys(
    const tpcds::SelectStmt& stmt, const std::vector<std::string>& headers) {
  std::vector<OrderKey> keys;
  for (const tpcds::OrderItem& item : stmt.order_by) {
    const tpcds::Expr& e = *item.expr;
    if (e.tag == tpcds::Expr::Tag::kLiteral &&
        e.literal.kind() == tpcds::Value::Kind::kInt) {
      int64_t ordinal = e.literal.AsInt();
      if (ordinal < 1 || ordinal > static_cast<int64_t>(headers.size())) {
        return std::nullopt;
      }
      keys.push_back(OrderKey{static_cast<size_t>(ordinal - 1)});
      continue;
    }
    if (e.tag != tpcds::Expr::Tag::kColumnRef) return std::nullopt;
    const std::string name = Lower(e.name);
    const std::string qualified =
        e.qualifier.empty() ? "" : Lower(e.qualifier) + "." + name;
    std::optional<size_t> match;
    for (size_t i = 0; i < headers.size(); ++i) {
      std::string h = Lower(headers[i]);
      bool hit = qualified.empty()
                     ? (h == name || h.ends_with("." + name))
                     : (h == qualified || h == name);
      if (!hit) continue;
      if (match.has_value()) return std::nullopt;  // ambiguous
      match = i;
    }
    if (!match.has_value()) return std::nullopt;
    keys.push_back(OrderKey{*match});
  }
  return keys;
}

bool KeysTie(const std::vector<tpcds::Value>& a,
             const std::vector<tpcds::Value>& b,
             const std::vector<OrderKey>& keys) {
  for (const OrderKey& k : keys) {
    const tpcds::Value& x = a[k.column];
    const tpcds::Value& y = b[k.column];
    if (x.is_null() || y.is_null()) {
      if (x.is_null() != y.is_null()) return false;
      continue;
    }
    if (tpcds::Value::Compare(x, y) != 0) return false;
  }
  return true;
}

}  // namespace

const char* DigestKindName(DigestKind kind) {
  switch (kind) {
    case DigestKind::kOrdered: return "ordered";
    case DigestKind::kSet: return "set";
    case DigestKind::kCount: return "count";
  }
  return "?";
}

std::string NormalizeValue(const tpcds::Value& value) {
  using Kind = tpcds::Value::Kind;
  switch (value.kind()) {
    case Kind::kNull:
      return "N";
    case Kind::kInt:
      return "i" + std::to_string(value.AsInt());
    case Kind::kDecimal:
      return "d" + std::to_string(value.AsDecimal().cents());
    case Kind::kDouble: {
      double d = value.AsDouble();
      if (d == 0.0) d = 0.0;  // folds -0.0
      char buf[40];
      std::snprintf(buf, sizeof(buf), "f%.9g", d);
      return buf;
    }
    case Kind::kString:
      return "s" + std::to_string(value.AsString().size()) + ":" +
             value.AsString();
    case Kind::kDate:
      return "t" + std::to_string(value.AsDate().jdn());
  }
  return "?";
}

Digest DigestRows(const std::vector<std::vector<tpcds::Value>>& rows,
                  DigestKind kind) {
  Digest d;
  d.rows = static_cast<int64_t>(rows.size());
  if (kind == DigestKind::kCount) return d;
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const auto& row : rows) {
    std::string line;
    for (const tpcds::Value& v : row) {
      line += NormalizeValue(v);
      line += '|';
    }
    lines.push_back(std::move(line));
  }
  if (kind == DigestKind::kSet) std::sort(lines.begin(), lines.end());
  uint64_t h = kFnvOffset;
  for (const std::string& line : lines) h = Fnv1a(h, line + "\n");
  d.hash = h;
  return d;
}

tpcds::Result<DigestKind> ClassifyStatement(
    const tpcds::DataFacade& facade, const std::string& sql,
    const tpcds::QueryResult& result, const tpcds::PlannerOptions& options) {
  TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<tpcds::SelectStmt> stmt,
                         tpcds::ParseSql(sql));
  std::optional<std::vector<OrderKey>> keys =
      ResolveOrderKeys(*stmt, result.columns);
  const bool ordered = keys.has_value() && !keys->empty();
  const int64_t limit = stmt->limit;
  if (limit > 0 && static_cast<int64_t>(result.rows.size()) == limit) {
    if (!ordered) return DigestKind::kCount;
    stmt->limit = -1;
    TPCDS_ASSIGN_OR_RETURN(
        std::shared_ptr<tpcds::RowSet> full,
        tpcds::ExecuteSelect(&facade, *stmt, options));
    if (static_cast<int64_t>(full->rows.size()) > limit &&
        KeysTie(full->rows[static_cast<size_t>(limit - 1)],
                full->rows[static_cast<size_t>(limit)], *keys)) {
      return DigestKind::kCount;
    }
  }
  if (!ordered) return DigestKind::kSet;
  for (size_t i = 1; i < result.rows.size(); ++i) {
    if (KeysTie(result.rows[i - 1], result.rows[i], *keys)) {
      return DigestKind::kSet;
    }
  }
  return DigestKind::kOrdered;
}

tpcds::Status SaveDigests(const std::string& path, uint64_t seed,
                          double scale_factor, const DigestTable& table) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return tpcds::Status::IoError("cannot write " + path);
  out << "# seed=" << seed << " sf=" << scale_factor << "\n";
  for (const auto& [key, answer] : table) {
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64, answer.digest.hash);
    out << key.first << '\t' << key.second << '\t'
        << DigestKindName(answer.kind) << '\t' << answer.digest.rows << '\t'
        << hash << '\n';
  }
  out.close();
  if (!out) return tpcds::Status::IoError("short write: " + path);
  return tpcds::Status::OK();
}

tpcds::Result<DigestTable> LoadDigests(const std::string& path,
                                       uint64_t* seed, double* scale_factor) {
  std::ifstream in(path);
  if (!in) return tpcds::Status::NotFound("no digest file: " + path);
  std::string header;
  std::getline(in, header);
  unsigned long long seed_value = 0;
  if (std::sscanf(header.c_str(), "# seed=%llu sf=%lf", &seed_value,
                  scale_factor) != 2) {
    return tpcds::Status::InvalidArgument("bad digest header in " + path);
  }
  *seed = seed_value;
  DigestTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    int stream = 0;
    int template_id = 0;
    std::string kind;
    ExpectedAnswer answer;
    std::string hash;
    if (!(fields >> stream >> template_id >> kind >> answer.digest.rows >>
          hash)) {
      return tpcds::Status::InvalidArgument("bad digest line: " + line);
    }
    if (kind == "ordered") {
      answer.kind = DigestKind::kOrdered;
    } else if (kind == "set") {
      answer.kind = DigestKind::kSet;
    } else if (kind == "count") {
      answer.kind = DigestKind::kCount;
    } else {
      return tpcds::Status::InvalidArgument("bad digest kind: " + line);
    }
    answer.digest.hash = std::stoull(hash, nullptr, 16);
    table[{stream, template_id}] = answer;
  }
  return table;
}

std::string CompareAnswer(const ExpectedAnswer& expected,
                          const std::vector<std::vector<tpcds::Value>>& rows) {
  Digest got = DigestRows(rows, expected.kind);
  if (got.rows != expected.digest.rows) {
    return "rows " + std::to_string(got.rows) + " != expected " +
           std::to_string(expected.digest.rows);
  }
  if (got.hash != expected.digest.hash) {
    return std::string(DigestKindName(expected.kind)) +
           " content hash differs";
  }
  return "";
}

}  // namespace tpcbench
