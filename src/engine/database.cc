#include "engine/database.h"

#include <algorithm>

#include "dsgen/generator.h"
#include "engine/parser.h"
#include "schema/schema.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// RowSink that feeds generated rows straight into an EngineTable,
/// bypassing the flat-file round trip.
class TableLoadSink : public RowSink {
 public:
  explicit TableLoadSink(EngineTable* table) : table_(table) {}
  Status Append(const std::vector<std::string>& fields) override {
    return table_->AppendRowStrings(fields);
  }

 private:
  EngineTable* table_;
};

std::vector<EngineTable::ColumnMeta> MetasFor(const TableDef& def) {
  std::vector<EngineTable::ColumnMeta> metas;
  metas.reserve(def.columns.size());
  for (const ColumnDef& c : def.columns) {
    metas.push_back(EngineTable::ColumnMeta{c.name, c.type});
  }
  return metas;
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::vector<size_t> widths(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) widths[i] = columns[i].size();
  size_t limit = max_rows == 0 ? rows.size() : std::min(rows.size(), max_rows);
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(limit);
  for (size_t r = 0; r < limit; ++r) {
    std::vector<std::string> fields;
    fields.reserve(columns.size());
    for (size_t c = 0; c < rows[r].size(); ++c) {
      fields.push_back(rows[r][c].ToDisplayString());
      widths[c] = std::max(widths[c], fields.back().size());
    }
    rendered.push_back(std::move(fields));
  }
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    out += StringPrintf("%-*s ", static_cast<int>(widths[c]),
                        columns[c].c_str());
  }
  out += '\n';
  for (const auto& fields : rendered) {
    for (size_t c = 0; c < fields.size(); ++c) {
      out += StringPrintf("%-*s ", static_cast<int>(widths[c]),
                          fields[c].c_str());
    }
    out += '\n';
  }
  if (limit < rows.size()) {
    out += StringPrintf("... (%zu rows total)\n", rows.size());
  }
  return out;
}

std::string QueryResult::ToCsv() const {
  auto field = [](const std::string& text) {
    if (text.find_first_of(",\"\n") == std::string::npos) return text;
    std::string quoted = "\"";
    for (char c : text) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    out += field(columns[c]);
  }
  out += '\n';
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      if (!row[c].is_null()) out += field(row[c].ToDisplayString());
    }
    out += '\n';
  }
  return out;
}

Status Database::CreateTpcdsTables() {
  const Schema& schema = TpcdsSchema();
  for (const TableDef& def : schema.tables()) {
    TPCDS_RETURN_NOT_OK(
        CreateTable(def.name, MetasFor(def), def.table_class));
  }
  return Status::OK();
}

Status Database::CreateTable(const std::string& name,
                             std::vector<EngineTable::ColumnMeta> columns,
                             std::optional<TableClass> table_class) {
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  tables_[name] =
      std::make_shared<EngineTable>(name, std::move(columns), table_class);
  return Status::OK();
}

std::shared_ptr<const DataFacade> Database::Snapshot() const {
  return std::make_shared<DataFacade>(generation_, tables_);
}

Result<std::unique_ptr<Database>> Database::ForkForMaintenance(
    const std::vector<std::string>& cow_tables) const {
  auto fork = std::make_unique<Database>();
  fork->tables_ = tables_;
  fork->generation_ = generation_;
  fork->default_options_ = default_options_;
  for (const std::string& name : cow_tables) {
    auto it = fork->tables_.find(name);
    if (it == fork->tables_.end()) {
      return Status::NotFound("maintenance fork: no such table: " + name);
    }
    it->second = std::shared_ptr<EngineTable>(it->second->Clone());
  }
  return fork;
}

Status Database::AdoptTablesFrom(Database* build) {
  for (const auto& [name, table] : tables_) {
    if (build->tables_.count(name) == 0) {
      return Status::InvalidArgument(
          "generation commit: build is missing table " + name);
    }
  }
  tables_ = build->tables_;
  ++generation_;
  return Status::OK();
}

Status Database::LoadTpcdsData(const GeneratorOptions& options) {
  for (const std::string& table : GeneratorTableNames()) {
    // Returns tables load together with their sales table.
    if (table.ends_with("_returns")) continue;
    if (table.ends_with("_sales")) {
      EngineTable* sales = FindTable(table);
      std::string returns_name =
          table.substr(0, table.size() - 6) + "_returns";
      EngineTable* returns = FindTable(returns_name);
      if (sales == nullptr || returns == nullptr) {
        return Status::NotFound("missing fact tables for " + table);
      }
      TableLoadSink sales_sink(sales);
      TableLoadSink returns_sink(returns);
      TPCDS_RETURN_NOT_OK(GenerateSalesChannel(table, options, &sales_sink,
                                               &returns_sink));
      continue;
    }
    TPCDS_RETURN_NOT_OK(LoadTable(table, options));
  }
  return Status::OK();
}

Status Database::LoadTable(const std::string& name,
                           const GeneratorOptions& options) {
  EngineTable* table = FindTable(name);
  if (table == nullptr) {
    return Status::NotFound("table not created: " + name);
  }
  TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<TableGenerator> gen,
                         MakeGenerator(name, options));
  TableLoadSink sink(table);
  return gen->Generate(&sink);
}

EngineTable* Database::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const EngineTable* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

int64_t Database::TotalRows() const {
  int64_t total = 0;
  for (const auto& [name, table] : tables_) total += table->num_rows();
  return total;
}

Result<QueryResult> Database::Query(const std::string& sql) {
  return Query(sql, default_options_, nullptr);
}

Result<std::string> Database::Explain(const std::string& sql) {
  ExecStats stats;
  TPCDS_ASSIGN_OR_RETURN(QueryResult result,
                         Query(sql, default_options_, &stats));
  std::string out;
  // Physical operator tree, pre-order, with per-operator row counts and
  // self time. Operators elided at run time (memoised duplicates) show
  // their label only.
  for (const ExecStats::OpStat& op : stats.operators) {
    out += "  ";
    out.append(static_cast<size_t>(op.depth) * 2, ' ');
    out += "-> " + op.label;
    if (op.executed) {
      std::string extra;
      if (op.vectorized) extra += ", vec";
      if (op.morsels_pruned > 0) {
        extra += StringPrintf(", %lld morsels pruned",
                              static_cast<long long>(op.morsels_pruned));
      }
      if (op.bloom_rejects > 0) {
        extra += StringPrintf(", %lld bloom rejects",
                              static_cast<long long>(op.bloom_rejects));
      }
      if (op.topk_seen > 0) {
        extra += StringPrintf(", topk: kept %lld of %lld rows",
                              static_cast<long long>(op.topk_kept),
                              static_cast<long long>(op.topk_seen));
      }
      if (op.bytes_touched > 0) {
        extra += StringPrintf(", %lld bytes touched",
                              static_cast<long long>(op.bytes_touched));
      }
      out += StringPrintf(" [%lld -> %lld rows, %.3f ms%s]",
                          static_cast<long long>(op.rows_in),
                          static_cast<long long>(op.rows_out),
                          op.seconds * 1e3, extra.c_str());
    }
    out += "\n";
  }
  out += StringPrintf(
      "  => %zu result rows (scanned %lld, joined %lld, star-pruned %lld, "
      "morsels pruned %lld, bloom rejects %lld, topk kept %lld of %lld, "
      "bytes touched %lld)\n",
      result.rows.size(), static_cast<long long>(stats.rows_scanned),
      static_cast<long long>(stats.rows_joined),
      static_cast<long long>(stats.star_filtered_rows),
      static_cast<long long>(stats.morsels_pruned),
      static_cast<long long>(stats.bloom_rejects),
      static_cast<long long>(stats.topk_kept),
      static_cast<long long>(stats.topk_seen),
      static_cast<long long>(stats.bytes_touched));
  return out;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const PlannerOptions& options,
                                    ExecStats* stats,
                                    QueryGovernor* governor) {
  // Pin one generation for the query's whole lifetime: concurrent
  // generation swaps (data maintenance commits) never change the data a
  // running query sees.
  std::shared_ptr<const DataFacade> facade = Snapshot();
  return QueryFacade(*facade, sql, options, stats, governor);
}

Result<QueryResult> QueryFacade(const DataFacade& facade,
                                const std::string& sql,
                                const PlannerOptions& options,
                                ExecStats* stats, QueryGovernor* governor) {
  TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<SelectStmt> stmt, ParseSql(sql));
  TPCDS_ASSIGN_OR_RETURN(
      std::shared_ptr<RowSet> rs,
      ExecuteSelect(&facade, *stmt, options, stats, governor));
  QueryResult result;
  result.columns.reserve(rs->cols.size());
  for (size_t i = 0; i < rs->cols.size(); ++i) {
    result.columns.push_back(rs->HeaderOf(i));
  }
  result.rows = std::move(rs->rows);
  return result;
}

}  // namespace tpcds
