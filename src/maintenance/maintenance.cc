#include "maintenance/maintenance.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "dsgen/generators_internal.h"
#include "dsgen/keys.h"
#include "schema/schema.h"
#include "scaling/scaling.h"
#include "util/fault.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

/// Per-dimension maintenance metadata: the business-key column and, for
/// history-keeping dimensions, the revision-validity columns.
struct DimensionSpec {
  const char* business_key;
  const char* rec_start;  // nullptr for non-history dimensions
  const char* rec_end;
};

Result<DimensionSpec> SpecForDimension(const std::string& table) {
  if (table == "item") return DimensionSpec{"i_item_id", "i_rec_start_date",
                                            "i_rec_end_date"};
  if (table == "store") return DimensionSpec{"s_store_id", "s_rec_start_date",
                                             "s_rec_end_date"};
  if (table == "web_site") {
    return DimensionSpec{"web_site_id", "web_rec_start_date",
                         "web_rec_end_date"};
  }
  if (table == "call_center") {
    return DimensionSpec{"cc_call_center_id", "cc_rec_start_date",
                         "cc_rec_end_date"};
  }
  if (table == "web_page") {
    return DimensionSpec{"wp_web_page_id", "wp_rec_start_date",
                         "wp_rec_end_date"};
  }
  if (table == "customer") return DimensionSpec{"c_customer_id", nullptr,
                                                nullptr};
  if (table == "customer_address") {
    return DimensionSpec{"ca_address_id", nullptr, nullptr};
  }
  if (table == "promotion") return DimensionSpec{"p_promo_id", nullptr,
                                                 nullptr};
  return Status::InvalidArgument("no maintenance spec for " + table);
}

/// Deterministically selects `want` distinct business keys of `table`.
Result<std::vector<std::string>> PickBusinessKeys(EngineTable* table,
                                                  int bk_col, int64_t want,
                                                  uint64_t seed) {
  const EngineTable::StringIndex& index = table->GetOrBuildStringIndex(bk_col);
  std::vector<std::string> keys;
  keys.reserve(index.size());
  for (const auto& [key, rows] : index) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  if (static_cast<int64_t>(keys.size()) <= want) return keys;
  RngStream rng(seed);
  // Partial Fisher-Yates: the first `want` slots become the sample.
  for (int64_t i = 0; i < want; ++i) {
    int64_t j = rng.UniformInt(i, static_cast<int64_t>(keys.size()) - 1);
    std::swap(keys[static_cast<size_t>(i)], keys[static_cast<size_t>(j)]);
  }
  keys.resize(static_cast<size_t>(want));
  return keys;
}

/// The "current date" stamped on revisions created by refresh `cycle`.
Date RefreshDate(int cycle) {
  return ScalingModel::SalesEndDate().AddDays(cycle);
}

/// Mutates the changeable attributes of a dimension row copy. Decimal
/// columns drift by +5%; the mutation is the "changed fields" payload of
/// the update record (Figs. 8/9).
void DriftAttributes(EngineTable* table, std::vector<Value>* row) {
  for (size_t c = 0; c < table->num_columns(); ++c) {
    const EngineTable::ColumnMeta& meta = table->column_meta(c);
    if (meta.type == ColumnType::kDecimal && !(*row)[c].is_null()) {
      (*row)[c] = Value::Dec((*row)[c].AsDecimal().MultipliedBy(1.05));
    }
  }
}

struct ChannelColumns {
  const char* sales_table;
  const char* returns_table;
  const char* sales_item;
  const char* sales_customer;
  const char* sales_date;
  const char* returns_item;
  const char* returns_customer;
};

Result<ChannelColumns> ColumnsForChannel(const std::string& channel) {
  if (channel == "store") {
    return ChannelColumns{"store_sales", "store_returns", "ss_item_sk",
                          "ss_customer_sk", "ss_sold_date_sk", "sr_item_sk",
                          "sr_customer_sk"};
  }
  if (channel == "catalog") {
    return ChannelColumns{"catalog_sales",      "catalog_returns",
                          "cs_item_sk",         "cs_bill_customer_sk",
                          "cs_sold_date_sk",    "cr_item_sk",
                          "cr_refunded_customer_sk"};
  }
  if (channel == "web") {
    return ChannelColumns{"web_sales",       "web_returns",
                          "ws_item_sk",      "ws_bill_customer_sk",
                          "ws_sold_date_sk", "wr_item_sk",
                          "wr_refunded_customer_sk"};
  }
  return Status::InvalidArgument("unknown channel: " + channel);
}

}  // namespace

double MaintenanceReport::TotalSeconds() const {
  double total = 0.0;
  for (const MaintenanceOpResult& op : operations) total += op.seconds;
  return total;
}

int64_t MaintenanceReport::TotalRows() const {
  int64_t total = 0;
  for (const MaintenanceOpResult& op : operations) total += op.rows_affected;
  return total;
}

std::pair<Date, Date> RefreshWindow(int refresh_cycle) {
  Date end = ScalingModel::SalesEndDate().AddDays(-7 * (refresh_cycle - 1));
  Date begin = end.AddDays(-6);
  return {begin, end};
}

Result<int64_t> UpdateHistoryKeepingDimension(Database* db,
                                              const std::string& table_name,
                                              int64_t num_updates,
                                              uint64_t seed,
                                              WalSession* wal) {
  WalSession local(nullptr);
  WalSession* session = wal != nullptr ? wal : &local;
  EngineTable* table = db->FindTable(table_name);
  if (table == nullptr) return Status::NotFound(table_name);
  TPCDS_ASSIGN_OR_RETURN(DimensionSpec spec, SpecForDimension(table_name));
  if (spec.rec_end == nullptr) {
    return Status::InvalidArgument(table_name + " is not history-keeping");
  }
  int bk_col = table->ColumnIndex(spec.business_key);
  int start_col = table->ColumnIndex(spec.rec_start);
  int end_col = table->ColumnIndex(spec.rec_end);
  if (bk_col < 0 || start_col < 0 || end_col < 0) {
    return Status::Internal("maintenance columns missing on " + table_name);
  }

  TPCDS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                         PickBusinessKeys(table, bk_col, num_updates, seed));
  // Gather the open revision of every picked key *before* mutating: the
  // first SetValue invalidates the index.
  std::vector<int64_t> open_rows;
  open_rows.reserve(keys.size());
  {
    const EngineTable::StringIndex& index =
        table->GetOrBuildStringIndex(bk_col);
    for (const std::string& key : keys) {
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (int64_t row : it->second) {
        if (table->GetValue(row, end_col).is_null()) {
          open_rows.push_back(row);
          break;
        }
      }
    }
  }

  // Fig. 9: close the open revision, insert the successor revision.
  Date today = RefreshDate(1);
  int64_t max_sk = 0;
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    max_sk = std::max(max_sk, table->GetValue(r, 0).AsInt());
  }
  int64_t touched = 0;
  for (int64_t row : open_rows) {
    std::vector<Value> revision;
    revision.reserve(table->num_columns());
    for (size_t c = 0; c < table->num_columns(); ++c) {
      revision.push_back(table->GetValue(row, static_cast<int>(c)));
    }
    TPCDS_RETURN_NOT_OK(
        session->SetCell(table, row, end_col, Value::Dt(today.AddDays(-1))));
    revision[0] = Value::Int(++max_sk);
    revision[static_cast<size_t>(start_col)] = Value::Dt(today);
    revision[static_cast<size_t>(end_col)] = Value::Null();
    DriftAttributes(table, &revision);
    TPCDS_RETURN_NOT_OK(session->AppendRowValues(table, revision));
    touched += 2;
  }
  return touched;
}

Result<int64_t> UpdateNonHistoryDimension(Database* db,
                                          const std::string& table_name,
                                          int64_t num_updates,
                                          uint64_t seed, WalSession* wal) {
  WalSession local(nullptr);
  WalSession* session = wal != nullptr ? wal : &local;
  EngineTable* table = db->FindTable(table_name);
  if (table == nullptr) return Status::NotFound(table_name);
  TPCDS_ASSIGN_OR_RETURN(DimensionSpec spec, SpecForDimension(table_name));
  int bk_col = table->ColumnIndex(spec.business_key);
  if (bk_col < 0) return Status::Internal("no business key on " + table_name);

  TPCDS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                         PickBusinessKeys(table, bk_col, num_updates, seed));
  std::vector<int64_t> rows;
  rows.reserve(keys.size());
  {
    const EngineTable::StringIndex& index =
        table->GetOrBuildStringIndex(bk_col);
    for (const std::string& key : keys) {
      auto it = index.find(key);
      if (it != index.end() && !it->second.empty()) {
        rows.push_back(it->second.front());
      }
    }
  }
  // Fig. 8: overwrite changed fields in place.
  int64_t updated = 0;
  for (int64_t row : rows) {
    std::vector<Value> copy;
    copy.reserve(table->num_columns());
    for (size_t c = 0; c < table->num_columns(); ++c) {
      copy.push_back(table->GetValue(row, static_cast<int>(c)));
    }
    DriftAttributes(table, &copy);
    // Also touch one non-key text field so non-decimal tables change too.
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const EngineTable::ColumnMeta& meta = table->column_meta(c);
      if (meta.type == ColumnType::kChar && meta.name.ends_with("_flag")) {
        const Value& v = copy[c];
        copy[c] = Value::Str(!v.is_null() && v.AsString() == "Y" ? "N" : "Y");
        break;
      }
    }
    for (size_t c = 1; c < table->num_columns(); ++c) {
      if (!(copy[c].is_null() &&
            table->GetValue(row, static_cast<int>(c)).is_null())) {
        TPCDS_RETURN_NOT_OK(
            session->SetCell(table, row, static_cast<int>(c), copy[c]));
      }
    }
    ++updated;
  }
  (void)seed;
  return updated;
}

Result<int64_t> InsertFactRefresh(Database* db, const std::string& channel,
                                  const MaintenanceOptions& options,
                                  WalSession* wal) {
  WalSession local(nullptr);
  WalSession* session = wal != nullptr ? wal : &local;
  TPCDS_ASSIGN_OR_RETURN(ChannelColumns cols, ColumnsForChannel(channel));
  EngineTable* sales = db->FindTable(cols.sales_table);
  EngineTable* returns = db->FindTable(cols.returns_table);
  EngineTable* item = db->FindTable("item");
  EngineTable* customer = db->FindTable("customer");
  if (sales == nullptr || returns == nullptr || item == nullptr ||
      customer == nullptr) {
    return Status::NotFound("tables missing for channel " + channel);
  }

  GeneratorOptions gen;
  gen.scale_factor = options.scale_factor;
  gen.master_seed = options.seed;
  int64_t initial_tickets = internal_dsgen::ChannelNumUnits(gen, channel);
  int64_t add = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(initial_tickets) *
                              options.refresh_fraction));
  // Cycle c generates tickets [initial + (c-1)*add, initial + c*add): a
  // fresh, deterministic, non-overlapping slice of the ticket space.
  int64_t first = initial_tickets + (options.refresh_cycle - 1) * add;

  SalesOverrides overrides;
  overrides.first_ticket_number = 1;  // ticket number = override base + index
  overrides.date_window = RefreshWindow(options.refresh_cycle);

  // The extraction step (E of ETL) is represented as generated flat rows.
  MemoryRowSink sales_rows;
  MemoryRowSink returns_rows;
  TPCDS_RETURN_NOT_OK(internal_dsgen::GenerateChannelWithOverrides(
      gen, channel, first, add, overrides, &sales_rows, &returns_rows));

  // Business-key translation (Fig. 10). The generator references the
  // *initial* dimension population by surrogate key; the update file
  // carries business keys instead, and loading resolves them against the
  // *current* dimension state — including revisions created by the SCD
  // updates that ran earlier in this maintenance cycle.
  int item_bk_col = item->ColumnIndex("i_item_id");
  int item_end_col = item->ColumnIndex("i_rec_end_date");
  int cust_bk_col = customer->ColumnIndex("c_customer_id");
  const EngineTable::StringIndex& item_index =
      item->GetOrBuildStringIndex(item_bk_col);
  const EngineTable::StringIndex& cust_index =
      customer->GetOrBuildStringIndex(cust_bk_col);

  auto translate_item = [&](const std::string& surrogate_text)
      -> Result<std::string> {
    if (surrogate_text.empty()) return surrogate_text;
    int64_t original_sk = std::strtoll(surrogate_text.c_str(), nullptr, 10);
    // Extract: surrogate -> business key (initial rows are append-ordered,
    // so the initial surrogate k lives at row k-1). The key is probed as a
    // string_view straight out of column storage — the transparent index
    // avoids materialising a std::string per lookup.
    std::string_view bk = item->column(static_cast<size_t>(item_bk_col))
                              .Str(static_cast<size_t>(original_sk - 1));
    // Load: business key -> most current surrogate (rec_end_date IS NULL).
    auto it = item_index.find(bk);
    if (it == item_index.end()) {
      return Status::Internal("unknown item business key " +
                              std::string(bk));
    }
    for (int64_t row : it->second) {
      if (item->GetValue(row, item_end_col).is_null()) {
        return std::to_string(item->GetValue(row, 0).AsInt());
      }
    }
    return Status::Internal("no open revision for item " + std::string(bk));
  };
  auto translate_customer = [&](const std::string& surrogate_text)
      -> Result<std::string> {
    if (surrogate_text.empty()) return surrogate_text;
    int64_t original_sk = std::strtoll(surrogate_text.c_str(), nullptr, 10);
    std::string_view bk = customer->column(static_cast<size_t>(cust_bk_col))
                              .Str(static_cast<size_t>(original_sk - 1));
    auto it = cust_index.find(bk);
    if (it == cust_index.end() || it->second.empty()) {
      return Status::Internal("unknown customer business key " +
                              std::string(bk));
    }
    return std::to_string(customer->GetValue(it->second.front(), 0).AsInt());
  };

  int sales_item_col = sales->ColumnIndex(cols.sales_item);
  int sales_cust_col = sales->ColumnIndex(cols.sales_customer);
  int returns_item_col = returns->ColumnIndex(cols.returns_item);
  int returns_cust_col = returns->ColumnIndex(cols.returns_customer);

  // Ticket numbers are already unique: the generator numbers refresh
  // tickets beyond the initial population's 1..initial_tickets range.
  // Translation can collapse two line items of one ticket onto the same
  // surrogate (two *revisions* of one item resolve to the single open
  // revision), so de-duplicate on the (item, ticket) primary key.
  const Schema& schema = TpcdsSchema();
  const TableDef* sales_def = schema.FindTable(cols.sales_table);
  const TableDef* returns_def = schema.FindTable(cols.returns_table);
  int sales_ticket_col = sales->ColumnIndex(sales_def->primary_key[1]);
  int returns_ticket_col = returns->ColumnIndex(returns_def->primary_key[1]);
  auto pair_key = [](const std::string& item, const std::string& ticket) {
    return Mix64(static_cast<uint64_t>(
               std::strtoll(item.c_str(), nullptr, 10))) ^
           static_cast<uint64_t>(std::strtoll(ticket.c_str(), nullptr, 10));
  };
  std::unordered_set<uint64_t> seen_sales;
  std::unordered_set<uint64_t> seen_returns;

  int64_t inserted = 0;
  for (auto& fields : sales_rows.mutable_rows()) {
    TPCDS_ASSIGN_OR_RETURN(
        fields[static_cast<size_t>(sales_item_col)],
        translate_item(fields[static_cast<size_t>(sales_item_col)]));
    TPCDS_ASSIGN_OR_RETURN(
        fields[static_cast<size_t>(sales_cust_col)],
        translate_customer(fields[static_cast<size_t>(sales_cust_col)]));
    if (!seen_sales
             .insert(pair_key(fields[static_cast<size_t>(sales_item_col)],
                              fields[static_cast<size_t>(sales_ticket_col)]))
             .second) {
      continue;  // primary-key duplicate after revision collapse
    }
    TPCDS_RETURN_NOT_OK(session->AppendRowStrings(sales, fields));
    ++inserted;
  }
  for (auto& fields : returns_rows.mutable_rows()) {
    TPCDS_ASSIGN_OR_RETURN(
        fields[static_cast<size_t>(returns_item_col)],
        translate_item(fields[static_cast<size_t>(returns_item_col)]));
    TPCDS_ASSIGN_OR_RETURN(
        fields[static_cast<size_t>(returns_cust_col)],
        translate_customer(fields[static_cast<size_t>(returns_cust_col)]));
    if (!seen_returns
             .insert(pair_key(
                 fields[static_cast<size_t>(returns_item_col)],
                 fields[static_cast<size_t>(returns_ticket_col)]))
             .second) {
      continue;
    }
    TPCDS_RETURN_NOT_OK(session->AppendRowStrings(returns, fields));
    ++inserted;
  }
  return inserted;
}

Result<int64_t> DeleteFactRange(Database* db, const std::string& channel,
                                const MaintenanceOptions& options,
                                WalSession* wal) {
  WalSession local(nullptr);
  WalSession* session = wal != nullptr ? wal : &local;
  TPCDS_ASSIGN_OR_RETURN(ChannelColumns cols, ColumnsForChannel(channel));
  EngineTable* sales = db->FindTable(cols.sales_table);
  EngineTable* returns = db->FindTable(cols.returns_table);
  if (sales == nullptr || returns == nullptr) {
    return Status::NotFound("tables missing for channel " + channel);
  }
  auto [begin, end] = RefreshWindow(options.refresh_cycle);
  int date_col = sales->ColumnIndex(cols.sales_date);
  std::vector<int64_t> doomed = sales->FindRowsIntBetween(
      date_col, DateToSk(begin), DateToSk(end));

  // Returns of deleted sales go too, keyed by (item, ticket) — preserving
  // the fact-to-fact integrity the tests verify.
  const Schema& schema = TpcdsSchema();
  const TableDef* sales_def = schema.FindTable(cols.sales_table);
  const TableDef* returns_def = schema.FindTable(cols.returns_table);
  int sales_item_col = sales->ColumnIndex(sales_def->primary_key[0]);
  int sales_ticket_col = sales->ColumnIndex(sales_def->primary_key[1]);
  int returns_item_col = returns->ColumnIndex(returns_def->primary_key[0]);
  int returns_ticket_col = returns->ColumnIndex(returns_def->primary_key[1]);
  std::unordered_set<uint64_t> doomed_keys;
  doomed_keys.reserve(doomed.size());
  for (int64_t row : doomed) {
    uint64_t item = static_cast<uint64_t>(
        sales->GetValue(row, sales_item_col).AsInt());
    uint64_t ticket = static_cast<uint64_t>(
        sales->GetValue(row, sales_ticket_col).AsInt());
    doomed_keys.insert(Mix64(item) ^ ticket);
  }
  std::vector<int64_t> doomed_returns;
  for (int64_t row = 0; row < returns->num_rows(); ++row) {
    uint64_t item = static_cast<uint64_t>(
        returns->GetValue(row, returns_item_col).AsInt());
    uint64_t ticket = static_cast<uint64_t>(
        returns->GetValue(row, returns_ticket_col).AsInt());
    if (doomed_keys.count(Mix64(item) ^ ticket) != 0) {
      doomed_returns.push_back(row);
    }
  }
  TPCDS_ASSIGN_OR_RETURN(int64_t removed,
                         session->DeleteRows(returns, doomed_returns));
  TPCDS_ASSIGN_OR_RETURN(int64_t sales_removed,
                         session->DeleteRows(sales, doomed));
  return removed + sales_removed;
}

Status RunDataMaintenance(Database* db, const MaintenanceOptions& options,
                          MaintenanceReport* report, WalWriter* wal) {
  report->operations.clear();

  // Every mutation flows through one WalSession, which records logical
  // before-images in memory (and in the WAL when a writer is attached).
  // Rollback reverts exactly the rows an operation changed — the
  // whole-table Clone snapshots this replaces copied all 12 mutated
  // tables up front, regardless of how little the run would touch.
  WalSession session(wal);

  auto run_op = [&](const std::string& name, auto&& fn) -> Status {
    if (!options.operations.empty() &&
        std::find(options.operations.begin(), options.operations.end(),
                  name) == options.operations.end()) {
      return Status::OK();  // filtered out by options.operations
    }
    const size_t mark = session.Mark();
    Status status = [&]() -> Status {
      TPCDS_FAULT_POINT("maintenance");
      Stopwatch timer;
      TPCDS_RETURN_NOT_OK(session.BeginOp(name));
      Result<int64_t> rows = fn();
      if (!rows.ok()) return rows.status();
      // The commit marker makes the operation durable; its cost is part
      // of the operation's reported time.
      TPCDS_RETURN_NOT_OK(session.CommitOp(name, *rows));
      report->operations.push_back(
          MaintenanceOpResult{name, *rows, timer.ElapsedSeconds()});
      return Status::OK();
    }();
    if (!status.ok() && wal != nullptr) {
      // Per-operation atomicity under durability: undo only this
      // operation's tail. Committed predecessors stay in memory and in
      // the log; recovery replays exactly them.
      TPCDS_RETURN_NOT_OK(session.UndoToMark(mark));
    }
    return status;
  };

  auto apply = [&]() -> Status {
    // 1-3: history-keeping SCD updates (Fig. 9).
    for (const char* dim : {"item", "store", "web_site"}) {
      TPCDS_RETURN_NOT_OK(run_op(StringPrintf("scd_update:%s", dim), [&] {
        return UpdateHistoryKeepingDimension(
            db, dim, options.dimension_updates,
            Mix64(options.seed ^ static_cast<uint64_t>(
                                     options.refresh_cycle)),
            &session);
      }));
    }
    // 4-6: non-history updates (Fig. 8).
    for (const char* dim : {"customer", "customer_address", "promotion"}) {
      TPCDS_RETURN_NOT_OK(run_op(StringPrintf("inplace_update:%s", dim), [&] {
        return UpdateNonHistoryDimension(
            db, dim, options.dimension_updates,
            Mix64(options.seed * 31 ^ static_cast<uint64_t>(
                                          options.refresh_cycle)),
            &session);
      }));
    }
    // 7-9: clustered deletes; 10-12: clustered inserts with key translation
    // (Fig. 10). Deletes run first: the insert refills the emptied window.
    for (const char* channel : {"store", "catalog", "web"}) {
      TPCDS_RETURN_NOT_OK(run_op(StringPrintf("fact_delete:%s", channel), [&] {
        return DeleteFactRange(db, channel, options, &session);
      }));
    }
    for (const char* channel : {"store", "catalog", "web"}) {
      TPCDS_RETURN_NOT_OK(run_op(StringPrintf("fact_insert:%s", channel), [&] {
        return InsertFactRefresh(db, channel, options, &session);
      }));
    }
    return Status::OK();
  };

  Status status = apply();
  if (!status.ok() && wal == nullptr) {
    // No durability attached: the run is atomic as a whole. Unwind every
    // operation (the 12 ops are interdependent — a fact insert resolves
    // keys against SCD revisions created earlier in the same cycle) and
    // clear the report, leaving the database exactly as before.
    TPCDS_RETURN_NOT_OK(session.UndoToMark(0));
    report->operations.clear();
  }
  return status;
}

const std::vector<std::string>& MaintainedTables() {
  static const std::vector<std::string> kTables = {
      // SCD + in-place dimensions.
      "item", "store", "web_site",
      "customer", "customer_address", "promotion",
      // Fact tables touched by the clustered inserts/deletes.
      "store_sales", "store_returns",
      "catalog_sales", "catalog_returns",
      "web_sales", "web_returns",
  };
  return kTables;
}

Status RunMaintenanceGeneration(Database* db,
                                const MaintenanceOptions& options,
                                MaintenanceReport* report, WalWriter* wal,
                                DataFacadeProvider* provider) {
  // Build generation N+1: deep-copy only the 12 mutated tables, share the
  // rest. Concurrent readers holding a facade of generation N are never
  // touched — the fork mutates private clones.
  TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<Database> build,
                         db->ForkForMaintenance(MaintainedTables()));
  Status status = RunDataMaintenance(build.get(), options, report, wal);
  // Publish semantics mirror the in-place path: a WAL-attached run keeps
  // its committed prefix (that is what crash recovery replays, and the
  // recover-verify hash is stated against the live database), a
  // non-durable failure already rolled the fork back to pristine — the
  // swap is then skipped so `db` never even observes the no-op adoption.
  if (status.ok() || wal != nullptr) {
    TPCDS_RETURN_NOT_OK(db->AdoptTablesFrom(build.get()));
    if (provider != nullptr) provider->Publish(db->Snapshot());
  }
  return status;
}

Status RunRefreshDutyCycle(Database* db,
                           const MaintenanceOptions& base_options, int cycles,
                           double period_ms, DutyCycleReport* report,
                           WalWriter* wal, DataFacadeProvider* provider,
                           const std::atomic<bool>* stop) {
  if (cycles < 1) {
    return Status::InvalidArgument("duty cycle needs at least one firing");
  }
  if (period_ms < 0.0) {
    return Status::InvalidArgument("duty cycle period must be >= 0 ms");
  }
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    if (period_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(period_ms));
    }
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    MaintenanceOptions options = base_options;
    options.refresh_cycle = base_options.refresh_cycle + cycle;
    MaintenanceReport cycle_report;
    ++report->cycles_attempted;
    Status status =
        RunMaintenanceGeneration(db, options, &cycle_report, wal, provider);
    for (MaintenanceOpResult& op : cycle_report.operations) {
      report->operations.operations.push_back(std::move(op));
    }
    if (!status.ok()) {
      ++report->cycles_failed;
      report->errors.push_back(status.ToString());
    }
  }
  return Status::OK();
}

}  // namespace tpcds
