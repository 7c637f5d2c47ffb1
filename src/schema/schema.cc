#include "schema/schema.h"

#include <set>
#include <utility>

#include "util/string_util.h"

namespace tpcds {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kIdentifier:
      return "identifier";
    case ColumnType::kInteger:
      return "integer";
    case ColumnType::kDecimal:
      return "decimal";
    case ColumnType::kDate:
      return "date";
    case ColumnType::kChar:
      return "char";
    case ColumnType::kVarchar:
      return "varchar";
  }
  return "unknown";
}

int ColumnDef::MaxFlatWidth() const {
  switch (type) {
    case ColumnType::kIdentifier:
      return 11;  // surrogate keys stay below 10^11 at SF 100000
    case ColumnType::kInteger:
      return 11;
    case ColumnType::kDecimal:
      return 12;  // "-123456.78" class values
    case ColumnType::kDate:
      return 10;  // YYYY-MM-DD
    case ColumnType::kChar:
    case ColumnType::kVarchar:
      return length;
  }
  return 0;
}

int TableDef::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

int TableDef::DeclaredMaxRowBytes() const {
  int bytes = 1;  // newline
  for (const ColumnDef& c : columns) bytes += c.MaxFlatWidth() + 1;
  return bytes;
}

const TableDef* Schema::FindTable(const std::string& name) const {
  int idx = TableIndex(name);
  return idx < 0 ? nullptr : &tables_[idx];
}

int Schema::TableIndex(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

size_t Schema::NumFactTables() const {
  size_t n = 0;
  for (const TableDef& t : tables_) n += t.is_fact() ? 1 : 0;
  return n;
}

size_t Schema::NumDimensionTables() const {
  return tables_.size() - NumFactTables();
}

Status Schema::Validate() const {
  std::set<std::string> table_names;
  for (const TableDef& t : tables_) {
    if (!table_names.insert(t.name).second) {
      return Status::Internal("duplicate table name: " + t.name);
    }
    std::set<std::string> column_names;
    for (const ColumnDef& c : t.columns) {
      if (!column_names.insert(c.name).second) {
        return Status::Internal("duplicate column " + t.name + "." + c.name);
      }
      if (!StartsWith(c.name, t.abbrev + "_") &&
          !StartsWith(c.name, t.abbrev)) {
        return Status::Internal("column prefix mismatch: " + t.name + "." +
                                c.name);
      }
    }
    if (t.primary_key.empty()) {
      return Status::Internal("table without primary key: " + t.name);
    }
    for (const std::string& pk : t.primary_key) {
      if (!t.HasColumn(pk)) {
        return Status::Internal("primary-key column missing: " + t.name +
                                "." + pk);
      }
    }
  }
  for (const TableDef& t : tables_) {
    for (const ForeignKeyDef& fk : t.foreign_keys) {
      const TableDef* target = FindTable(fk.referenced_table);
      if (target == nullptr) {
        return Status::Internal("FK from " + t.name +
                                " references unknown table " +
                                fk.referenced_table);
      }
      if (fk.columns.size() != fk.referenced_columns.size() ||
          fk.columns.empty()) {
        return Status::Internal("malformed FK on " + t.name);
      }
      for (const std::string& c : fk.columns) {
        if (!t.HasColumn(c)) {
          return Status::Internal("FK column missing: " + t.name + "." + c);
        }
      }
      if (fk.referenced_columns != target->primary_key) {
        return Status::Internal("FK from " + t.name + " to " + target->name +
                                " does not reference its primary key");
      }
    }
  }
  return Status::OK();
}

namespace {

/// Fluent helper that keeps the 425-column catalog definition readable.
class TableBuilder {
 public:
  TableBuilder(std::string name, std::string abbrev, TableClass cls,
               MaintenanceClass maint, SchemaPart part) {
    def_.name = std::move(name);
    def_.abbrev = std::move(abbrev);
    def_.table_class = cls;
    def_.maintenance = maint;
    def_.part = part;
  }

  TableBuilder& Key(const std::string& n) {
    return Add(n, ColumnType::kIdentifier, 0);
  }
  TableBuilder& Int(const std::string& n) {
    return Add(n, ColumnType::kInteger, 0);
  }
  TableBuilder& Dec(const std::string& n) {
    return Add(n, ColumnType::kDecimal, 0);
  }
  TableBuilder& Dt(const std::string& n) {
    return Add(n, ColumnType::kDate, 0);
  }
  TableBuilder& Ch(const std::string& n, int len) {
    return Add(n, ColumnType::kChar, len);
  }
  TableBuilder& Vc(const std::string& n, int len) {
    return Add(n, ColumnType::kVarchar, len);
  }

  TableBuilder& Pk(std::vector<std::string> cols) {
    def_.primary_key = std::move(cols);
    for (const std::string& c : def_.primary_key) {
      int idx = def_.ColumnIndex(c);
      if (idx >= 0) def_.columns[idx].nullable = false;
    }
    return *this;
  }

  /// Single-column FK to a dimension's single-column surrogate key.
  TableBuilder& Fk(const std::string& col, const std::string& table,
                   const std::string& ref_col) {
    def_.foreign_keys.push_back({{col}, table, {ref_col}});
    return *this;
  }

  TableBuilder& FkComposite(std::vector<std::string> cols,
                            const std::string& table,
                            std::vector<std::string> ref_cols) {
    def_.foreign_keys.push_back(
        {std::move(cols), table, std::move(ref_cols)});
    return *this;
  }

  TableDef Build() { return std::move(def_); }

 private:
  TableBuilder& Add(const std::string& n, ColumnType t, int len) {
    def_.columns.push_back(ColumnDef{n, t, len, /*nullable=*/true});
    return *this;
  }

  TableDef def_;
};

/// Adds the shared street-address column block (used by customer_address,
/// store, warehouse, call_center, web_site).
TableBuilder& AddAddressBlock(TableBuilder& b, const std::string& prefix) {
  b.Ch(prefix + "_street_number", 10)
      .Vc(prefix + "_street_name", 60)
      .Ch(prefix + "_street_type", 15)
      .Ch(prefix + "_suite_number", 10)
      .Vc(prefix + "_city", 60)
      .Vc(prefix + "_county", 30)
      .Ch(prefix + "_state", 2)
      .Ch(prefix + "_zip", 10)
      .Vc(prefix + "_country", 20)
      .Dec(prefix + "_gmt_offset");
  return b;
}

Schema BuildTpcdsSchema() {
  Schema schema;
  std::vector<TableDef>* tables = schema.mutable_tables();

  // ---------------------------------------------------------------- facts
  {
    TableBuilder b("store_sales", "ss", TableClass::kFact,
                   MaintenanceClass::kFact, SchemaPart::kAdHoc);
    b.Key("ss_sold_date_sk")
        .Key("ss_sold_time_sk")
        .Key("ss_item_sk")
        .Key("ss_customer_sk")
        .Key("ss_cdemo_sk")
        .Key("ss_hdemo_sk")
        .Key("ss_addr_sk")
        .Key("ss_store_sk")
        .Key("ss_promo_sk")
        .Key("ss_ticket_number")
        .Int("ss_quantity")
        .Dec("ss_wholesale_cost")
        .Dec("ss_list_price")
        .Dec("ss_sales_price")
        .Dec("ss_ext_discount_amt")
        .Dec("ss_ext_sales_price")
        .Dec("ss_ext_wholesale_cost")
        .Dec("ss_ext_list_price")
        .Dec("ss_ext_tax")
        .Dec("ss_coupon_amt")
        .Dec("ss_net_paid")
        .Dec("ss_net_paid_inc_tax")
        .Dec("ss_net_profit")
        .Pk({"ss_item_sk", "ss_ticket_number"})
        .Fk("ss_sold_date_sk", "date_dim", "d_date_sk")
        .Fk("ss_sold_time_sk", "time_dim", "t_time_sk")
        .Fk("ss_item_sk", "item", "i_item_sk")
        .Fk("ss_customer_sk", "customer", "c_customer_sk")
        .Fk("ss_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("ss_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("ss_addr_sk", "customer_address", "ca_address_sk")
        .Fk("ss_store_sk", "store", "s_store_sk")
        .Fk("ss_promo_sk", "promotion", "p_promo_sk");
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("store_returns", "sr", TableClass::kFact,
                   MaintenanceClass::kFact, SchemaPart::kAdHoc);
    b.Key("sr_returned_date_sk")
        .Key("sr_return_time_sk")
        .Key("sr_item_sk")
        .Key("sr_customer_sk")
        .Key("sr_cdemo_sk")
        .Key("sr_hdemo_sk")
        .Key("sr_addr_sk")
        .Key("sr_store_sk")
        .Key("sr_reason_sk")
        .Key("sr_ticket_number")
        .Int("sr_return_quantity")
        .Dec("sr_return_amt")
        .Dec("sr_return_tax")
        .Dec("sr_return_amt_inc_tax")
        .Dec("sr_fee")
        .Dec("sr_return_ship_cost")
        .Dec("sr_refunded_cash")
        .Dec("sr_reversed_charge")
        .Dec("sr_store_credit")
        .Dec("sr_net_loss")
        .Pk({"sr_item_sk", "sr_ticket_number"})
        .Fk("sr_returned_date_sk", "date_dim", "d_date_sk")
        .Fk("sr_return_time_sk", "time_dim", "t_time_sk")
        .Fk("sr_item_sk", "item", "i_item_sk")
        .Fk("sr_customer_sk", "customer", "c_customer_sk")
        .Fk("sr_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("sr_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("sr_addr_sk", "customer_address", "ca_address_sk")
        .Fk("sr_store_sk", "store", "s_store_sk")
        .Fk("sr_reason_sk", "reason", "r_reason_sk")
        // Returns join back to the originating sale (paper §2.2:
        // fact-to-fact joins via Ticket Number + Item_sk).
        .FkComposite({"sr_item_sk", "sr_ticket_number"}, "store_sales",
                     {"ss_item_sk", "ss_ticket_number"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("catalog_sales", "cs", TableClass::kFact,
                   MaintenanceClass::kFact, SchemaPart::kReporting);
    b.Key("cs_sold_date_sk")
        .Key("cs_sold_time_sk")
        .Key("cs_ship_date_sk")
        .Key("cs_bill_customer_sk")
        .Key("cs_bill_cdemo_sk")
        .Key("cs_bill_hdemo_sk")
        .Key("cs_bill_addr_sk")
        .Key("cs_ship_customer_sk")
        .Key("cs_ship_cdemo_sk")
        .Key("cs_ship_hdemo_sk")
        .Key("cs_ship_addr_sk")
        .Key("cs_call_center_sk")
        .Key("cs_catalog_page_sk")
        .Key("cs_ship_mode_sk")
        .Key("cs_warehouse_sk")
        .Key("cs_item_sk")
        .Key("cs_promo_sk")
        .Key("cs_order_number")
        .Int("cs_quantity")
        .Dec("cs_wholesale_cost")
        .Dec("cs_list_price")
        .Dec("cs_sales_price")
        .Dec("cs_ext_discount_amt")
        .Dec("cs_ext_sales_price")
        .Dec("cs_ext_wholesale_cost")
        .Dec("cs_ext_list_price")
        .Dec("cs_ext_tax")
        .Dec("cs_coupon_amt")
        .Dec("cs_ext_ship_cost")
        .Dec("cs_net_paid")
        .Dec("cs_net_paid_inc_tax")
        .Dec("cs_net_paid_inc_ship")
        .Dec("cs_net_paid_inc_ship_tax")
        .Dec("cs_net_profit")
        .Pk({"cs_item_sk", "cs_order_number"})
        .Fk("cs_sold_date_sk", "date_dim", "d_date_sk")
        .Fk("cs_sold_time_sk", "time_dim", "t_time_sk")
        .Fk("cs_ship_date_sk", "date_dim", "d_date_sk")
        .Fk("cs_bill_customer_sk", "customer", "c_customer_sk")
        .Fk("cs_bill_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("cs_bill_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("cs_bill_addr_sk", "customer_address", "ca_address_sk")
        .Fk("cs_ship_customer_sk", "customer", "c_customer_sk")
        .Fk("cs_ship_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("cs_ship_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("cs_ship_addr_sk", "customer_address", "ca_address_sk")
        .Fk("cs_call_center_sk", "call_center", "cc_call_center_sk")
        .Fk("cs_catalog_page_sk", "catalog_page", "cp_catalog_page_sk")
        .Fk("cs_ship_mode_sk", "ship_mode", "sm_ship_mode_sk")
        .Fk("cs_warehouse_sk", "warehouse", "w_warehouse_sk")
        .Fk("cs_item_sk", "item", "i_item_sk")
        .Fk("cs_promo_sk", "promotion", "p_promo_sk");
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("catalog_returns", "cr", TableClass::kFact,
                   MaintenanceClass::kFact, SchemaPart::kReporting);
    b.Key("cr_returned_date_sk")
        .Key("cr_returned_time_sk")
        .Key("cr_item_sk")
        .Key("cr_refunded_customer_sk")
        .Key("cr_refunded_cdemo_sk")
        .Key("cr_refunded_hdemo_sk")
        .Key("cr_refunded_addr_sk")
        .Key("cr_returning_customer_sk")
        .Key("cr_returning_cdemo_sk")
        .Key("cr_returning_hdemo_sk")
        .Key("cr_returning_addr_sk")
        .Key("cr_call_center_sk")
        .Key("cr_catalog_page_sk")
        .Key("cr_ship_mode_sk")
        .Key("cr_warehouse_sk")
        .Key("cr_reason_sk")
        .Key("cr_order_number")
        .Int("cr_return_quantity")
        .Dec("cr_return_amount")
        .Dec("cr_return_tax")
        .Dec("cr_return_amt_inc_tax")
        .Dec("cr_fee")
        .Dec("cr_return_ship_cost")
        .Dec("cr_refunded_cash")
        .Dec("cr_reversed_charge")
        .Dec("cr_store_credit")
        .Dec("cr_net_loss")
        .Pk({"cr_item_sk", "cr_order_number"})
        .Fk("cr_returned_date_sk", "date_dim", "d_date_sk")
        .Fk("cr_returned_time_sk", "time_dim", "t_time_sk")
        .Fk("cr_item_sk", "item", "i_item_sk")
        .Fk("cr_refunded_customer_sk", "customer", "c_customer_sk")
        .Fk("cr_refunded_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("cr_refunded_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("cr_refunded_addr_sk", "customer_address", "ca_address_sk")
        .Fk("cr_returning_customer_sk", "customer", "c_customer_sk")
        .Fk("cr_returning_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("cr_returning_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("cr_returning_addr_sk", "customer_address", "ca_address_sk")
        .Fk("cr_call_center_sk", "call_center", "cc_call_center_sk")
        .Fk("cr_catalog_page_sk", "catalog_page", "cp_catalog_page_sk")
        .Fk("cr_ship_mode_sk", "ship_mode", "sm_ship_mode_sk")
        .Fk("cr_warehouse_sk", "warehouse", "w_warehouse_sk")
        .Fk("cr_reason_sk", "reason", "r_reason_sk")
        .FkComposite({"cr_item_sk", "cr_order_number"}, "catalog_sales",
                     {"cs_item_sk", "cs_order_number"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("web_sales", "ws", TableClass::kFact,
                   MaintenanceClass::kFact, SchemaPart::kAdHoc);
    b.Key("ws_sold_date_sk")
        .Key("ws_sold_time_sk")
        .Key("ws_ship_date_sk")
        .Key("ws_item_sk")
        .Key("ws_bill_customer_sk")
        .Key("ws_bill_cdemo_sk")
        .Key("ws_bill_hdemo_sk")
        .Key("ws_bill_addr_sk")
        .Key("ws_ship_customer_sk")
        .Key("ws_ship_cdemo_sk")
        .Key("ws_ship_hdemo_sk")
        .Key("ws_ship_addr_sk")
        .Key("ws_web_page_sk")
        .Key("ws_web_site_sk")
        .Key("ws_ship_mode_sk")
        .Key("ws_warehouse_sk")
        .Key("ws_promo_sk")
        .Key("ws_order_number")
        .Int("ws_quantity")
        .Dec("ws_wholesale_cost")
        .Dec("ws_list_price")
        .Dec("ws_sales_price")
        .Dec("ws_ext_discount_amt")
        .Dec("ws_ext_sales_price")
        .Dec("ws_ext_wholesale_cost")
        .Dec("ws_ext_list_price")
        .Dec("ws_ext_tax")
        .Dec("ws_coupon_amt")
        .Dec("ws_ext_ship_cost")
        .Dec("ws_net_paid")
        .Dec("ws_net_paid_inc_tax")
        .Dec("ws_net_paid_inc_ship")
        .Dec("ws_net_paid_inc_ship_tax")
        .Dec("ws_net_profit")
        .Pk({"ws_item_sk", "ws_order_number"})
        .Fk("ws_sold_date_sk", "date_dim", "d_date_sk")
        .Fk("ws_sold_time_sk", "time_dim", "t_time_sk")
        .Fk("ws_ship_date_sk", "date_dim", "d_date_sk")
        .Fk("ws_item_sk", "item", "i_item_sk")
        .Fk("ws_bill_customer_sk", "customer", "c_customer_sk")
        .Fk("ws_bill_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("ws_bill_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("ws_bill_addr_sk", "customer_address", "ca_address_sk")
        .Fk("ws_ship_customer_sk", "customer", "c_customer_sk")
        .Fk("ws_ship_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("ws_ship_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("ws_ship_addr_sk", "customer_address", "ca_address_sk")
        .Fk("ws_web_page_sk", "web_page", "wp_web_page_sk")
        .Fk("ws_web_site_sk", "web_site", "web_site_sk")
        .Fk("ws_ship_mode_sk", "ship_mode", "sm_ship_mode_sk")
        .Fk("ws_warehouse_sk", "warehouse", "w_warehouse_sk")
        .Fk("ws_promo_sk", "promotion", "p_promo_sk");
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("web_returns", "wr", TableClass::kFact,
                   MaintenanceClass::kFact, SchemaPart::kAdHoc);
    b.Key("wr_returned_date_sk")
        .Key("wr_returned_time_sk")
        .Key("wr_item_sk")
        .Key("wr_refunded_customer_sk")
        .Key("wr_refunded_cdemo_sk")
        .Key("wr_refunded_hdemo_sk")
        .Key("wr_refunded_addr_sk")
        .Key("wr_returning_customer_sk")
        .Key("wr_returning_cdemo_sk")
        .Key("wr_returning_hdemo_sk")
        .Key("wr_returning_addr_sk")
        .Key("wr_web_page_sk")
        .Key("wr_reason_sk")
        .Key("wr_order_number")
        .Int("wr_return_quantity")
        .Dec("wr_return_amt")
        .Dec("wr_return_tax")
        .Dec("wr_return_amt_inc_tax")
        .Dec("wr_fee")
        .Dec("wr_return_ship_cost")
        .Dec("wr_refunded_cash")
        .Dec("wr_reversed_charge")
        .Dec("wr_account_credit")
        .Dec("wr_net_loss")
        .Pk({"wr_item_sk", "wr_order_number"})
        .Fk("wr_returned_date_sk", "date_dim", "d_date_sk")
        .Fk("wr_returned_time_sk", "time_dim", "t_time_sk")
        .Fk("wr_item_sk", "item", "i_item_sk")
        .Fk("wr_refunded_customer_sk", "customer", "c_customer_sk")
        .Fk("wr_refunded_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("wr_refunded_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("wr_refunded_addr_sk", "customer_address", "ca_address_sk")
        .Fk("wr_returning_customer_sk", "customer", "c_customer_sk")
        .Fk("wr_returning_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("wr_returning_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("wr_returning_addr_sk", "customer_address", "ca_address_sk")
        .Fk("wr_web_page_sk", "web_page", "wp_web_page_sk")
        .Fk("wr_reason_sk", "reason", "r_reason_sk")
        .FkComposite({"wr_item_sk", "wr_order_number"}, "web_sales",
                     {"ws_item_sk", "ws_order_number"});
    tables->push_back(b.Build());
  }
  {
    // Inventory is shared between the catalog and web channels (paper §2.2);
    // the catalog channel is the reporting part, so inventory sits there.
    TableBuilder b("inventory", "inv", TableClass::kFact,
                   MaintenanceClass::kFact, SchemaPart::kReporting);
    b.Key("inv_date_sk")
        .Key("inv_item_sk")
        .Key("inv_warehouse_sk")
        .Int("inv_quantity_on_hand")
        .Pk({"inv_date_sk", "inv_item_sk", "inv_warehouse_sk"})
        .Fk("inv_date_sk", "date_dim", "d_date_sk")
        .Fk("inv_item_sk", "item", "i_item_sk")
        .Fk("inv_warehouse_sk", "warehouse", "w_warehouse_sk");
    tables->push_back(b.Build());
  }

  // ----------------------------------------------------------- dimensions
  {
    TableBuilder b("date_dim", "d", TableClass::kDimension,
                   MaintenanceClass::kStatic, SchemaPart::kCommon);
    b.Key("d_date_sk")
        .Ch("d_date_id", 16)
        .Dt("d_date")
        .Int("d_month_seq")
        .Int("d_week_seq")
        .Int("d_quarter_seq")
        .Int("d_year")
        .Int("d_dow")
        .Int("d_moy")
        .Int("d_dom")
        .Int("d_qoy")
        .Int("d_fy_year")
        .Int("d_fy_quarter_seq")
        .Int("d_fy_week_seq")
        .Ch("d_day_name", 9)
        .Ch("d_quarter_name", 6)
        .Ch("d_holiday", 1)
        .Ch("d_weekend", 1)
        .Ch("d_following_holiday", 1)
        .Int("d_first_dom")
        .Int("d_last_dom")
        .Int("d_same_day_ly")
        .Int("d_same_day_lq")
        .Ch("d_current_day", 1)
        .Ch("d_current_week", 1)
        .Ch("d_current_month", 1)
        .Ch("d_current_quarter", 1)
        .Ch("d_current_year", 1)
        .Pk({"d_date_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("time_dim", "t", TableClass::kDimension,
                   MaintenanceClass::kStatic, SchemaPart::kCommon);
    b.Key("t_time_sk")
        .Ch("t_time_id", 16)
        .Int("t_time")
        .Int("t_hour")
        .Int("t_minute")
        .Int("t_second")
        .Ch("t_am_pm", 2)
        .Ch("t_shift", 20)
        .Ch("t_sub_shift", 20)
        .Ch("t_meal_time", 20)
        .Pk({"t_time_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("item", "i", TableClass::kDimension,
                   MaintenanceClass::kHistory, SchemaPart::kCommon);
    b.Key("i_item_sk")
        .Ch("i_item_id", 16)
        .Dt("i_rec_start_date")
        .Dt("i_rec_end_date")
        .Vc("i_item_desc", 200)
        .Dec("i_current_price")
        .Dec("i_wholesale_cost")
        .Int("i_brand_id")
        .Ch("i_brand", 50)
        .Int("i_class_id")
        .Ch("i_class", 50)
        .Int("i_category_id")
        .Ch("i_category", 50)
        .Int("i_manufact_id")
        .Ch("i_manufact", 50)
        .Ch("i_size", 20)
        .Ch("i_formulation", 20)
        .Ch("i_color", 20)
        .Ch("i_units", 10)
        .Ch("i_container", 10)
        .Int("i_manager_id")
        .Ch("i_product_name", 50)
        .Pk({"i_item_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("customer", "c", TableClass::kDimension,
                   MaintenanceClass::kNonHistory, SchemaPart::kCommon);
    b.Key("c_customer_sk")
        .Ch("c_customer_id", 16)
        .Key("c_current_cdemo_sk")
        .Key("c_current_hdemo_sk")
        .Key("c_current_addr_sk")
        .Key("c_first_shipto_date_sk")
        .Key("c_first_sales_date_sk")
        .Ch("c_salutation", 10)
        .Ch("c_first_name", 20)
        .Ch("c_last_name", 30)
        .Ch("c_preferred_cust_flag", 1)
        .Int("c_birth_day")
        .Int("c_birth_month")
        .Int("c_birth_year")
        .Vc("c_birth_country", 20)
        .Ch("c_login", 13)
        .Ch("c_email_address", 50)
        .Key("c_last_review_date_sk")
        .Pk({"c_customer_sk"})
        .Fk("c_current_cdemo_sk", "customer_demographics", "cd_demo_sk")
        .Fk("c_current_hdemo_sk", "household_demographics", "hd_demo_sk")
        .Fk("c_current_addr_sk", "customer_address", "ca_address_sk")
        .Fk("c_first_shipto_date_sk", "date_dim", "d_date_sk")
        .Fk("c_first_sales_date_sk", "date_dim", "d_date_sk")
        .Fk("c_last_review_date_sk", "date_dim", "d_date_sk");
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("customer_address", "ca", TableClass::kDimension,
                   MaintenanceClass::kNonHistory, SchemaPart::kCommon);
    b.Key("ca_address_sk").Ch("ca_address_id", 16);
    AddAddressBlock(b, "ca");
    b.Ch("ca_location_type", 20).Pk({"ca_address_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("customer_demographics", "cd", TableClass::kDimension,
                   MaintenanceClass::kStatic, SchemaPart::kCommon);
    b.Key("cd_demo_sk")
        .Ch("cd_gender", 1)
        .Ch("cd_marital_status", 1)
        .Ch("cd_education_status", 20)
        .Int("cd_purchase_estimate")
        .Ch("cd_credit_rating", 10)
        .Int("cd_dep_count")
        .Int("cd_dep_employed_count")
        .Int("cd_dep_college_count")
        .Pk({"cd_demo_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("household_demographics", "hd", TableClass::kDimension,
                   MaintenanceClass::kStatic, SchemaPart::kCommon);
    b.Key("hd_demo_sk")
        .Key("hd_income_band_sk")
        .Ch("hd_buy_potential", 15)
        .Int("hd_dep_count")
        .Int("hd_vehicle_count")
        .Pk({"hd_demo_sk"})
        .Fk("hd_income_band_sk", "income_band", "ib_income_band_sk");
    tables->push_back(b.Build());
  }
  {
    // Income Band: the innermost snowflake layer (normalised out of
    // household demographics, paper Fig. 1).
    TableBuilder b("income_band", "ib", TableClass::kDimension,
                   MaintenanceClass::kStatic, SchemaPart::kCommon);
    b.Key("ib_income_band_sk")
        .Int("ib_lower_bound")
        .Int("ib_upper_bound")
        .Pk({"ib_income_band_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("store", "s", TableClass::kDimension,
                   MaintenanceClass::kHistory, SchemaPart::kAdHoc);
    b.Key("s_store_sk")
        .Ch("s_store_id", 16)
        .Dt("s_rec_start_date")
        .Dt("s_rec_end_date")
        .Key("s_closed_date_sk")
        .Vc("s_store_name", 50)
        .Int("s_number_employees")
        .Int("s_floor_space")
        .Ch("s_hours", 20)
        .Vc("s_manager", 40)
        .Int("s_market_id")
        .Vc("s_geography_class", 100)
        .Vc("s_market_desc", 100)
        .Vc("s_market_manager", 40)
        .Int("s_division_id")
        .Vc("s_division_name", 50)
        .Int("s_company_id")
        .Vc("s_company_name", 50);
    AddAddressBlock(b, "s");
    b.Dec("s_tax_percentage")
        .Pk({"s_store_sk"})
        .Fk("s_closed_date_sk", "date_dim", "d_date_sk");
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("promotion", "p", TableClass::kDimension,
                   MaintenanceClass::kNonHistory, SchemaPart::kCommon);
    b.Key("p_promo_sk")
        .Ch("p_promo_id", 16)
        .Key("p_start_date_sk")
        .Key("p_end_date_sk")
        .Key("p_item_sk")
        .Dec("p_cost")
        .Int("p_response_target")
        .Ch("p_promo_name", 50)
        .Ch("p_channel_dmail", 1)
        .Ch("p_channel_email", 1)
        .Ch("p_channel_catalog", 1)
        .Ch("p_channel_tv", 1)
        .Ch("p_channel_radio", 1)
        .Ch("p_channel_press", 1)
        .Ch("p_channel_event", 1)
        .Ch("p_channel_demo", 1)
        .Vc("p_channel_details", 100)
        .Ch("p_purpose", 15)
        .Ch("p_discount_active", 1)
        .Pk({"p_promo_sk"})
        .Fk("p_start_date_sk", "date_dim", "d_date_sk")
        .Fk("p_end_date_sk", "date_dim", "d_date_sk")
        .Fk("p_item_sk", "item", "i_item_sk");
    tables->push_back(b.Build());
  }
  {
    // Reason participates only in the return fact tables (paper Fig. 1).
    TableBuilder b("reason", "r", TableClass::kDimension,
                   MaintenanceClass::kStatic, SchemaPart::kCommon);
    b.Key("r_reason_sk")
        .Ch("r_reason_id", 16)
        .Ch("r_reason_desc", 100)
        .Pk({"r_reason_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("ship_mode", "sm", TableClass::kDimension,
                   MaintenanceClass::kStatic, SchemaPart::kCommon);
    b.Key("sm_ship_mode_sk")
        .Ch("sm_ship_mode_id", 16)
        .Ch("sm_type", 30)
        .Ch("sm_code", 10)
        .Ch("sm_carrier", 20)
        .Ch("sm_contract", 20)
        .Pk({"sm_ship_mode_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("warehouse", "w", TableClass::kDimension,
                   MaintenanceClass::kNonHistory, SchemaPart::kCommon);
    b.Key("w_warehouse_sk")
        .Ch("w_warehouse_id", 16)
        .Vc("w_warehouse_name", 20)
        .Int("w_warehouse_sq_ft");
    AddAddressBlock(b, "w");
    b.Pk({"w_warehouse_sk"});
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("call_center", "cc", TableClass::kDimension,
                   MaintenanceClass::kHistory, SchemaPart::kReporting);
    b.Key("cc_call_center_sk")
        .Ch("cc_call_center_id", 16)
        .Dt("cc_rec_start_date")
        .Dt("cc_rec_end_date")
        .Key("cc_closed_date_sk")
        .Key("cc_open_date_sk")
        .Vc("cc_name", 50)
        .Vc("cc_class", 50)
        .Int("cc_employees")
        .Int("cc_sq_ft")
        .Ch("cc_hours", 20)
        .Vc("cc_manager", 40)
        .Int("cc_mkt_id")
        .Ch("cc_mkt_class", 50)
        .Vc("cc_mkt_desc", 100)
        .Vc("cc_market_manager", 40)
        .Int("cc_division")
        .Vc("cc_division_name", 50)
        .Int("cc_company")
        .Ch("cc_company_name", 50);
    AddAddressBlock(b, "cc");
    b.Dec("cc_tax_percentage")
        .Pk({"cc_call_center_sk"})
        .Fk("cc_closed_date_sk", "date_dim", "d_date_sk")
        .Fk("cc_open_date_sk", "date_dim", "d_date_sk");
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("catalog_page", "cp", TableClass::kDimension,
                   MaintenanceClass::kNonHistory, SchemaPart::kReporting);
    b.Key("cp_catalog_page_sk")
        .Ch("cp_catalog_page_id", 16)
        .Key("cp_start_date_sk")
        .Key("cp_end_date_sk")
        .Vc("cp_department", 50)
        .Int("cp_catalog_number")
        .Int("cp_catalog_page_number")
        .Vc("cp_description", 100)
        .Vc("cp_type", 100)
        .Pk({"cp_catalog_page_sk"})
        .Fk("cp_start_date_sk", "date_dim", "d_date_sk")
        .Fk("cp_end_date_sk", "date_dim", "d_date_sk");
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("web_page", "wp", TableClass::kDimension,
                   MaintenanceClass::kHistory, SchemaPart::kAdHoc);
    b.Key("wp_web_page_sk")
        .Ch("wp_web_page_id", 16)
        .Dt("wp_rec_start_date")
        .Dt("wp_rec_end_date")
        .Key("wp_creation_date_sk")
        .Key("wp_access_date_sk")
        .Ch("wp_autogen_flag", 1)
        .Key("wp_customer_sk")
        .Vc("wp_url", 100)
        .Ch("wp_type", 50)
        .Int("wp_char_count")
        .Int("wp_link_count")
        .Int("wp_image_count")
        .Int("wp_max_ad_count")
        .Pk({"wp_web_page_sk"})
        .Fk("wp_creation_date_sk", "date_dim", "d_date_sk")
        .Fk("wp_access_date_sk", "date_dim", "d_date_sk")
        .Fk("wp_customer_sk", "customer", "c_customer_sk");
    tables->push_back(b.Build());
  }
  {
    TableBuilder b("web_site", "web", TableClass::kDimension,
                   MaintenanceClass::kHistory, SchemaPart::kAdHoc);
    b.Key("web_site_sk")
        .Ch("web_site_id", 16)
        .Dt("web_rec_start_date")
        .Dt("web_rec_end_date")
        .Vc("web_name", 50)
        .Key("web_open_date_sk")
        .Key("web_close_date_sk")
        .Vc("web_class", 50)
        .Vc("web_manager", 40)
        .Int("web_mkt_id")
        .Vc("web_mkt_class", 50)
        .Vc("web_mkt_desc", 100)
        .Vc("web_market_manager", 40)
        .Int("web_company_id")
        .Ch("web_company_name", 50);
    AddAddressBlock(b, "web");
    b.Dec("web_tax_percentage")
        .Pk({"web_site_sk"})
        .Fk("web_open_date_sk", "date_dim", "d_date_sk")
        .Fk("web_close_date_sk", "date_dim", "d_date_sk");
    tables->push_back(b.Build());
  }

  return schema;
}

}  // namespace

const Schema& TpcdsSchema() {
  static const Schema& schema = *new Schema(BuildTpcdsSchema());
  return schema;
}

}  // namespace tpcds
