// Constraint-validation tests: the generated database satisfies every
// declared primary key and foreign key, and keeps satisfying them through
// data maintenance (paper §5.2: "define and validate constraints" is part
// of the load test).

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "engine/audit.h"
#include "schema/schema_stats.h"
#include "maintenance/maintenance.h"

namespace tpcds {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = 0.002;
    ASSERT_TRUE(db_->LoadTpcdsData(options).ok());
  }

  /// Violations reported for the check named exactly `constraint`, or -1
  /// when the report has no such check.
  static int64_t Violations(const AuditReport& report,
                            const std::string& constraint) {
    for (const ConstraintCheck& c : report.checks) {
      if (c.constraint == constraint) return c.violations;
    }
    return -1;
  }

  /// Copies column `col` of row `from` onto row `to`.
  void CopyCell(EngineTable* table, const std::string& col, int64_t from,
                int64_t to) {
    int c = table->ColumnIndex(col);
    ASSERT_GE(c, 0) << col;
    table->SetValue(to, c, table->GetValue(from, c));
  }

  std::unique_ptr<Database> db_;
};

TEST_F(AuditTest, FreshLoadSatisfiesAllConstraints) {
  Result<AuditReport> report = ValidateConstraints(db_.get(), TpcdsSchema());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 24 PK checks + one check per FK.
  SchemaStats stats = ComputeSchemaStats(TpcdsSchema());
  EXPECT_EQ(report->checks.size(),
            24u + static_cast<size_t>(stats.num_foreign_keys));
  EXPECT_EQ(report->TotalViolations(), 0) << report->ToString();
}

TEST_F(AuditTest, ConstraintsSurviveDataMaintenance) {
  MaintenanceOptions options;
  options.scale_factor = 0.002;
  options.refresh_fraction = 0.05;
  options.dimension_updates = 20;
  MaintenanceReport dm;
  ASSERT_TRUE(RunDataMaintenance(db_.get(), options, &dm).ok());

  Result<AuditReport> report = ValidateConstraints(db_.get(), TpcdsSchema());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->TotalViolations(), 0) << report->ToString();
}

TEST_F(AuditTest, DetectsViolations) {
  // Break a foreign key on purpose: point a sales row at a missing item.
  EngineTable* sales = db_->FindTable("store_sales");
  int item_col = sales->ColumnIndex("ss_item_sk");
  sales->SetValue(0, item_col, Value::Int(99999999));
  Result<AuditReport> report = ValidateConstraints(db_.get(), TpcdsSchema());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->TotalViolations(), 1);
  bool found = false;
  for (const ConstraintCheck& c : report->checks) {
    if (c.constraint.find("store_sales(ss_item_sk) -> item") !=
            std::string::npos &&
        c.violations >= 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report->ToString();
}

TEST_F(AuditTest, DetectsDuplicateSingleColumnPrimaryKey) {
  EngineTable* item = db_->FindTable("item");
  ASSERT_GE(item->num_rows(), 2);
  CopyCell(item, "i_item_sk", 0, 1);
  Result<AuditReport> report = ValidateConstraints(db_.get(), TpcdsSchema());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Violations(*report, "item PK(i_item_sk) unique"), 1)
      << report->ToString();
}

TEST_F(AuditTest, DetectsDuplicateCompositePrimaryKey) {
  // Row 1 takes row 0's (item, ticket) pair; every FK still resolves.
  EngineTable* sales = db_->FindTable("store_sales");
  ASSERT_GE(sales->num_rows(), 2);
  CopyCell(sales, "ss_item_sk", 0, 1);
  CopyCell(sales, "ss_ticket_number", 0, 1);
  Result<AuditReport> report = ValidateConstraints(db_.get(), TpcdsSchema());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(
      Violations(*report, "store_sales PK(ss_item_sk,ss_ticket_number) unique"),
      1)
      << report->ToString();
  EXPECT_EQ(report->TotalViolations(), 1) << report->ToString();
}

TEST_F(AuditTest, NullPrimaryKeyIsAViolation) {
  EngineTable* reason = db_->FindTable("reason");
  reason->SetValue(0, reason->ColumnIndex("r_reason_sk"), Value::Null());
  Result<AuditReport> report = ValidateConstraints(db_.get(), TpcdsSchema());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Violations(*report, "reason PK(r_reason_sk) unique"), 1)
      << report->ToString();
}

TEST_F(AuditTest, DetectsBrokenCompositeForeignKey) {
  // Point return row 0 at a ticket of store_sales that exists, but not
  // with the returned item: each column resolves alone, the pair does not.
  EngineTable* sales = db_->FindTable("store_sales");
  EngineTable* returns = db_->FindTable("store_returns");
  ASSERT_GE(returns->num_rows(), 1);
  const int ss_item = sales->ColumnIndex("ss_item_sk");
  const int ss_ticket = sales->ColumnIndex("ss_ticket_number");
  const int sr_ticket = returns->ColumnIndex("sr_ticket_number");
  const Value item = returns->GetValue(0, returns->ColumnIndex("sr_item_sk"));
  const Value ticket = returns->GetValue(0, sr_ticket);
  std::optional<Value> other;
  for (int64_t r = 0; r < sales->num_rows() && !other; ++r) {
    Value t = sales->GetValue(r, ss_ticket);
    if (Value::SqlEquals(t, ticket)) continue;
    bool pair_exists = false;
    for (int64_t s = 0; s < sales->num_rows() && !pair_exists; ++s) {
      pair_exists = Value::SqlEquals(sales->GetValue(s, ss_ticket), t) &&
                    Value::SqlEquals(sales->GetValue(s, ss_item), item);
    }
    if (!pair_exists) other = t;
  }
  ASSERT_TRUE(other.has_value());
  returns->SetValue(0, sr_ticket, *other);
  Result<AuditReport> report = ValidateConstraints(db_.get(), TpcdsSchema());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Violations(*report,
                       "store_returns(sr_item_sk,sr_ticket_number) -> "
                       "store_sales"),
            1)
      << report->ToString();
  EXPECT_EQ(report->TotalViolations(), 1) << report->ToString();
}

TEST_F(AuditTest, NullForeignKeyPasses) {
  EngineTable* sales = db_->FindTable("store_sales");
  sales->SetValue(0, sales->ColumnIndex("ss_customer_sk"), Value::Null());
  Result<AuditReport> report = ValidateConstraints(db_.get(), TpcdsSchema());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Violations(*report, "store_sales(ss_customer_sk) -> customer"), 0)
      << report->ToString();
  EXPECT_EQ(report->TotalViolations(), 0) << report->ToString();
}

}  // namespace
}  // namespace tpcds
