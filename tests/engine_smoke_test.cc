// End-to-end smoke test: generate a tiny TPC-DS database, load it into the
// engine, and run representative SQL through parse/plan/execute.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "scaling/scaling.h"

namespace tpcds {
namespace {

class EngineSmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->CreateTpcdsTables().ok());
    GeneratorOptions options;
    options.scale_factor = 0.002;
    Status st = db_->LoadTpcdsData(options);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  static Database* db_;
};

Database* EngineSmokeTest::db_ = nullptr;

TEST_F(EngineSmokeTest, TablesLoaded) {
  for (const char* t : {"date_dim", "store_sales", "store_returns", "item",
                        "customer", "store"}) {
    const EngineTable* table = db_->FindTable(t);
    ASSERT_NE(table, nullptr) << t;
    EXPECT_GT(table->num_rows(), 0) << t;
  }
  EXPECT_EQ(db_->FindTable("date_dim")->num_rows(),
            ScalingModel::DateDimRows());
}

TEST_F(EngineSmokeTest, SimpleScanFilter) {
  Result<QueryResult> r = db_->Query(
      "SELECT d_date_sk, d_year, d_moy FROM date_dim "
      "WHERE d_year = 2000 AND d_moy = 2 ORDER BY d_date_sk LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->rows[0][1].AsInt(), 2000);
  EXPECT_EQ(r->rows[0][2].AsInt(), 2);
}

TEST_F(EngineSmokeTest, Query52AdHocShape) {
  // The paper's Fig. 6 ad-hoc example (manager predicate widened so the
  // tiny scale factor still qualifies rows).
  Result<QueryResult> r = db_->Query(
      "SELECT dt.d_year, item.i_brand_id brand_id, item.i_brand brand, "
      "       SUM(ss_ext_sales_price) ext_price "
      "FROM date_dim dt, store_sales, item "
      "WHERE dt.d_date_sk = store_sales.ss_sold_date_sk "
      "  AND store_sales.ss_item_sk = item.i_item_sk "
      "  AND item.i_manager_id BETWEEN 1 AND 50 "
      "  AND dt.d_moy = 11 AND dt.d_year = 2000 "
      "GROUP BY dt.d_year, item.i_brand, item.i_brand_id "
      "ORDER BY dt.d_year, ext_price DESC, brand_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns.size(), 4u);
  ASSERT_GT(r->rows.size(), 0u);
  // Descending by ext_price within the year.
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_GE(r->rows[i - 1][3].AsDouble(), r->rows[i][3].AsDouble());
  }
}

TEST_F(EngineSmokeTest, Query20ReportingWindowShape) {
  // The paper's Fig. 7 reporting example with SUM() OVER (PARTITION BY).
  Result<QueryResult> r = db_->Query(
      "SELECT i_item_desc, i_category, i_class, i_current_price, "
      "       SUM(cs_ext_sales_price) AS itemrevenue, "
      "       SUM(cs_ext_sales_price)*100/SUM(SUM(cs_ext_sales_price)) OVER "
      "           (PARTITION BY i_class) AS revenueratio "
      "FROM catalog_sales, item, date_dim "
      "WHERE cs_item_sk = i_item_sk "
      "  AND i_category IN ('Sports', 'Books', 'Home') "
      "  AND cs_sold_date_sk = d_date_sk "
      "  AND d_date BETWEEN '1999-02-21' AND '1999-04-21' "
      "GROUP BY i_item_id, i_item_desc, i_category, i_class, "
      "         i_current_price "
      "ORDER BY i_category, i_class, i_item_id, i_item_desc, revenueratio");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->rows.size(), 0u);
  // Revenue ratios within one class must sum to ~100.
  double total = 0.0;
  std::string first_class = r->rows[0][2].AsString();
  for (const auto& row : r->rows) {
    if (row[2].AsString() != first_class) continue;
    total += row[5].AsDouble();
  }
  EXPECT_NEAR(total, 100.0, 0.5);
}

TEST_F(EngineSmokeTest, StarAndHashPathsAgree) {
  const char* sql =
      "SELECT s_store_name, SUM(ss_net_profit) profit "
      "FROM store_sales, date_dim, store "
      "WHERE ss_sold_date_sk = d_date_sk AND ss_store_sk = s_store_sk "
      "  AND d_year = 1999 "
      "GROUP BY s_store_name ORDER BY profit DESC";
  PlannerOptions star;
  star.star_transformation = true;
  PlannerOptions hash;
  hash.star_transformation = false;
  Result<QueryResult> a = db_->Query(sql, star);
  Result<QueryResult> b = db_->Query(sql, hash);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->rows.size(), b->rows.size());
  for (size_t i = 0; i < a->rows.size(); ++i) {
    EXPECT_EQ(a->rows[i][0].AsString(), b->rows[i][0].AsString());
    EXPECT_EQ(a->rows[i][1].AsDecimal().cents(),
              b->rows[i][1].AsDecimal().cents());
  }
}

TEST_F(EngineSmokeTest, AllThreeJoinPathsAgree) {
  // The paper's §2.1 DSS access paths: star transformation, hash joins,
  // index-driven joins. Same query, three plans, identical results.
  const char* sql =
      "SELECT i_category, COUNT(*) cnt, SUM(ss_ext_sales_price) rev "
      "FROM store_sales, item, date_dim "
      "WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk "
      "  AND d_year = 2000 "
      "GROUP BY i_category ORDER BY i_category";
  PlannerOptions star;
  star.star_transformation = true;
  star.index_joins = false;
  PlannerOptions hash;
  hash.star_transformation = false;
  hash.index_joins = false;
  PlannerOptions index;
  index.star_transformation = false;
  index.index_joins = true;

  ExecStats index_stats;
  Result<QueryResult> a = db_->Query(sql, star);
  Result<QueryResult> b = db_->Query(sql, hash);
  Result<QueryResult> c = db_->Query(sql, index, &index_stats);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok())
      << a.status().ToString() << b.status().ToString()
      << c.status().ToString();
  ASSERT_EQ(a->rows.size(), b->rows.size());
  ASSERT_EQ(a->rows.size(), c->rows.size());
  for (size_t i = 0; i < a->rows.size(); ++i) {
    for (size_t j = 0; j < a->rows[i].size(); ++j) {
      EXPECT_EQ(Value::Compare(a->rows[i][j], b->rows[i][j]), 0);
      EXPECT_EQ(Value::Compare(a->rows[i][j], c->rows[i][j]), 0);
    }
  }
  // The index path really engaged: item has no local filter, so its scan
  // was replaced by index probes. (date_dim carries d_year = 2000 and
  // must still be scanned.)
  bool saw_index_join = false;
  bool saw_item_scan = false;
  for (const ExecStats::OpStat& op : index_stats.operators) {
    if (op.executed &&
        op.label.find("index join item") != std::string::npos) {
      saw_index_join = true;
    }
    if (op.label.find("scan item") != std::string::npos) {
      saw_item_scan = true;
    }
  }
  EXPECT_TRUE(saw_index_join) << "plan did not use the index path";
  EXPECT_FALSE(saw_item_scan);
}

TEST_F(EngineSmokeTest, FactToFactJoin) {
  // Store sales joined to their returns via (item_sk, ticket_number) —
  // the paper's §2.2 fact-to-fact join.
  Result<QueryResult> r = db_->Query(
      "SELECT COUNT(*) AS returned_items, "
      "       SUM(sr_return_quantity) AS units_back "
      "FROM store_sales, store_returns "
      "WHERE ss_item_sk = sr_item_sk AND ss_ticket_number = sr_ticket_number");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  const EngineTable* sr = db_->FindTable("store_returns");
  // Every return matches exactly one sale.
  EXPECT_EQ(r->rows[0][0].AsInt(), sr->num_rows());
}

TEST_F(EngineSmokeTest, CteAndSubquery) {
  Result<QueryResult> r = db_->Query(
      "WITH big_items AS ( "
      "  SELECT i_item_sk FROM item WHERE i_current_price > 50 "
      ") "
      "SELECT COUNT(*) FROM store_sales "
      "WHERE ss_item_sk IN (SELECT i_item_sk FROM big_items)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_GT(r->rows[0][0].AsInt(), 0);
}

TEST_F(EngineSmokeTest, UnionAllAcrossChannels) {
  Result<QueryResult> r = db_->Query(
      "SELECT 'store' channel, COUNT(*) cnt FROM store_sales "
      "UNION ALL "
      "SELECT 'web' channel, COUNT(*) cnt FROM web_sales "
      "UNION ALL "
      "SELECT 'catalog' channel, COUNT(*) cnt FROM catalog_sales "
      "ORDER BY cnt DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsString(), "store");
}

}  // namespace
}  // namespace tpcds
