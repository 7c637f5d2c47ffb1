// Unit tests for the structural planner (engine/plan.{h,cc},
// docs/PLANNER.md): joins and star dimensions in FROM order, filter
// placement, index-join deferral, and plans that read schemas only, never
// table data.

#include "engine/plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/expr_eval.h"
#include "engine/parser.h"

namespace tpcds {
namespace {

/// Renders the FROM part of a plan as a nested term: a scan as its table,
/// `join(l, r)` for a hash join with equi keys, `nl(l, r)` without,
/// `left(l, r)` for a left outer join, `semi(fact, dim)` for a star
/// semi-join, `index(l, table)` for an index join and `filter(c)` for a
/// residual filter. Single-child operators above the joins (project,
/// aggregate, truncate, ...) are looked through.
std::string Shape(const PlanNode& n) {
  switch (n.kind) {
    case PlanKind::kScan:
      return n.table_name;
    case PlanKind::kHashJoin: {
      const char* op = n.left_outer ? "left" : n.equi.empty() ? "nl" : "join";
      return std::string(op) + "(" + Shape(*n.children[0]) + ", " +
             Shape(*n.children[1]) + ")";
    }
    case PlanKind::kSemiJoinReduce:
      return "semi(" + Shape(*n.children[0]) + ", " + Shape(*n.children[1]) +
             ")";
    case PlanKind::kIndexJoin:
      return "index(" + Shape(*n.children[0]) + ", " + n.table_name + ")";
    case PlanKind::kFilter:
      return "filter(" + Shape(*n.children[0]) + ")";
    default:
      if (n.children.size() == 1) return Shape(*n.children[0]);
      return PlanNodeLabel(n);
  }
}

/// Pre-order PlanNodeLabel of every operator, one per line, indented by
/// depth: everything EXPLAIN shows before execution.
void Render(const PlanNode& n, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(PlanNodeLabel(n));
  out->push_back('\n');
  for (const auto& c : n.children) Render(*c, depth + 1, out);
}

/// Follows single children down to the first operator with two (a join or
/// a semi-join), or to a leaf.
const PlanNode* FirstBranch(const PlanNode* n) {
  while (n->children.size() == 1) n = n->children[0].get();
  return n;
}

class StructuralPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("fact", {{"f_k1", ColumnType::kIdentifier},
                                         {"f_k2", ColumnType::kIdentifier},
                                         {"f_k3", ColumnType::kIdentifier},
                                         {"f_dt", ColumnType::kDate},
                                         {"f_v", ColumnType::kInteger}})
                    .ok());
    ASSERT_TRUE(db_.CreateTable("d1", {{"d1_k", ColumnType::kIdentifier},
                                       {"d1_g", ColumnType::kInteger},
                                       {"d1_s", ColumnType::kVarchar},
                                       {"d1_dt", ColumnType::kDate}})
                    .ok());
    ASSERT_TRUE(db_.CreateTable("d2", {{"d2_k", ColumnType::kIdentifier},
                                       {"d2_g", ColumnType::kInteger}})
                    .ok());
    ASSERT_TRUE(db_.CreateTable("d3", {{"d3_k", ColumnType::kIdentifier},
                                       {"d3_g", ColumnType::kInteger}})
                    .ok());
    star_off_.star_transformation = false;
    index_on_.star_transformation = false;
    index_on_.index_joins = true;
  }

  /// Plans `sql` and keeps the statement alive beside the plan, which
  /// borrows its expressions.
  const PlanNode* Plan(const std::string& sql, const PlannerOptions& options) {
    Result<std::shared_ptr<SelectStmt>> stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    if (!stmt.ok()) return nullptr;
    std::shared_ptr<const DataFacade> facade = db_.Snapshot();
    Result<PhysicalPlan> plan = BuildPlan(facade.get(), **stmt, options);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    stmts_.push_back(*stmt);
    plans_.push_back(std::make_unique<PhysicalPlan>(std::move(*plan)));
    return plans_.back()->root.get();
  }

  std::string ShapeOf(const std::string& sql, const PlannerOptions& options) {
    const PlanNode* root = Plan(sql, options);
    return root == nullptr ? "<no plan>" : Shape(*root);
  }

  std::string RenderOf(const std::string& sql,
                       const PlannerOptions& options) {
    const PlanNode* root = Plan(sql, options);
    std::string out;
    if (root != nullptr) Render(*root, 0, &out);
    return out;
  }

  void Fill(const std::string& table, int64_t rows) {
    EngineTable* t = db_.FindTable(table);
    ASSERT_NE(t, nullptr);
    for (int64_t r = 0; r < rows; ++r) {
      std::vector<std::string> fields;
      for (size_t c = 0; c < t->num_columns(); ++c) {
        fields.push_back(t->column_meta(c).type == ColumnType::kDate
                             ? "2000-01-01"
                             : std::to_string(r % 97));
      }
      ASSERT_TRUE(t->AppendRowStrings(fields).ok());
    }
  }

  Database db_;
  PlannerOptions star_on_;  // the defaults: star on, index joins off
  PlannerOptions star_off_;
  PlannerOptions index_on_;
  std::vector<std::shared_ptr<SelectStmt>> stmts_;
  std::vector<std::unique_ptr<PhysicalPlan>> plans_;
};

// ---- Joins in FROM order --------------------------------------------------

TEST_F(StructuralPlanTest, CommaJoinsAreLeftDeepInFromOrder) {
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d1, d2, d3 "
                    "WHERE d1_k = d2_k AND d2_k = d3_k",
                    star_off_),
            "join(join(d1, d2), d3)");
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d3, d2, d1 "
                    "WHERE d1_k = d2_k AND d2_k = d3_k",
                    star_off_),
            "join(join(d3, d2), d1)");
}

TEST_F(StructuralPlanTest, UnconnectedNeighboursCrossJoinRatherThanReorder) {
  // d2 shares no conjunct with d1, so FROM order pairs them in a
  // nested-loop cross join; d3 then takes both join conjuncts.
  const PlanNode* root = Plan(
      "SELECT COUNT(*) FROM d1, d2, d3 WHERE d1_k = d3_k AND d2_g = d3_g",
      star_off_);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(Shape(*root), "join(nl(d1, d2), d3)");
  const PlanNode* top = FirstBranch(root);
  EXPECT_EQ(top->equi.size(), 2u);
  EXPECT_TRUE(top->residual.empty());
}

TEST_F(StructuralPlanTest, ExplicitJoinsTakeTheirOnConjunctsInFromOrder) {
  const PlanNode* root = Plan(
      "SELECT COUNT(*) FROM d1 JOIN d2 ON d1_k = d2_k AND d1_g < d2_g "
      "LEFT JOIN d3 ON d2_k = d3_k",
      star_on_);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(Shape(*root), "left(join(d1, d2), d3)");
  const PlanNode* outer = FirstBranch(root);
  EXPECT_EQ(outer->equi.size(), 1u);
  const PlanNode* inner = outer->children[0].get();
  EXPECT_EQ(inner->equi.size(), 1u);
  EXPECT_EQ(inner->residual.size(), 1u);
}

TEST_F(StructuralPlanTest, SingleTableConjunctsArePushedIntoTheirScans) {
  const PlanNode* root = Plan(
      "SELECT COUNT(*) FROM d1, d2 "
      "WHERE d1_k = d2_k AND d1_g > 3 AND d1_s = 'x' AND d2_g = 5",
      star_off_);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(Shape(*root), "join(d1, d2)");
  const PlanNode* join = FirstBranch(root);
  EXPECT_EQ(join->children[0]->predicates.size(), 2u);
  EXPECT_EQ(join->children[1]->predicates.size(), 1u);
  EXPECT_EQ(join->equi.size(), 1u);
}

TEST_F(StructuralPlanTest, UnplacedConjunctsWaitInAFilterAboveTheJoins) {
  // A subquery conjunct, and a WHERE conjunct spanning an explicit JOIN
  // (which takes its ON conjuncts only), wait in one filter above the
  // joins.
  const PlanNode* root = Plan(
      "SELECT COUNT(*) FROM d1 JOIN d2 ON d1_k = d2_k "
      "WHERE d1_g = d2_g AND d1_k IN (SELECT d3_k FROM d3)",
      star_off_);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(Shape(*root), "filter(join(d1, d2))");
  const PlanNode* filter = root;
  while (filter->kind != PlanKind::kFilter) filter = filter->children[0].get();
  EXPECT_EQ(filter->predicates.size(), 2u);
}

TEST_F(StructuralPlanTest, PlansReadNoTableData) {
  // The same statement gets the same plan whatever the tables hold: here
  // empty, then with a large fact table and a dimension a hundred times
  // bigger than the others.
  const std::vector<std::string> sqls = {
      "SELECT d1_g, COUNT(*) FROM fact, d1, d2, d3 "
      "WHERE f_k1 = d1_k AND f_k2 = d2_k AND f_k3 = d3_k AND d2_g = 3 "
      "GROUP BY d1_g ORDER BY d1_g",
      "SELECT COUNT(*) FROM d3, d1, d2 WHERE d1_k = d2_k AND d2_k = d3_k",
      "SELECT f_v FROM fact JOIN d1 ON f_dt = d1_dt WHERE f_v > 2"};
  std::vector<std::string> before;
  for (const PlannerOptions& options : {star_on_, star_off_, index_on_}) {
    for (const std::string& sql : sqls) {
      before.push_back(RenderOf(sql, options));
    }
  }
  Fill("fact", 3000);
  Fill("d1", 2000);
  Fill("d2", 20);
  Fill("d3", 20);
  size_t i = 0;
  for (const PlannerOptions& options : {star_on_, star_off_, index_on_}) {
    for (const std::string& sql : sqls) {
      EXPECT_EQ(RenderOf(sql, options), before[i++]) << sql;
    }
  }
}

// ---- Star transformation in FROM order -------------------------------------

TEST_F(StructuralPlanTest, StarDimensionsNestInFromOrder) {
  // The first dimension listed filters the fact scan innermost, and the
  // hash joins above pair the reduced fact with each dimension in turn.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1, d2, d3 "
                    "WHERE f_k1 = d1_k AND f_k2 = d2_k AND f_k3 = d3_k",
                    star_on_),
            "join(join(join(semi(semi(semi(fact, d1), d2), d3), d1), d2), "
            "d3)");
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d3, d1, d2 "
                    "WHERE f_k1 = d1_k AND f_k2 = d2_k AND f_k3 = d3_k",
                    star_on_),
            "join(join(join(semi(semi(semi(fact, d3), d1), d2), d3), d1), "
            "d2)");
}

TEST_F(StructuralPlanTest, StarDimensionIsOneScanSharedWithItsHashJoin) {
  const PlanNode* root = Plan(
      "SELECT COUNT(*) FROM fact, d1, d2 "
      "WHERE f_k1 = d1_k AND f_k2 = d2_k AND d1_g = 4",
      star_on_);
  ASSERT_NE(root, nullptr);
  const PlanNode* top = FirstBranch(root);  // join(.., d2)
  const PlanNode* lower = top->children[0].get();  // join(semi.., d1)
  ASSERT_EQ(lower->kind, PlanKind::kHashJoin);
  const PlanNode* outer_semi = lower->children[0].get();  // semi(.., d2)
  ASSERT_EQ(outer_semi->kind, PlanKind::kSemiJoinReduce);
  const PlanNode* inner_semi = outer_semi->children[0].get();  // semi(.., d1)
  ASSERT_EQ(inner_semi->kind, PlanKind::kSemiJoinReduce);
  EXPECT_EQ(inner_semi->children[1].get(), lower->children[1].get());
  EXPECT_EQ(outer_semi->children[1].get(), top->children[1].get());
  EXPECT_TRUE(lower->children[1]->memoize);
  EXPECT_TRUE(top->children[1]->memoize);
  EXPECT_FALSE(inner_semi->children[0]->memoize);  // the fact scan
  // The semi-join keeps the equi conjunct for the hash join above it.
  EXPECT_EQ(lower->equi.size(), 1u);
  EXPECT_EQ(ExprToString(*inner_semi->fact_key), "f_k1");
}

TEST_F(StructuralPlanTest, StarNeedsTheOptionAndMoreThanTwoFromItems) {
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1 WHERE f_k1 = d1_k",
                    star_on_),
            "join(fact, d1)");
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1, d2 "
                    "WHERE f_k1 = d1_k AND f_k2 = d2_k",
                    star_off_),
            "join(join(fact, d1), d2)");
}

TEST_F(StructuralPlanTest, StarReducesOnlyByCommaItemsThatEquiJoinTheFact) {
  // d2 joins d1, not the fact (a snowflake arm); d3 is an explicit JOIN.
  // Only d1 becomes a semi-join of the fact.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1, d2 JOIN d3 ON "
                    "d2_g = d3_g WHERE f_k1 = d1_k AND d1_g = d2_k",
                    star_on_),
            "join(join(join(semi(fact, d1), d1), d2), d3)");
  // A non-equi conjunct is no semi-join key.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1, d2 "
                    "WHERE f_k1 < d1_k AND f_k2 = d2_k",
                    star_on_),
            "join(nl(semi(fact, d2), d1), d2)");
}

// ---- The star's fact: the schema's fact table -----------------------------

TEST_F(StructuralPlanTest, StarTakesTheFirstFactTableInFromAsTheFact) {
  ASSERT_TRUE(db_.CreateTable("sales", {{"s_k1", ColumnType::kIdentifier},
                                        {"s_k2", ColumnType::kIdentifier},
                                        {"s_v", ColumnType::kInteger}},
                              TableClass::kFact)
                  .ok());
  ASSERT_TRUE(db_.CreateTable("returns", {{"r_k1", ColumnType::kIdentifier},
                                          {"r_v", ColumnType::kInteger}},
                              TableClass::kFact)
                  .ok());
  // The fact later in FROM moves to the front; the dimensions keep FROM
  // order, as semi-joins and as hash joins.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d1, sales, d2 "
                    "WHERE s_k1 = d1_k AND s_k2 = d2_k",
                    star_on_),
            "join(join(semi(semi(sales, d1), d2), d1), d2)");
  // Of two facts, the first in FROM is the star's fact; the other keeps
  // its place.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d1, sales, returns "
                    "WHERE s_k1 = d1_k AND r_k1 = d1_k",
                    star_on_),
            "join(join(semi(sales, d1), d1), returns)");
  // With no fact table in FROM the plan is FROM order's, as before: the
  // unclassed `fact` table is no fact here.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d1, fact, d2 "
                    "WHERE f_k1 = d1_k AND f_k2 = d2_k",
                    star_on_),
            "join(join(semi(d1, fact), fact), d2)");
  // An explicit JOIN ... ON item never moves: the fact does, ahead of it,
  // and the ON item stays where FROM put it.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d1 JOIN d3 ON d1_g = d3_g, sales, "
                    "d2 WHERE s_k1 = d1_k AND s_k2 = d2_k",
                    star_on_),
            "join(join(join(semi(semi(sales, d1), d2), d1), d3), d2)");
  // A fact joined by JOIN ... ON is not moved, and without the star
  // transformation nothing is.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d1, d2 JOIN sales ON s_k2 = d2_k "
                    "WHERE s_k1 = d1_k",
                    star_on_),
            "filter(join(nl(d1, d2), sales))");
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d1, sales, d2 "
                    "WHERE s_k1 = d1_k AND s_k2 = d2_k",
                    star_off_),
            "join(join(d1, sales), d2)");
}

TEST_F(StructuralPlanTest, SelectStarKeepsFromColumnOrderWhenTheFactMoves) {
  ASSERT_TRUE(db_.CreateTable("sales", {{"s_k1", ColumnType::kIdentifier},
                                        {"s_k2", ColumnType::kIdentifier}},
                              TableClass::kFact)
                  .ok());
  const std::string sql =
      "SELECT * FROM d2, sales, d3 WHERE s_k1 = d2_k AND s_k2 = d3_k";
  ASSERT_EQ(ShapeOf(sql, star_on_),
            "join(join(semi(semi(sales, d2), d3), d2), d3)");
  const PlanNode* root = Plan(sql, star_on_);
  ASSERT_NE(root, nullptr);
  // The scans read only the columns the statement names.
  std::vector<std::string> names;
  for (const RowSet::Col& c : root->schema) names.push_back(c.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"d2_k", "s_k1", "s_k2", "d3_k"}));
  // And the values sit under their names.
  Fill("d2", 5);
  Fill("d3", 5);
  Fill("sales", 5);
  Result<QueryResult> r = db_.Query(sql + " AND d2_k = 3", star_on_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->columns[0], "d2.d2_k");
  for (const Value& v : r->rows[0]) EXPECT_EQ(v.AsInt(), 3);
}

// ---- Pass-through columns -------------------------------------------------

/// Number of `kind` operators in the plan under `n`.
int CountKind(const PlanNode& n, PlanKind kind) {
  int count = n.kind == kind ? 1 : 0;
  for (const auto& c : n.children) count += CountKind(*c, kind);
  return count;
}

TEST_F(StructuralPlanTest, ProjectsPassColumnsThroughOnlyForAnOrderBy) {
  // Without ORDER BY nothing reads the input's columns above a project,
  // so none pass through and no truncate drops them: not in a UNION ALL
  // branch, not in a derived table.
  for (const std::string& sql :
       {std::string("SELECT d1_k FROM d1 UNION ALL SELECT d2_k FROM d2"),
        std::string("SELECT x.k FROM (SELECT d1_k AS k, d1_g FROM d1) x "
                    "WHERE x.d1_g > 1")}) {
    const PlanNode* root = Plan(sql, star_on_);
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(CountKind(*root, PlanKind::kTruncate), 0) << sql;
  }
  // ORDER BY a column the select list drops still reads it.
  const std::string sql = "SELECT d1_k FROM d1 ORDER BY d1_g DESC, d1_k";
  const PlanNode* root = Plan(sql, star_on_);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(CountKind(*root, PlanKind::kTruncate), 1);
  Fill("d1", 200);  // d1_g = d1_k = r mod 97
  Result<QueryResult> r = db_.Query(sql, star_on_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 200u);
  ASSERT_EQ(r->rows[0].size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 96);
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_LE(r->rows[i][0].AsInt(), r->rows[i - 1][0].AsInt()) << i;
  }
}

// ---- Index-join deferral ----------------------------------------------------

TEST_F(StructuralPlanTest, IndexJoinDefersAnUnfilteredIntegerKeyedTable) {
  const PlanNode* root =
      Plan("SELECT d2_g FROM fact, d2 WHERE f_k2 = d2_k", index_on_);
  ASSERT_NE(root, nullptr);
  // The equi conjunct is the index join itself: no hash join, no filter
  // and no scan of d2.
  EXPECT_EQ(Shape(*root), "index(fact, d2)");
  const PlanNode* index = root;
  while (index->kind != PlanKind::kIndexJoin) {
    ASSERT_EQ(index->children.size(), 1u);
    index = index->children[0].get();
  }
  EXPECT_EQ(index->index_col, 0);
  EXPECT_EQ(ExprToString(*index->probe_key), "f_k2");
  // An integer (not identifier) column qualifies too, and the probe key
  // may sit on either side of the `=`.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d2 WHERE d2_g = f_v",
                    index_on_),
            "index(fact, d2)");
}

TEST_F(StructuralPlanTest, IndexJoinScansATableWithALocalFilter) {
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d2 "
                    "WHERE f_k2 = d2_k AND d2_g = 1",
                    index_on_),
            "join(fact, d2)");
}

TEST_F(StructuralPlanTest, IndexJoinNeedsAnIntegerKeyColumn) {
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1 WHERE f_dt = d1_dt",
                    index_on_),
            "join(fact, d1)");
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1 WHERE f_v = d1_s",
                    index_on_),
            "join(fact, d1)");
}

TEST_F(StructuralPlanTest, IndexJoinNeedsExactlyOneEquiConjunct) {
  // Two spanning equi conjuncts, or an extra non-equi one, keep the scan.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d2 "
                    "WHERE f_k2 = d2_k AND f_v = d2_g",
                    index_on_),
            "join(fact, d2)");
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d2 "
                    "WHERE f_k2 = d2_k AND f_v < d2_g",
                    index_on_),
            "join(fact, d2)");
  // A non-equi conjunct alone is no index key either.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d2 WHERE f_k2 < d2_k",
                    index_on_),
            "nl(fact, d2)");
}

TEST_F(StructuralPlanTest, IndexJoinDefersOnlyLaterCommaJoinedItems) {
  // The first FROM item is always scanned, and an explicit JOIN always
  // hash-joins.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM d2, fact WHERE f_k2 = d2_k",
                    index_on_),
            "index(d2, fact)");
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact JOIN d2 ON f_k2 = d2_k",
                    index_on_),
            "join(fact, d2)");
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1, d2 "
                    "WHERE f_k1 = d1_k AND d1_g > 2 AND f_k2 = d2_k",
                    index_on_),
            "index(join(fact, d1), d2)");
  // A constant equality on the earlier d1 is no conjunct of d2's either.
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1, d2 "
                    "WHERE f_k1 = d1_k AND d1_g = 2 AND f_k2 = d2_k",
                    index_on_),
            "index(join(fact, d1), d2)");
}

TEST_F(StructuralPlanTest, IndexJoinedTableIsNoStarDimension) {
  // With both access paths on, the filtered d1 reduces the fact while the
  // unfiltered d2 is deferred to an index join and never scanned.
  PlannerOptions both;
  both.star_transformation = true;
  both.index_joins = true;
  EXPECT_EQ(ShapeOf("SELECT COUNT(*) FROM fact, d1, d2 "
                    "WHERE f_k1 = d1_k AND d1_g > 2 AND f_k2 = d2_k",
                    both),
            "index(join(semi(fact, d1), d1), d2)");
}

}  // namespace
}  // namespace tpcds
