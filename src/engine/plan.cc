#include "engine/plan.h"

#include <unordered_set>
#include <utility>

#include "engine/data_facade.h"
#include "engine/expr_eval.h"
#include "engine/table.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

// --------------------------------------------------------- AST utilities

void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->tag == Expr::Tag::kBinary && e->name == "AND") {
    FlattenConjuncts(e->children[0].get(), out);
    FlattenConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

void CollectColumnRefs(const Expr& e, std::vector<const Expr*>* out) {
  if (e.tag == Expr::Tag::kColumnRef) out->push_back(&e);
  for (const auto& c : e.children) CollectColumnRefs(*c, out);
  for (const auto& c : e.partition_by) CollectColumnRefs(*c, out);
  for (const auto& c : e.order_by) CollectColumnRefs(*c, out);
  // Subquery bodies bind their own scopes (uncorrelated only).
}

void CollectStmtColumnRefs(const SelectStmt& stmt,
                           std::vector<const Expr*>* out) {
  for (const SelectItem& item : stmt.select_items) {
    if (item.expr != nullptr) CollectColumnRefs(*item.expr, out);
  }
  for (const FromItem& f : stmt.from_items) {
    if (f.join_condition != nullptr) CollectColumnRefs(*f.join_condition, out);
  }
  if (stmt.where != nullptr) CollectColumnRefs(*stmt.where, out);
  for (const auto& g : stmt.group_by) CollectColumnRefs(*g, out);
  if (stmt.having != nullptr) CollectColumnRefs(*stmt.having, out);
  for (const OrderItem& o : stmt.order_by) CollectColumnRefs(*o.expr, out);
}

bool ResolvableIn(const Expr& e, const RowSet& scope) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  for (const Expr* r : refs) {
    if (!scope.Resolve(r->qualifier, r->name).ok()) return false;
  }
  return true;
}

bool ExprHasSubquery(const Expr& e) {
  if (e.tag == Expr::Tag::kInSubquery || e.tag == Expr::Tag::kScalarSubquery ||
      e.tag == Expr::Tag::kExistsSubquery) {
    return true;
  }
  for (const auto& c : e.children) {
    if (ExprHasSubquery(*c)) return true;
  }
  return false;
}

void CollectAggregates(const Expr& e, std::vector<PlanAggSpec>* specs) {
  if (e.tag == Expr::Tag::kAggregate) {
    PlanAggSpec spec;
    spec.key = ExprToString(e);
    spec.function = e.name;
    spec.distinct = e.distinct;
    spec.star = !e.children.empty() && e.children[0]->tag == Expr::Tag::kStar;
    spec.arg =
        spec.star || e.children.empty() ? nullptr : e.children[0].get();
    for (const PlanAggSpec& s : *specs) {
      if (s.key == spec.key) return;  // dedup; aggregates don't nest
    }
    specs->push_back(spec);
    return;
  }
  for (const auto& c : e.children) CollectAggregates(*c, specs);
  for (const auto& c : e.partition_by) CollectAggregates(*c, specs);
  for (const auto& c : e.order_by) CollectAggregates(*c, specs);
}

void CollectWindows(const Expr& e, std::vector<const Expr*>* out) {
  if (e.tag == Expr::Tag::kWindow) {
    std::string key = ExprToString(e);
    for (const Expr* w : *out) {
      if (ExprToString(*w) == key) return;
    }
    out->push_back(&e);
    return;
  }
  for (const auto& c : e.children) CollectWindows(*c, out);
}

/// Rewrites an expression tree, replacing sub-expressions whose canonical
/// text appears in `replacements` with bare column references.
std::unique_ptr<Expr> RewriteExpr(
    const Expr& e, const std::map<std::string, std::string>& replacements) {
  auto it = replacements.find(ExprToString(e));
  if (it != replacements.end()) {
    auto ref = std::make_unique<Expr>();
    ref->tag = Expr::Tag::kColumnRef;
    // Replacement targets are spelled "name" or "qualifier.name".
    size_t dot = it->second.find('.');
    if (dot == std::string::npos) {
      ref->name = it->second;
    } else {
      ref->qualifier = it->second.substr(0, dot);
      ref->name = it->second.substr(dot + 1);
    }
    return ref;
  }
  std::unique_ptr<Expr> out = e.Clone();
  out->children.clear();
  out->partition_by.clear();
  out->order_by.clear();
  for (const auto& c : e.children) {
    out->children.push_back(RewriteExpr(*c, replacements));
  }
  for (const auto& c : e.partition_by) {
    out->partition_by.push_back(RewriteExpr(*c, replacements));
  }
  for (const auto& c : e.order_by) {
    out->order_by.push_back(RewriteExpr(*c, replacements));
  }
  return out;
}

// ---------------------------------------------------------------- planner

/// Builds a PlanNode tree from the AST. Mirrors the decisions the old
/// monolithic executor made (filter pushdown, index-join deferral, star
/// transformation, left-deep join order, aggregate/window rewrites) but
/// computes them statically over schemas; no table data is read.
class Planner {
 public:
  Planner(const DataFacade* facade, const PlannerOptions& options,
          PhysicalPlan* plan)
      : facade_(facade), options_(options), plan_(plan) {}

  Status PlanStatement(const SelectStmt& stmt) {
    for (const auto& [name, cte] : stmt.ctes) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> node,
                             PlanSelectCore(*cte));
      plan_->cte_schemas[ToLower(name)] = node->schema;
      plan_->ctes.emplace_back(ToLower(name), std::move(node));
    }
    TPCDS_ASSIGN_OR_RETURN(plan_->root, PlanSelectCore(stmt));
    return Status::OK();
  }

  Result<std::shared_ptr<PlanNode>> PlanSelectCore(const SelectStmt& stmt) {
    if (stmt.set_ops.empty()) {
      TPCDS_ASSIGN_OR_RETURN(
          std::shared_ptr<PlanNode> node,
          PlanBareSelect(stmt, &stmt.order_by, stmt.limit));
      return MakeTruncate(std::move(node));
    }
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> first,
                           PlanBareSelect(stmt, nullptr, -1));
    first = MakeTruncate(std::move(first));
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kSetOp;
    node->schema = first->schema;
    node->num_visible = 0;
    node->children.push_back(std::move(first));
    for (const auto& branch : stmt.set_ops) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> b,
                             PlanBareSelect(*branch.stmt, nullptr, -1));
      b = MakeTruncate(std::move(b));
      if (b->schema.size() != node->schema.size()) {
        return Status::InvalidArgument("set operation arity mismatch");
      }
      node->children.push_back(std::move(b));
      node->set_kinds.push_back(branch.kind);
    }
    std::shared_ptr<PlanNode> out = std::move(node);
    if (!stmt.order_by.empty()) {
      std::vector<std::pair<const Expr*, bool>> keys;
      for (const OrderItem& o : stmt.order_by) {
        keys.emplace_back(o.expr.get(), o.desc);
      }
      TPCDS_ASSIGN_OR_RETURN(out, MakeSort(std::move(out), keys));
    }
    if (stmt.limit >= 0) out = MakeLimit(std::move(out), stmt.limit);
    return out;
  }

 private:
  /// Takes ownership of a rewritten expression; plan nodes hold raw
  /// pointers either into the statement AST or into this pool.
  const Expr* Own(std::unique_ptr<Expr> e) {
    plan_->owned_exprs.push_back(std::move(e));
    return plan_->owned_exprs.back().get();
  }

  static RowSet ScopeOf(const PlanNode& n) {
    RowSet rs;
    rs.cols = n.schema;
    rs.num_visible = n.num_visible;
    return rs;
  }

  std::shared_ptr<PlanNode> MakeFilter(std::shared_ptr<PlanNode> child,
                                       std::vector<const Expr*> preds) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kFilter;
    node->schema = child->schema;
    node->num_visible = child->num_visible;
    node->predicates = std::move(preds);
    node->children.push_back(std::move(child));
    return node;
  }

  std::shared_ptr<PlanNode> MakeLimit(std::shared_ptr<PlanNode> child,
                                      int64_t limit) {
    // ORDER BY + LIMIT fuses into a Top-K operator: per-worker bounded
    // heaps keep the best `limit` rows instead of materialising a full
    // sort. The heaps compute the exact top-k of their chunk under a
    // total order (sort keys, then original row index), so the merged
    // result is byte-identical to sort-then-limit.
    if (limit >= 0 && options_.topk_pushdown &&
        child->kind == PlanKind::kSort) {
      auto node = std::make_shared<PlanNode>();
      node->kind = PlanKind::kTopK;
      node->schema = child->schema;
      node->num_visible = child->num_visible;
      node->sort_keys = child->sort_keys;
      node->limit = limit;
      node->children.push_back(child->children[0]);
      return node;
    }
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kLimit;
    node->schema = child->schema;
    node->num_visible = child->num_visible;
    node->limit = limit;
    node->children.push_back(std::move(child));
    return node;
  }

  /// Drops hidden passthrough columns at select-core boundaries. No-op
  /// (elided) when everything is already visible.
  std::shared_ptr<PlanNode> MakeTruncate(std::shared_ptr<PlanNode> child) {
    if (child->num_visible == 0 ||
        child->num_visible == child->schema.size()) {
      child->num_visible = 0;
      return child;
    }
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kTruncate;
    node->schema.assign(child->schema.begin(),
                        child->schema.begin() +
                            static_cast<long>(child->num_visible));
    node->num_visible = 0;
    node->children.push_back(std::move(child));
    return node;
  }

  Result<std::shared_ptr<PlanNode>> MakeSort(
      std::shared_ptr<PlanNode> child,
      const std::vector<std::pair<const Expr*, bool>>& keys) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kSort;
    node->schema = child->schema;
    node->num_visible = child->num_visible;
    size_t visible = node->num_visible == 0 ? node->schema.size()
                                            : node->num_visible;
    for (const auto& [expr, desc] : keys) {
      PlanSortKey key;
      key.desc = desc;
      if (expr->tag == Expr::Tag::kLiteral &&
          expr->literal.kind() == Value::Kind::kInt) {
        int64_t ordinal = expr->literal.AsInt();
        if (ordinal < 1 || ordinal > static_cast<int64_t>(visible)) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        key.ordinal = static_cast<int>(ordinal - 1);
      } else {
        key.expr = expr;
      }
      node->sort_keys.push_back(key);
    }
    node->children.push_back(std::move(child));
    return node;
  }

  Result<std::shared_ptr<PlanNode>> PlanBareSelect(
      const SelectStmt& stmt, const std::vector<OrderItem>* order_by,
      int64_t limit) {
    std::vector<int> from_order;
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> node,
                           PlanFrom(stmt, &from_order));

    // ---- aggregation --------------------------------------------------
    std::map<std::string, std::string> rewrites;
    std::vector<PlanAggSpec> agg_specs;
    for (const SelectItem& item : stmt.select_items) {
      if (item.expr != nullptr) CollectAggregates(*item.expr, &agg_specs);
    }
    if (stmt.having != nullptr) CollectAggregates(*stmt.having, &agg_specs);
    for (const OrderItem& o : stmt.order_by) {
      CollectAggregates(*o.expr, &agg_specs);
    }
    bool has_aggregates = !stmt.group_by.empty() || !agg_specs.empty();

    if (has_aggregates) {
      node = MakeAggregate(stmt, std::move(node), agg_specs, &rewrites);
      if (stmt.having != nullptr) {
        node = MakeFilter(std::move(node),
                          {Own(RewriteExpr(*stmt.having, rewrites))});
      }
    }

    // ---- window functions --------------------------------------------
    std::vector<const Expr*> window_nodes;
    for (const SelectItem& item : stmt.select_items) {
      if (item.expr != nullptr) CollectWindows(*item.expr, &window_nodes);
    }
    if (order_by != nullptr) {
      for (const OrderItem& o : *order_by) {
        CollectWindows(*o.expr, &window_nodes);
      }
    }
    if (!window_nodes.empty()) {
      node = MakeWindow(window_nodes, std::move(node), &rewrites);
    }

    // ---- projection ---------------------------------------------------
    auto proj = std::make_shared<PlanNode>();
    proj->kind = PlanKind::kProject;
    for (const SelectItem& item : stmt.select_items) {
      if (item.is_star) {
        for (size_t i = 0; i < node->schema.size(); ++i) {
          PlanProjection p;
          p.slot = static_cast<int>(i);
          if (!has_aggregates && i < from_order.size()) p.slot = from_order[i];
          proj->schema.push_back(node->schema[static_cast<size_t>(p.slot)]);
          proj->projections.push_back(p);
        }
        continue;
      }
      PlanProjection p;
      p.expr = Own(RewriteExpr(*item.expr, rewrites));
      proj->projections.push_back(p);
      RowSet::Col col;
      if (!item.alias.empty()) {
        col.name = item.alias;
      } else if (item.expr->tag == Expr::Tag::kColumnRef) {
        col.qualifier = item.expr->qualifier;
        col.name = item.expr->name;
      } else {
        col.name = ExprToString(*item.expr);
      }
      proj->schema.push_back(std::move(col));
    }
    proj->num_visible = proj->schema.size();
    // Only an ORDER BY reads the input's columns above the projection, so
    // only then do they pass through, hidden (MakeTruncate drops them).
    if (order_by != nullptr && !order_by->empty()) {
      for (const RowSet::Col& c : node->schema) proj->schema.push_back(c);
    }
    proj->children.push_back(std::move(node));
    node = std::move(proj);

    if (stmt.select_distinct) {
      auto distinct = std::make_shared<PlanNode>();
      distinct->kind = PlanKind::kDistinct;
      distinct->schema = node->schema;
      distinct->num_visible = node->num_visible;
      distinct->children.push_back(std::move(node));
      node = std::move(distinct);
    }

    if (order_by != nullptr && !order_by->empty()) {
      // Rewrite aggregates/windows in ORDER BY before binding.
      std::vector<std::pair<const Expr*, bool>> keys;
      for (const OrderItem& o : *order_by) {
        keys.emplace_back(Own(RewriteExpr(*o.expr, rewrites)), o.desc);
      }
      TPCDS_ASSIGN_OR_RETURN(node, MakeSort(std::move(node), keys));
    }
    if (limit >= 0) node = MakeLimit(std::move(node), limit);
    return node;
  }

  std::shared_ptr<PlanNode> MakeAggregate(
      const SelectStmt& stmt, std::shared_ptr<PlanNode> child,
      std::vector<PlanAggSpec> specs,
      std::map<std::string, std::string>* rewrites) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kAggregate;
    node->rollup = stmt.group_rollup;
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      const Expr& e = *stmt.group_by[g];
      node->group_by.push_back(&e);
      RowSet::Col col;
      if (e.tag == Expr::Tag::kColumnRef) {
        col.qualifier = e.qualifier;
        col.name = e.name;
      } else {
        col.name = "#gb" + std::to_string(g);
      }
      (*rewrites)[ExprToString(e)] =
          col.qualifier.empty() ? col.name : col.qualifier + "." + col.name;
      node->schema.push_back(std::move(col));
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      RowSet::Col col;
      col.name = "#agg" + std::to_string(i);
      (*rewrites)[specs[i].key] = col.name;
      node->schema.push_back(std::move(col));
    }
    node->aggs = std::move(specs);
    node->num_visible = 0;
    node->children.push_back(std::move(child));
    return node;
  }

  std::shared_ptr<PlanNode> MakeWindow(
      const std::vector<const Expr*>& window_nodes,
      std::shared_ptr<PlanNode> child,
      std::map<std::string, std::string>* rewrites) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kWindow;
    node->schema = child->schema;
    node->num_visible = child->num_visible;
    for (size_t w = 0; w < window_nodes.size(); ++w) {
      const Expr& e = *window_nodes[w];
      PlanWindowFn fn;
      fn.function = e.name;
      fn.star =
          !e.children.empty() && e.children[0]->tag == Expr::Tag::kStar;
      if (!fn.star && !e.children.empty()) {
        fn.arg = Own(RewriteExpr(*e.children[0], *rewrites));
      }
      for (const auto& p : e.partition_by) {
        fn.partition_by.push_back(Own(RewriteExpr(*p, *rewrites)));
      }
      for (const auto& o : e.order_by) {
        fn.order_by.push_back(Own(RewriteExpr(*o, *rewrites)));
      }
      fn.order_desc = e.order_desc;
      fn.out_col = "#win" + std::to_string(w);
      (*rewrites)[ExprToString(e)] = fn.out_col;
      RowSet::Col col;
      col.name = fn.out_col;
      node->schema.push_back(std::move(col));
      node->windows.push_back(std::move(fn));
    }
    node->children.push_back(std::move(child));
    return node;
  }

  void PruneColumns(const SelectStmt& stmt, const std::string& qualifier,
                    EngineTable* table, std::vector<int>* needed,
                    std::vector<RowSet::Col>* out_cols) {
    // Column pruning: a column is needed if any reference in the statement
    // can resolve to it through this alias.
    std::vector<const Expr*> refs;
    CollectStmtColumnRefs(stmt, &refs);
    std::unordered_set<std::string> added;
    for (const Expr* ref : refs) {
      if (!ref->qualifier.empty() &&
          !EqualsIgnoreCase(ref->qualifier, qualifier)) {
        continue;
      }
      int idx = table->ColumnIndex(ToLower(ref->name));
      if (idx < 0) continue;
      std::string key = ToLower(ref->name);
      if (!added.insert(key).second) continue;
      needed->push_back(idx);
      out_cols->push_back(
          RowSet::Col{qualifier,
                      table->column_meta(static_cast<size_t>(idx)).name});
    }
  }

  Result<std::shared_ptr<PlanNode>> MakeScan(
      const SelectStmt& stmt, const FromItem& item,
      const std::vector<const Expr*>& conjuncts,
      std::vector<bool>* consumed) {
    EngineTable* table = facade_->FindTable(ToLower(item.table_name));
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + item.table_name);
    }
    std::string qualifier =
        item.alias.empty() ? item.table_name : item.alias;
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kScan;
    node->table_name = ToLower(item.table_name);
    node->alias = item.alias;
    PruneColumns(stmt, qualifier, table, &node->scan_cols, &node->schema);

    // Local filter pushdown: conjuncts fully resolvable against this scan
    // (and without subqueries, which the scan scope can't evaluate lazily).
    RowSet scope = ScopeOf(*node);
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if ((*consumed)[i]) continue;
      if (ExprHasSubquery(*conjuncts[i])) continue;
      if (ContainsAggregate(*conjuncts[i]) ||
          ContainsWindow(*conjuncts[i])) {
        continue;
      }
      if (!ResolvableIn(*conjuncts[i], scope)) continue;
      node->predicates.push_back(conjuncts[i]);
      (*consumed)[i] = true;
    }

    // Split the pushed filters into typed kernels (evaluated on the raw
    // storage vectors when vectorized execution is on) and residuals that
    // keep the generic expr_eval path. `predicates` stays intact as the
    // fallback and for EXPLAIN labels.
    for (const Expr* pred : node->predicates) {
      if (!CompileScanKernel(*pred, scope, *table, node->scan_cols,
                             &node->kernels)) {
        node->residual_predicates.push_back(pred);
      }
    }
    return node;
  }

  Result<std::shared_ptr<PlanNode>> BuildFromItem(
      const SelectStmt& stmt, const FromItem& item,
      const std::vector<const Expr*>& conjuncts,
      std::vector<bool>* consumed) {
    std::string qualifier =
        item.alias.empty() ? item.table_name : item.alias;
    std::shared_ptr<PlanNode> node;
    if (item.derived != nullptr) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> child,
                             PlanSelectCore(*item.derived));
      node = std::make_shared<PlanNode>();
      node->kind = PlanKind::kDerived;
      node->qualifier = qualifier;
      node->schema = child->schema;
      node->num_visible = child->num_visible;
      node->children.push_back(std::move(child));
    } else {
      auto cte = plan_->cte_schemas.find(ToLower(item.table_name));
      if (cte != plan_->cte_schemas.end()) {
        node = std::make_shared<PlanNode>();
        node->kind = PlanKind::kCteRef;
        node->cte_name = ToLower(item.table_name);
        node->qualifier = qualifier;
        node->schema = cte->second;
        node->num_visible = 0;
      } else {
        return MakeScan(stmt, item, conjuncts, consumed);
      }
    }
    // Re-qualify derived/CTE output under the FROM alias.
    for (RowSet::Col& c : node->schema) c.qualifier = qualifier;
    // Push applicable filters (post-materialisation).
    RowSet scope = ScopeOf(*node);
    std::vector<const Expr*> post;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if ((*consumed)[i]) continue;
      if (ExprHasSubquery(*conjuncts[i])) continue;
      if (!ResolvableIn(*conjuncts[i], scope)) continue;
      post.push_back(conjuncts[i]);
      (*consumed)[i] = true;
    }
    if (!post.empty()) node = MakeFilter(std::move(node), std::move(post));
    return node;
  }

  std::shared_ptr<PlanNode> MakeHashJoin(
      std::shared_ptr<PlanNode> left, std::shared_ptr<PlanNode> right,
      const std::vector<const Expr*>& join_conjuncts, bool left_outer) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kHashJoin;
    node->left_outer = left_outer;
    RowSet lscope = ScopeOf(*left);
    RowSet rscope = ScopeOf(*right);
    for (const Expr* c : join_conjuncts) {
      if (c->tag == Expr::Tag::kBinary && c->name == "=") {
        const Expr& a = *c->children[0];
        const Expr& b = *c->children[1];
        if (ResolvableIn(a, lscope) && ResolvableIn(b, rscope)) {
          node->equi.push_back(PlanEquiKey{&a, &b});
          continue;
        }
        if (ResolvableIn(b, lscope) && ResolvableIn(a, rscope)) {
          node->equi.push_back(PlanEquiKey{&b, &a});
          continue;
        }
      }
      node->residual.push_back(c);
    }
    node->schema = left->schema;
    node->schema.insert(node->schema.end(), right->schema.begin(),
                        right->schema.end());
    node->num_visible = 0;
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    return node;
  }

  /// Plans FROM and WHERE as a left-deep join pipeline. When a star's
  /// fact moves ahead of FROM order, *from_order receives the pipeline's
  /// output slots in FROM column order (empty otherwise).
  Result<std::shared_ptr<PlanNode>> PlanFrom(const SelectStmt& stmt,
                                             std::vector<int>* from_order);

  const DataFacade* facade_;
  PlannerOptions options_;
  PhysicalPlan* plan_;
};

Result<std::shared_ptr<PlanNode>> Planner::PlanFrom(
    const SelectStmt& stmt, std::vector<int>* from_order) {
  if (stmt.from_items.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  // The join pipeline's order: FROM order, except that a star's fact comes
  // first. With the star transformation on and more than two FROM items,
  // the first comma-joined item whose base table the schema classes as a
  // fact moves to the front; the others keep FROM order, and JOIN ... ON
  // items never move.
  std::vector<size_t> order(stmt.from_items.size());
  for (size_t t = 0; t < order.size(); ++t) order[t] = t;
  if (options_.star_transformation && order.size() > 2) {
    for (size_t t = 0; t < order.size(); ++t) {
      const FromItem& item = stmt.from_items[t];
      if (item.join_kind != FromItem::JoinKind::kComma ||
          item.derived != nullptr ||
          plan_->cte_schemas.count(ToLower(item.table_name)) != 0) {
        continue;
      }
      const EngineTable* table = facade_->FindTable(ToLower(item.table_name));
      if (table == nullptr || !table->is_fact()) continue;
      std::rotate(order.begin(), order.begin() + static_cast<long>(t),
                  order.begin() + static_cast<long>(t) + 1);
      break;
    }
  }
  std::vector<const FromItem*> items;
  for (size_t t : order) items.push_back(&stmt.from_items[t]);

  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(stmt.where.get(), &conjuncts);
  std::vector<bool> consumed(conjuncts.size(), false);

  // Index-join deferral (options_.index_joins): a comma-joined base table
  // with no local filters, joined to the preceding scope by exactly one
  // equi conjunct on one of its integer columns, is never scanned — its
  // hash index is probed at join time instead. Decide eligibility on
  // column *metadata* before any scanning.
  struct Deferred {
    EngineTable* table = nullptr;
    std::string qualifier;
    const Expr* left_key = nullptr;  // expression over the earlier scope
    int index_col = -1;
  };
  std::vector<Deferred> deferred(items.size());
  if (options_.index_joins) {
    // Metadata scope of items 0..t-1 (alias-qualified column names only).
    RowSet earlier_meta;
    for (size_t t = 0; t < items.size(); ++t) {
      const FromItem& item = *items[t];
      std::string qualifier =
          item.alias.empty() ? item.table_name : item.alias;
      EngineTable* base =
          item.derived == nullptr &&
                  plan_->cte_schemas.count(ToLower(item.table_name)) == 0
              ? facade_->FindTable(ToLower(item.table_name))
              : nullptr;
      RowSet my_meta;
      if (base != nullptr) {
        for (size_t c = 0; c < base->num_columns(); ++c) {
          my_meta.cols.push_back(
              RowSet::Col{qualifier, base->column_meta(c).name});
        }
      }
      // Derived/CTE columns are unknown pre-execution; they simply stay
      // hash-join candidates (my_meta empty disables matching on them).
      if (t > 0 && base != nullptr &&
          item.join_kind == FromItem::JoinKind::kComma) {
        bool has_local_filter = false;
        const Expr* equi = nullptr;
        const Expr* left_side = nullptr;
        const Expr* right_side = nullptr;
        int spanning = 0;
        for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
          if (consumed[ci]) continue;
          const Expr* c = conjuncts[ci];
          if (ExprHasSubquery(*c)) continue;
          if (ResolvableIn(*c, my_meta)) {
            has_local_filter = true;
            break;
          }
          // A conjunct of the earlier scope alone (`d1_g = 2`: a literal
          // resolves anywhere) does not touch this table.
          if (ResolvableIn(*c, earlier_meta)) continue;
          // Does this conjunct span earlier scope + this table?
          if (c->tag == Expr::Tag::kBinary && c->name == "=") {
            const Expr& a = *c->children[0];
            const Expr& b = *c->children[1];
            if (ResolvableIn(a, earlier_meta) && ResolvableIn(b, my_meta)) {
              ++spanning;
              equi = c;
              left_side = &a;
              right_side = &b;
              continue;
            }
            if (ResolvableIn(b, earlier_meta) && ResolvableIn(a, my_meta)) {
              ++spanning;
              equi = c;
              left_side = &b;
              right_side = &a;
              continue;
            }
          }
          // Any other conjunct touching this table forces a scan.
          RowSet combined = earlier_meta;
          combined.cols.insert(combined.cols.end(), my_meta.cols.begin(),
                               my_meta.cols.end());
          if (ResolvableIn(*c, combined)) {
            spanning += 2;  // disqualify
          }
        }
        if (!has_local_filter && spanning == 1 && equi != nullptr &&
            right_side->tag == Expr::Tag::kColumnRef) {
          int col = base->ColumnIndex(ToLower(right_side->name));
          if (col >= 0) {
            ColumnType type =
                base->column_meta(static_cast<size_t>(col)).type;
            if (type == ColumnType::kIdentifier ||
                type == ColumnType::kInteger) {
              deferred[t].table = base;
              deferred[t].qualifier = qualifier;
              deferred[t].left_key = left_side;
              deferred[t].index_col = col;
              // Consume the equi conjunct: the index join implements it.
              for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
                if (conjuncts[ci] == equi) consumed[ci] = true;
              }
            }
          }
        }
      }
      earlier_meta.cols.insert(earlier_meta.cols.end(), my_meta.cols.begin(),
                               my_meta.cols.end());
    }
  }

  // Plan every non-deferred FROM item (filters pushed down per table).
  std::vector<std::shared_ptr<PlanNode>> inputs;
  inputs.reserve(items.size());
  for (size_t t = 0; t < items.size(); ++t) {
    if (deferred[t].table != nullptr) {
      inputs.push_back(nullptr);
      continue;
    }
    TPCDS_ASSIGN_OR_RETURN(
        std::shared_ptr<PlanNode> node,
        BuildFromItem(stmt, *items[t], conjuncts, &consumed));
    inputs.push_back(std::move(node));
  }

  // Star transformation (semi-join reduction): restrict the first table by
  // every later comma-joined input that equi-joins it on a single key
  // pair, in FROM order. The dimension node is shared between the
  // semi-join and the final hash join, so it is marked for memoisation
  // and scanned once.
  if (options_.star_transformation && inputs.size() > 2) {
    RowSet fact_scope = ScopeOf(*inputs[0]);
    std::shared_ptr<PlanNode> fact = inputs[0];
    for (size_t t = 1; t < items.size(); ++t) {
      if (inputs[t] == nullptr) continue;  // deferred to an index join
      if (items[t]->join_kind != FromItem::JoinKind::kComma) {
        continue;
      }
      RowSet dim_scope = ScopeOf(*inputs[t]);
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (consumed[ci]) continue;
        const Expr* c = conjuncts[ci];
        if (c->tag != Expr::Tag::kBinary || c->name != "=") continue;
        const Expr& a = *c->children[0];
        const Expr& b = *c->children[1];
        const Expr* fact_side = nullptr;
        const Expr* dim_side = nullptr;
        if (ResolvableIn(a, fact_scope) && ResolvableIn(b, dim_scope)) {
          fact_side = &a;
          dim_side = &b;
        } else if (ResolvableIn(b, fact_scope) &&
                   ResolvableIn(a, dim_scope)) {
          fact_side = &b;
          dim_side = &a;
        } else {
          continue;
        }
        inputs[t]->memoize = true;
        auto semi = std::make_shared<PlanNode>();
        semi->kind = PlanKind::kSemiJoinReduce;
        semi->fact_key = fact_side;
        semi->dim_key = dim_side;
        semi->schema = fact->schema;
        semi->num_visible = fact->num_visible;
        semi->children.push_back(std::move(fact));
        semi->children.push_back(inputs[t]);
        fact = std::move(semi);
        // The conjunct stays unconsumed: the hash join still needs it to
        // pair fact rows with the right dimension rows.
        break;
      }
    }
    inputs[0] = std::move(fact);
  }

  // Left-deep join pipeline in that order; widths[t] counts the columns
  // item t adds.
  std::shared_ptr<PlanNode> current = inputs[0];
  std::vector<size_t> widths(items.size(), current->schema.size());
  for (size_t t = 1; t < items.size(); ++t) {
    const FromItem& item = *items[t];
    if (deferred[t].table != nullptr) {
      auto node = std::make_shared<PlanNode>();
      node->kind = PlanKind::kIndexJoin;
      node->table_name = ToLower(item.table_name);
      node->qualifier = deferred[t].qualifier;
      node->index_col = deferred[t].index_col;
      node->probe_key = deferred[t].left_key;
      node->schema = current->schema;
      PruneColumns(stmt, deferred[t].qualifier, deferred[t].table,
                   &node->scan_cols, &node->schema);
      node->num_visible = 0;
      widths[t] = node->schema.size() - current->schema.size();
      node->children.push_back(std::move(current));
      current = std::move(node);
      continue;
    }
    widths[t] = inputs[t]->schema.size();
    std::vector<const Expr*> join_conjuncts;
    if (item.join_kind == FromItem::JoinKind::kComma) {
      // WHERE conjuncts that span exactly the current scope + this table.
      RowSet combined_scope;
      combined_scope.cols = current->schema;
      combined_scope.cols.insert(combined_scope.cols.end(),
                                 inputs[t]->schema.begin(),
                                 inputs[t]->schema.end());
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (consumed[ci]) continue;
        if (ExprHasSubquery(*conjuncts[ci])) continue;
        if (ResolvableIn(*conjuncts[ci], combined_scope)) {
          join_conjuncts.push_back(conjuncts[ci]);
          consumed[ci] = true;
        }
      }
      current = MakeHashJoin(std::move(current), inputs[t], join_conjuncts,
                             false);
    } else {
      std::vector<const Expr*> on_conjuncts;
      FlattenConjuncts(item.join_condition.get(), &on_conjuncts);
      current = MakeHashJoin(std::move(current), inputs[t], on_conjuncts,
                             item.join_kind == FromItem::JoinKind::kLeft);
    }
  }

  // Residual WHERE conjuncts (subqueries, cross-scope ORs, ...).
  std::vector<const Expr*> residual;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    if (!consumed[ci]) residual.push_back(conjuncts[ci]);
  }
  if (!residual.empty()) {
    current = MakeFilter(std::move(current), std::move(residual));
  }
  // SELECT * lists columns in FROM order: the join output's slots of each
  // FROM item in turn.
  from_order->clear();
  if (order[0] != 0) {
    std::vector<size_t> offset(items.size(), 0);
    for (size_t t = 1; t < items.size(); ++t) {
      offset[t] = offset[t - 1] + widths[t - 1];
    }
    for (size_t i = 0; i < items.size(); ++i) {
      size_t t = static_cast<size_t>(
          std::find(order.begin(), order.end(), i) - order.begin());
      for (size_t c = 0; c < widths[t]; ++c) {
        from_order->push_back(static_cast<int>(offset[t] + c));
      }
    }
  }
  return current;
}

}  // namespace

std::string PlanNodeLabel(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan: {
      std::string label =
          StringPrintf("scan %s%s%s: %zu cols, %zu pushed filters",
                       node.table_name.c_str(),
                       node.alias.empty() ? "" : " as ", node.alias.c_str(),
                       node.scan_cols.size(), node.predicates.size());
      if (!node.kernels.empty()) {
        label += StringPrintf(" (%zu kernels, %zu residual)",
                              node.kernels.size(),
                              node.residual_predicates.size());
      }
      return label;
    }
    case PlanKind::kCteRef:
      return StringPrintf("cte %s as %s", node.cte_name.c_str(),
                          node.qualifier.c_str());
    case PlanKind::kDerived:
      return StringPrintf("derived %s", node.qualifier.c_str());
    case PlanKind::kIndexJoin:
      return StringPrintf("index join %s (no scan)",
                          node.table_name.c_str());
    case PlanKind::kSemiJoinReduce:
      return StringPrintf("star semi-join on %s",
                          ExprToString(*node.fact_key).c_str());
    case PlanKind::kHashJoin:
      return StringPrintf(
          "%s%s: %zu equi keys, %zu residual",
          node.equi.empty() ? "nested-loop join" : "hash join",
          node.left_outer ? " (left outer)" : "", node.equi.size(),
          node.residual.size());
    case PlanKind::kFilter:
      return StringPrintf("filter: %zu predicates",
                          node.predicates.size());
    case PlanKind::kAggregate:
      return StringPrintf("aggregate%s: %zu keys, %zu aggregates",
                          node.rollup ? " (rollup)" : "",
                          node.group_by.size(), node.aggs.size());
    case PlanKind::kWindow:
      return StringPrintf("window: %zu functions", node.windows.size());
    case PlanKind::kProject:
      return StringPrintf("project: %zu columns", node.projections.size());
    case PlanKind::kDistinct:
      return "distinct";
    case PlanKind::kSort:
      return StringPrintf("sort: %zu keys", node.sort_keys.size());
    case PlanKind::kTopK:
      return StringPrintf("top-k: %zu keys, limit %lld",
                          node.sort_keys.size(),
                          static_cast<long long>(node.limit));
    case PlanKind::kLimit:
      return StringPrintf("limit %lld",
                          static_cast<long long>(node.limit));
    case PlanKind::kTruncate:
      return "truncate";
    case PlanKind::kSetOp:
      return StringPrintf("set op: %zu branches", node.set_kinds.size());
  }
  return "?";
}

Result<PhysicalPlan> BuildPlan(const DataFacade* facade,
                               const SelectStmt& stmt,
                               const PlannerOptions& options) {
  PhysicalPlan plan;
  Planner planner(facade, options, &plan);
  TPCDS_RETURN_NOT_OK(planner.PlanStatement(stmt));
  return plan;
}

Result<PhysicalPlan> BuildSubqueryPlan(
    const DataFacade* facade, const SelectStmt& stmt,
    const PlannerOptions& options,
    const std::map<std::string, std::vector<RowSet::Col>>& cte_schemas) {
  PhysicalPlan plan;
  plan.cte_schemas = cte_schemas;
  Planner planner(facade, options, &plan);
  TPCDS_ASSIGN_OR_RETURN(plan.root, planner.PlanSelectCore(stmt));
  return plan;
}

}  // namespace tpcds
