#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "engine/agg_parallel.h"
#include "engine/batch.h"
#include "engine/data_facade.h"
#include "engine/expr_eval.h"
#include "engine/governor.h"
#include "engine/group_table.h"
#include "engine/key_table.h"
#include "engine/table.h"
#include "util/fault.h"
#include "util/threadpool.h"

namespace tpcds {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ index form

/// Rows in index form (docs/EXECUTOR.md): one uint32 row index per source
/// instead of a boxed row. Source 0 is a base table read through its
/// storage columns `scan_cols`, or any boxed RowSet (a derived table, a
/// CTE, a set operation's output, a memoised result), read like a build
/// side and never mutated; each hash join adds its build side's rows as
/// the next source, where KeyTable::kNone marks a LEFT JOIN miss. The rows
/// stay in morsel chunks, in order: a chunk holds what grew from at most
/// kBatchRows rows of source 0, row-major, sources() indices per row.
struct IndexedRows {
  std::vector<RowSet::Col> cols;  // the schema of the boxed rows
  const EngineTable* table = nullptr;  // source 0, when read from storage
  const std::vector<int>* scan_cols = nullptr;
  /// Source s's boxed rows; null for source 0 read from `table`.
  std::vector<std::shared_ptr<const RowSet>> rowsets;
  std::vector<size_t> widths;  // columns of each source
  std::vector<std::vector<uint32_t>> chunks;

  size_t sources() const { return widths.size(); }
  size_t size() const {
    size_t n = 0;
    for (const auto& chunk : chunks) n += chunk.size();
    return n / sources();
  }
  /// Drops the chunks no row survived in.
  void DropEmptyChunks() {
    chunks.erase(std::remove_if(chunks.begin(), chunks.end(),
                                [](const auto& c) { return c.empty(); }),
                 chunks.end());
  }
};

/// The Value kind a storage column of `type` holds.
Value::Kind StorageKind(ColumnType type) {
  switch (type) {
    case ColumnType::kDecimal: return Value::Kind::kDecimal;
    case ColumnType::kDate: return Value::Kind::kDate;
    case ColumnType::kChar:
    case ColumnType::kVarchar: return Value::Kind::kString;
    default: return Value::Kind::kInt;
  }
}

/// One column of the index form, read per row tuple: from storage for a
/// table source, from the boxed row otherwise. A kNone index reads NULL.
struct IndexedCol {
  size_t source = 0;
  const StorageColumn* storage = nullptr;  // a table source
  Value::Kind kind = Value::Kind::kNull;   // what the storage holds
  const RowSet* rows = nullptr;            // a boxed source
  size_t slot = 0;                         // the value's slot in its row

  /// The value of the row tuple as a cell: a storage word or view, or a
  /// view of the boxed value.
  Cell CellAt(const uint32_t* tuple) const {
    uint32_t r = tuple[source];
    if (storage == nullptr) {
      return r == KeyTable::kNone ? Cell{} : Cell::Of(rows->rows[r][slot]);
    }
    if (storage->IsNull(r)) return {};
    if (kind == Value::Kind::kString) return {kind, 0, storage->Str(r)};
    return Cell::Word(kind, storage->Num(r));
  }
  /// True when the column's storage words are the integral key words
  /// KeyCell gives its values (ints and dates), so a probe of a KeyTable
  /// on integral words reads them straight from storage.
  bool HoldsIntegers() const {
    return storage != nullptr &&
           (kind == Value::Kind::kInt || kind == Value::Kind::kDate);
  }
};

/// Resolves a bare column against the index form's schema.
Result<IndexedCol> ResolveIndexed(const IndexedRows& in, const Expr& key) {
  RowSet scope;
  scope.cols = in.cols;
  TPCDS_ASSIGN_OR_RETURN(int resolved, scope.Resolve(key.qualifier, key.name));
  IndexedCol col;
  col.slot = static_cast<size_t>(resolved);
  while (col.slot >= in.widths[col.source]) col.slot -= in.widths[col.source++];
  col.rows = in.rowsets[col.source].get();
  if (col.rows == nullptr) {
    col.storage = &in.table->column(
        static_cast<size_t>((*in.scan_cols)[col.slot]));
    col.kind = StorageKind(col.storage->type());
  }
  return col;
}

/// True when `col` may hold a date in the index form's rows: a DATE
/// storage column, or a boxed source holding one.
bool MayHoldDates(const IndexedRows& in, const IndexedCol& col) {
  if (col.storage != nullptr) return col.kind == Value::Kind::kDate;
  size_t k = in.sources();
  for (const auto& chunk : in.chunks) {
    for (size_t i = 0; i < chunk.size(); i += k) {
      if (col.CellAt(&chunk[i]).kind == Value::Kind::kDate) return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- join keys

/// A hash join's or star semi-join's build side, keyed through KeyCell
/// (docs/EXECUTOR.md, "Join keys"). One key whose non-NULL values share
/// one non-string class keys a KeyTable on their equality words; every
/// other build side (two or more keys, string keys, mixed classes) keys the
/// GroupTable key index, behind a Bloom filter of its keys' hashes: most
/// probes of a composite key miss (94% of q2's), and the filter, a few
/// bits a key, turns a miss away without the index's dependent reads.
/// Built with `chain` (a hash join) it is a multimap that chains each
/// key's build rows in ascending order, as KeyTable does; otherwise a key
/// set (a star semi-join). Rows with a NULL key are left out: they never
/// match. A built table is safe to probe from any number of threads.
class JoinTable {
 public:
  /// Indexes build rows [0, rows): cell(r, i) is key i of row r, a view
  /// whose string outlives the table. Where key i holds strings and no
  /// dates, probe_dates(i) says whether the probe side may hold dates
  /// there; where dates meet strings, both sides' strings key by the
  /// DATE/string rule (DateKeyed). reserve(bytes) is called with what the
  /// table allocates, before it does.
  template <typename CellAt, typename ProbeDates, typename Reserve>
  JoinTable(size_t rows, size_t nkeys, bool chain, const CellAt& cell,
            const ProbeDates& probe_dates, const Reserve& reserve)
      : nkeys_(nkeys), date_keyed_(nkeys) {
    size_t chained = chain ? rows : 0;
    if (nkeys == 1 && KeyWords(rows, chained, cell, reserve)) return;
    std::vector<KeyKinds> kinds(nkeys);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t i = 0; i < nkeys; ++i) kinds[i].Add(cell(r, i));
    }
    for (size_t i = 0; i < nkeys; ++i) {
      date_keyed_[i] =
          kinds[i].dates || (kinds[i].strings && probe_dates(i));
    }
    index_.emplace(nkeys);
    reserve(static_cast<int64_t>(
        rows * (index_->group_bytes() + 2 * sizeof(uint32_t)) +
        BloomFilter::BitsFor(rows) / 8));
    bloom_.emplace(rows);
    next_.assign(chained, KeyTable::kNone);
    std::vector<uint32_t> tail;
    std::vector<KeyCell> key(nkeys);
    for (size_t r = 0; r < rows; ++r) {
      bool has_null = false;
      for (size_t i = 0; i < nkeys; ++i) {
        key[i] = KeyCell::Of(cell(r, i));
        if (date_keyed_[i]) key[i] = DateKeyed(key[i]);
        has_null |= key[i].cls == KeyClass::kNull;
      }
      if (has_null) continue;
      bool created = false;
      uint64_t h = HashKey(key.data(), nkeys);
      uint32_t g = index_->FindOrAdd(key.data(), h, r, /*stable=*/true,
                                     &created);
      if (created) bloom_->Add(h);
      if (!chain) continue;
      if (created) {
        tail.push_back(static_cast<uint32_t>(r));
      } else {
        next_[tail[g]] = static_cast<uint32_t>(r);
        tail[g] = static_cast<uint32_t>(r);
      }
    }
  }

  /// The first build row whose keys equal the probe row's `key`, else
  /// KeyTable::kNone. Applies the DATE/string rule to `key` in place.
  uint32_t Find(KeyCell* key) const {
    for (size_t i = 0; i < nkeys_; ++i) {
      if (key[i].cls == KeyClass::kNull) return KeyTable::kNone;
      if (date_keyed_[i]) key[i] = DateKeyed(key[i]);
    }
    if (words_) {
      return key[0].cls == cls_ ? words_->Find(key[0].eq) : KeyTable::kNone;
    }
    uint64_t h = HashKey(key, nkeys_);
    if (!bloom_->MayContain(h)) return KeyTable::kNone;
    uint32_t g = index_->Find(key, h);
    return g == GroupTable::kNone
               ? KeyTable::kNone
               : static_cast<uint32_t>(index_->first_row(g));
  }
  /// The build row after `r` under its key, or KeyTable::kNone (`chain`).
  uint32_t Next(uint32_t r) const {
    return words_ ? words_->Next(r) : next_[r];
  }
  /// The KeyTable, when it holds integral words, for a probe column that
  /// reads its words straight from storage (IndexedCol::HoldsIntegers).
  const KeyTable* integers() const {
    return words_ && cls_ == KeyClass::kIntegral ? &*words_ : nullptr;
  }

  /// The distinct values of key i, for a scan pushdown: a KeyTable's words
  /// as ints or doubles, the key index's cells as they were keyed.
  std::vector<Cell> Keys(size_t i) const {
    std::vector<Cell> out;
    if (words_) {
      out.reserve(words_->size());
      words_->ForEachKey([&](int64_t w) {
        out.push_back(cls_ == KeyClass::kDouble
                          ? Cell{Value::Kind::kDouble, w, {}}
                          : Cell::Word(Value::Kind::kInt, w));
      });
      return out;
    }
    GroupTable distinct(1);
    for (uint32_t g = 0; g < index_->size(); ++g) {
      KeyCell k = index_->key(g)[i];
      bool created = false;
      distinct.FindOrAdd(&k, HashKey(&k, 1), 0, /*stable=*/true, &created);
      if (created) out.push_back(k.cell);
    }
    return out;
  }

 private:
  /// Builds the KeyTable over key 0 in one pass, as most build sides
  /// allow, and returns true; returns false, and keeps no table, at a
  /// string key or at a key of another class than the first.
  template <typename CellAt, typename Reserve>
  bool KeyWords(size_t rows, size_t chained, const CellAt& cell,
                const Reserve& reserve) {
    size_t r = 0;
    while (r < rows && cell(r, 0).is_null()) ++r;
    cls_ = r < rows ? KeyCell::Of(cell(r, 0)).cls : KeyClass::kNull;
    if (cls_ == KeyClass::kString) return false;
    reserve(KeyTable::BytesFor(rows, chained));
    words_.emplace(rows, chained);
    bool dates = false;
    for (; r < rows; ++r) {
      Cell c = cell(r, 0);
      if (c.is_null()) continue;
      KeyCell k = KeyCell::Of(c);
      if (k.cls != cls_) {
        words_.reset();
        return false;
      }
      dates |= c.kind == Value::Kind::kDate;
      words_->Insert(k.eq, static_cast<uint32_t>(r));
    }
    date_keyed_[0] = dates;
    return true;
  }

  size_t nkeys_;
  std::vector<bool> date_keyed_;  // key i keys strings by DateKeyed
  KeyClass cls_ = KeyClass::kNull;  // the KeyTable's class
  std::optional<KeyTable> words_;
  std::optional<GroupTable> index_;
  std::optional<BloomFilter> bloom_;  // the key index's key hashes
  std::vector<uint32_t> next_;        // the key index's chains
};

/// Keys rows by their first `width` values, for the key index. Every
/// row that will be keyed is first shown to Scan: in a column that holds
/// dates in some rows and strings in others, a string naming a date keys
/// as that date (DateKeyed).
class RowKeys {
 public:
  explicit RowKeys(size_t width) : kinds_(width), key_(width) {}

  void Scan(const Value* row) {
    for (size_t c = 0; c < kinds_.size(); ++c) {
      kinds_[c].Add(Cell::Of(row[c]));
    }
  }
  /// The key of `row`, valid until the next call; its strings are views.
  const KeyCell* Of(const Value* row) {
    for (size_t c = 0; c < key_.size(); ++c) {
      key_[c] = KeyCell::Of(Cell::Of(row[c]));
      if (kinds_[c].mixed()) key_[c] = DateKeyed(key_[c]);
    }
    return key_.data();
  }

 private:
  std::vector<KeyKinds> kinds_;
  std::vector<KeyCell> key_;
};

/// Reads rows of the index form as boxed rows, writing the slots marked in
/// `read` (every slot when it is empty) in place: a table source's columns
/// gathered from storage a column at a time, a boxed source's values
/// copied from its row, NULL for a LEFT JOIN miss. ReadTuples reads any
/// index tuples of the form's shape, such as a chunk an operator is still
/// filtering; Read reads a global morsel, rows [b, e) of the chunks as they
/// were when the reader was made, whichever chunks hold them, so work
/// split into kBatchRows morsels of the reader has the boundaries it has
/// over the materialised rows. Materialize reads every slot into the final
/// rows; the other readers read the slots their expressions use into a
/// scratch batch they reuse.
class IndexReader {
 public:
  IndexReader(const IndexedRows& in, const std::vector<bool>& read)
      : in_(in), offset_(in.chunks.size() + 1, 0) {
    size_t k = in.sources();
    for (size_t c = 0; c < in.chunks.size(); ++c) {
      offset_[c + 1] = offset_[c] + in.chunks[c].size() / k;
    }
    size_t slot = 0;
    for (size_t s = 0; s < k; ++s) {
      for (size_t i = 0; i < in.widths[s]; ++i, ++slot) {
        if (!read.empty() && !read[slot]) continue;
        Col col{s, slot, i, nullptr, in.rowsets[s].get()};
        if (col.rows == nullptr) {
          col.storage = &in.table->column(
              static_cast<size_t>((*in.scan_cols)[i]));
        }
        cols_.push_back(col);
      }
    }
    width_ = slot;
  }

  size_t size() const { return offset_.back(); }
  size_t width() const { return width_; }
  size_t sources() const { return in_.sources(); }

  /// Points out[0], ..., out[e - b - 1] at the index tuples of rows [b, e).
  void Tuples(size_t b, size_t e, const uint32_t** out) const {
    ForEachSpan(b, e, [&](const uint32_t* tuples, size_t n, size_t at) {
      for (size_t i = 0; i < n; ++i) out[at + i] = tuples + i * sources();
    });
  }

  /// Writes the read slots of rows [b, e) into out[0], ..., out[e - b - 1],
  /// each at least width() values wide.
  void Read(size_t b, size_t e, std::vector<Value>* out) const {
    ForEachSpan(b, e, [&](const uint32_t* tuples, size_t n, size_t at) {
      ReadTuples(tuples, n, out + at);
    });
  }

  /// Writes the read slots of the n index tuples from `tuples` on into
  /// rows[0], ..., rows[n - 1], each at least width() values wide.
  void ReadTuples(const uint32_t* tuples, size_t n,
                  std::vector<Value>* rows) const {
    size_t k = sources();
    for (const Col& col : cols_) {
      if (col.storage != nullptr) {
        GatherColumn(*col.storage, tuples, n, k, col.slot, rows);
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        uint32_t r = tuples[i * k + col.source];
        if (r == KeyTable::kNone) {
          rows[i][col.slot].SetNull();
        } else {
          rows[i][col.slot] = col.rows->rows[r][col.at];
        }
      }
    }
  }

 private:
  /// Calls fn(tuples, n, at) for each chunk's part of rows [b, e): n index
  /// tuples from `tuples` on, rows at - b on of the range.
  template <typename Fn>
  void ForEachSpan(size_t b, size_t e, const Fn& fn) const {
    size_t k = sources();
    size_t c = static_cast<size_t>(
        std::upper_bound(offset_.begin(), offset_.end(), b) -
        offset_.begin() - 1);
    for (size_t row = b; row < e; ++c) {
      size_t n = std::min(e, offset_[c + 1]) - row;
      if (n == 0) continue;  // an empty chunk
      fn(&in_.chunks[c][(row - offset_[c]) * k], n, row - b);
      row += n;
    }
  }

  struct Col {
    size_t source;  // index within the tuple
    size_t slot;    // slot in the boxed row
    size_t at;      // column within its source
    const StorageColumn* storage;  // a table source
    const RowSet* rows;            // a boxed source
  };

  const IndexedRows& in_;
  std::vector<size_t> offset_;  // offset_[c]: rows before chunk c
  std::vector<Col> cols_;
  size_t width_ = 0;
};

/// Direct slot passthrough (ORDER BY ordinals, star expansion).
class SlotExpr : public BoundExpr {
 public:
  explicit SlotExpr(int idx) : idx_(idx) {}
  Value Eval(const std::vector<Value>& row) const override {
    return row[static_cast<size_t>(idx_)];
  }

 private:
  int idx_;
};

// -------------------------------------------------------------- executor

class PlanExecutor : public SubqueryEvaluator {
 public:
  /// Top-level executor: owns the intra-query pool when parallelism > 1.
  /// `governor` enforces the options' limits and is shared by every nested
  /// subquery executor so the whole statement obeys one budget.
  PlanExecutor(const DataFacade* facade, const PlannerOptions& options,
               ExecStats* stats, const PhysicalPlan* plan,
               QueryGovernor* governor)
      : facade_(facade),
        options_(options),
        stats_(stats),
        plan_(plan),
        governor_(governor),
        track_(governor->has_limits() || FaultInjector::Global().enabled()) {
    int workers = options.parallelism;
    if (workers == 0) {
      workers = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (workers > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(
          static_cast<size_t>(workers));
      pool_ = owned_pool_.get();
    }
    batches_.resize(Workers());
  }

  /// Nested executor for uncorrelated subqueries: shares the parent's
  /// pool, governor, CTE results, and stat counters (subquery scans count,
  /// exactly as the pre-plan-tree executor counted them).
  PlanExecutor(const DataFacade* facade, const PlannerOptions& options,
               ExecStats* stats, const PhysicalPlan* plan,
               QueryGovernor* governor, ThreadPool* pool,
               const std::map<std::string, std::shared_ptr<RowSet>>& ctes)
      : facade_(facade),
        options_(options),
        stats_(stats),
        plan_(plan),
        governor_(governor),
        track_(governor->has_limits() || FaultInjector::Global().enabled()),
        pool_(pool),
        cte_results_(ctes),
        batches_(Workers()) {}

  Result<std::shared_ptr<RowSet>> Run() {
    for (const auto& [name, node] : plan_->ctes) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs, Exec(node));
      cte_results_[name] = std::move(rs);
    }
    return Exec(plan_->root);
  }

  // SubqueryEvaluator: first visible column of the subquery result.
  Result<std::vector<Value>> EvaluateColumn(const SelectStmt& stmt) override {
    TPCDS_ASSIGN_OR_RETURN(
        PhysicalPlan sub,
        BuildSubqueryPlan(facade_, stmt, options_, plan_->cte_schemas));
    PlanExecutor nested(facade_, options_, stats_, &sub, governor_, pool_,
                        cte_results_);
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs, nested.Run());
    std::vector<Value> out;
    out.reserve(rs->rows.size());
    for (const auto& row : rs->rows) {
      if (!row.empty()) out.push_back(row[0]);
    }
    return out;
  }

 private:
  using RowList = std::vector<std::vector<Value>>;

  // ---- infrastructure -------------------------------------------------

  Result<std::shared_ptr<RowSet>> Exec(
      const std::shared_ptr<PlanNode>& node) {
    if (node->memoize) {
      auto it = memo_.find(node.get());
      if (it != memo_.end()) return it->second;
    }
    Result<std::shared_ptr<RowSet>> result =
        Instrumented<std::shared_ptr<RowSet>>(
            *node, [&] { return Dispatch(*node); });
    if (result.ok() && node->memoize) memo_[node.get()] = *result;
    return result;
  }

  /// Runs `node` for a consumer that reads the index form: as an operator
  /// of the index form when it runs as one and is not shared, else its
  /// boxed rows wrapped as the one source.
  Result<IndexedRows> ExecIndexed(const std::shared_ptr<PlanNode>& node) {
    if (node->memoize || !InIndexForm(*node)) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs, Exec(node));
      std::vector<RowSet::Col> cols = rs->cols;
      return Wrapped(std::move(rs), std::move(cols));
    }
    return Instrumented<IndexedRows>(*node,
                                     [&] { return RunIndexed(*node); });
  }

  /// True when `node` runs as an operator of the index form: a CTE
  /// reference always, and on the vectorized path every scan, filter,
  /// star semi-join on a bare fact column and equi hash join on bare
  /// probe-side columns but a LEFT JOIN with residual predicates. Every
  /// other node runs its row operator.
  bool InIndexForm(const PlanNode& node) const {
    if (node.kind == PlanKind::kCteRef) return true;
    if (!options_.vectorized_execution) return false;
    switch (node.kind) {
      case PlanKind::kScan: {
        const EngineTable* table = facade_->FindTable(node.table_name);
        return table != nullptr &&
               static_cast<uint64_t>(table->num_rows()) < KeyTable::kNone;
      }
      case PlanKind::kFilter:
        return true;
      case PlanKind::kSemiJoinReduce:
        return node.fact_key->tag == Expr::Tag::kColumnRef;
      case PlanKind::kHashJoin:
        if (node.equi.empty() || (node.left_outer && !node.residual.empty())) {
          return false;
        }
        for (const PlanEquiKey& key : node.equi) {
          if (key.left->tag != Expr::Tag::kColumnRef) return false;
        }
        return true;
      default:
        return false;
    }
  }

  /// Runs an InIndexForm() node as an operator of the index form.
  Result<IndexedRows> RunIndexed(const PlanNode& node) {
    switch (node.kind) {
      case PlanKind::kScan: return ScanIndexed(node);
      case PlanKind::kCteRef: return CteIndexed(node);
      case PlanKind::kFilter: return FilterIndexed(node);
      case PlanKind::kSemiJoinReduce: return SemiJoinIndexed(node);
      default: return HashJoinIndexed(node);
    }
  }

  /// `rs` in index form: one boxed source, in kBatchRows chunks of row
  /// indices, read under the schema `cols`.
  static IndexedRows Wrapped(std::shared_ptr<const RowSet> rs,
                             std::vector<RowSet::Col> cols) {
    IndexedRows out;
    out.widths = {cols.size()};
    out.cols = std::move(cols);
    size_t n = rs->rows.size();
    out.chunks.resize(MorselCount(n));
    for (size_t m = 0; m < out.chunks.size(); ++m) {
      std::vector<uint32_t>& chunk = out.chunks[m];
      chunk.resize(std::min(n, (m + 1) * kBatchRows) - m * kBatchRows);
      std::iota(chunk.begin(), chunk.end(),
                static_cast<uint32_t>(m * kBatchRows));
    }
    out.rowsets = {std::move(rs)};
    return out;
  }

  /// The bookkeeping of every operator, whatever form its output takes:
  /// the op-open fault point, self time (children excluded), and rows in
  /// and out.
  template <typename Out, typename Body>
  Result<Out> Instrumented(const PlanNode& node, const Body& body) {
    if (track_) TPCDS_FAULT_POINT("op-open");
    double saved_child = child_seconds_;
    child_seconds_ = 0;
    double start = NowSeconds();
    Result<Out> result = body();
    double total = NowSeconds() - start;
    node.stats.executed = true;
    node.stats.seconds = total - child_seconds_;
    child_seconds_ = saved_child + total;
    if (!result.ok()) return result;
    // Morsel workers don't propagate errors themselves — a tripped
    // governor (deadline, budget, cancel, injected morsel fault) leaves
    // partial operator output behind, which must never be returned as a
    // real result.
    if (governor_->cancelled()) return governor_->status();
    if (!node.children.empty()) {
      int64_t in = 0;
      for (const auto& c : node.children) in += c->stats.rows_out;
      node.stats.rows_in = in;
    }
    node.stats.rows_out = static_cast<int64_t>(RowCount(*result));
    return result;
  }

  static size_t RowCount(const std::shared_ptr<RowSet>& rs) {
    return rs->rows.size();
  }
  static size_t RowCount(const IndexedRows& rows) { return rows.size(); }

  Result<std::shared_ptr<RowSet>> Dispatch(const PlanNode& node) {
    if (InIndexForm(node)) return Materialize(RunIndexed(node));
    switch (node.kind) {
      case PlanKind::kScan: return ExecScan(node);
      case PlanKind::kCteRef: break;  // always InIndexForm
      case PlanKind::kDerived: return ExecDerived(node);
      case PlanKind::kIndexJoin: return ExecIndexJoin(node);
      case PlanKind::kSemiJoinReduce: return ExecSemiJoinReduce(node);
      case PlanKind::kHashJoin: return ExecHashJoin(node);
      case PlanKind::kFilter: return ExecFilter(node);
      case PlanKind::kAggregate: return ExecAggregate(node);
      case PlanKind::kWindow: return ExecWindow(node);
      case PlanKind::kProject: return ExecProject(node);
      case PlanKind::kDistinct: return ExecDistinct(node);
      case PlanKind::kSort: return ExecSort(node);
      case PlanKind::kTopK: return ExecTopK(node);
      case PlanKind::kLimit: return ExecLimit(node);
      case PlanKind::kTruncate: return ExecTruncate(node);
      case PlanKind::kSetOp: return ExecSetOp(node);
    }
    return Status::InvalidArgument("unknown plan node");
  }

  /// Executes a child whose result this operator will mutate in place.
  /// Memoised (shared) results are copied; exclusive ones pass through.
  Result<std::shared_ptr<RowSet>> ExecOwned(
      const std::shared_ptr<PlanNode>& child) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs, Exec(child));
    if (child->memoize) return std::make_shared<RowSet>(*rs);
    return rs;
  }

  static size_t MorselCount(size_t n) {
    return (n + kBatchRows - 1) / kBatchRows;
  }

  /// Runs fn(i) for every i in [0, count). With a pool, work units are
  /// pulled from a shared atomic counter by up to num_threads() pool
  /// workers *and the calling thread* — one submitted task per worker,
  /// not per unit, so scheduling overhead is O(workers). `fn` must be
  /// pure w.r.t. shared state except its own unit's slot; which thread
  /// runs a unit never affects the result. A tripped governor makes every
  /// worker stop pulling units; the enclosing Exec() turns the partial
  /// output into the governor's error.
  template <typename Fn>
  void ParallelFor(size_t count, const Fn& fn) {
    ParallelForWorkers(count, [&fn](size_t i, size_t) { fn(i); });
  }

  /// The threads a ParallelFor runs units on: the pool's and the caller.
  size_t Workers() const {
    return pool_ == nullptr ? 1 : pool_->num_threads() + 1;
  }

  /// ParallelFor with fn(i, worker): `worker` < Workers() names the thread
  /// running unit i (0 is the calling thread), so a unit may use scratch
  /// space that belongs to that thread.
  template <typename Fn>
  void ParallelForWorkers(size_t count, const Fn& fn) {
    QueryGovernor* gov = governor_;
    if (pool_ == nullptr || count <= 1) {
      for (size_t i = 0; i < count; ++i) {
        if (gov->cancelled()) return;
        fn(i, 0);
      }
      return;
    }
    std::atomic<size_t> next{0};
    auto drain = [&next, &fn, gov, count](size_t worker) {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        if (gov->cancelled()) return;
        fn(i, worker);
      }
    };
    size_t helpers = std::min(pool_->num_threads(), count - 1);
    for (size_t t = 0; t < helpers; ++t) {
      pool_->Submit([&drain, t] { drain(t + 1); });
    }
    drain(0);
    pool_->WaitIdle();
  }

  /// Runs fn(unit, worker) for each of `count` morsel-sized work units,
  /// `worker` as in ParallelForWorkers. Each unit passes the governor's
  /// boundary check (cancellation token, deadline, "morsel" fault site)
  /// before it runs — the unit of responsiveness the limits are specified
  /// in.
  template <typename Fn>
  void ForEachUnit(size_t count, const Fn& fn) {
    QueryGovernor* gov = governor_;
    bool checked = track_;
    ParallelForWorkers(count, [&fn, gov, checked](size_t u, size_t worker) {
      if (checked && !gov->BeginMorsel()) return;
      fn(u, worker);
    });
  }

  /// Runs fn(begin, end, morsel_index) over [0, n) in kBatchRows morsels.
  template <typename Fn>
  void ForEachMorsel(size_t n, const Fn& fn) {
    ForEachUnit(MorselCount(n), [&fn, n](size_t m, size_t) {
      size_t b = m * kBatchRows;
      fn(b, std::min(n, b + kBatchRows), m);
    });
  }

  /// Worker `worker`'s scratch batch, its first n <= kBatchRows rows
  /// `width` values wide. It is overwritten by every read and kept warm
  /// across the statement's operators, so a warm batch allocates nothing
  /// per row unless a string outgrows its slot.
  std::vector<Value>* Batch(size_t worker, size_t n, size_t width) {
    RowList& batch = batches_[worker];
    if (batch.size() < n) batch.resize(n);
    for (size_t i = 0; i < n; ++i) batch[i].resize(width);
    return batch.data();
  }

  /// Predicates bound over the index form's schema, and a reader of its
  /// shape that reads the slots they use.
  struct IndexedPreds {
    std::vector<std::unique_ptr<BoundExpr>> bound;
    IndexReader reader;
  };

  Result<IndexedPreds> BindIndexed(const std::vector<const Expr*>& preds,
                                   const IndexedRows& in) {
    RowSet scope;
    scope.cols = in.cols;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> bound,
                           BindAll(preds, scope));
    return IndexedPreds{std::move(bound),
                        IndexReader(in, SlotsRead(preds, scope))};
  }

  /// Keeps the index tuples of `chunk`, of the predicates' reader's shape,
  /// whose row passes every predicate, in order and in place: reads them,
  /// at most kBatchRows at a time, into the worker's scratch batch, in the
  /// slots the predicates use.
  void KeepPassing(const IndexedPreds& preds, size_t worker,
                   std::vector<uint32_t>* chunk) {
    const IndexReader& reader = preds.reader;
    size_t k = reader.sources();
    size_t n = chunk->size() / k;
    uint32_t* tuples = chunk->data();
    size_t kept = 0;
    for (size_t b = 0; b < n; b += kBatchRows) {
      size_t e = std::min(n, b + kBatchRows);
      std::vector<Value>* rows = Batch(worker, e - b, reader.width());
      reader.ReadTuples(&tuples[b * k], e - b, rows);
      for (size_t i = b; i < e; ++i) {
        if (!PassesAll(preds.bound, rows[i - b])) continue;
        for (size_t s = 0; s < k; ++s) tuples[kept * k + s] = tuples[i * k + s];
        ++kept;
      }
    }
    chunk->resize(kept * k);
  }

  /// Charges one operator's freshly materialised buffer against the row
  /// and memory budgets (and the "alloc" fault site). No-op while the
  /// query is ungoverned and no faults are armed, so the hot path pays a
  /// single branch.
  void ChargeRows(const RowList& buf, size_t from = 0) {
    if (!track_ || buf.size() <= from) return;
    int64_t bytes = 0;
    for (size_t i = from; i < buf.size(); ++i) {
      bytes += ApproxRowBytes(buf[i]);
    }
    if (!governor_->ChargeRows(static_cast<int64_t>(buf.size() - from))) {
      return;
    }
    governor_->Reserve(bytes);
  }

  /// Concatenates per-morsel output buffers in morsel order — this is what
  /// keeps parallel row order identical to the serial row order.
  static void ConcatMorsels(std::vector<RowList>* bufs, RowList* out) {
    size_t total = 0;
    for (const RowList& b : *bufs) total += b.size();
    out->reserve(out->size() + total);
    for (RowList& b : *bufs) {
      for (auto& row : b) out->push_back(std::move(row));
    }
  }

  Result<std::vector<std::unique_ptr<BoundExpr>>> BindAll(
      const std::vector<const Expr*>& exprs, const RowSet& scope) {
    std::vector<std::unique_ptr<BoundExpr>> out;
    out.reserve(exprs.size());
    for (const Expr* e : exprs) {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                             BindExpr(*e, scope, this));
      out.push_back(std::move(b));
    }
    return out;
  }

  static bool PassesAll(const std::vector<std::unique_ptr<BoundExpr>>& preds,
                        const std::vector<Value>& row) {
    for (const auto& p : preds) {
      Value v = p->Eval(row);
      if (v.is_null() || !v.IsTruthy()) return false;
    }
    return true;
  }

  // ---- leaf operators -------------------------------------------------

  /// A join-key filter a hash/semi join registered on its probe-side scan:
  /// rows whose key column can't be in the build side's key set are dropped
  /// inside the scan morsel. The Bloom filter (owned by the registering
  /// join's stack frame, unregistered before it returns) only has false
  /// positives, and the join's exact key check still runs downstream, so
  /// results stay byte-identical.
  struct ScanPushdown {
    int col = -1;               // storage column on the scanned table
    bool is_string = false;
    const BloomFilter* bloom = nullptr;
    bool has_range = false;     // int-backed: min/max over the build keys
    int64_t lo = 0;
    int64_t hi = 0;
  };

  /// The join-key filters registered on `node`, or nullptr.
  const std::vector<ScanPushdown>* PushdownsOf(const PlanNode& node) const {
    auto it = pushdowns_.find(&node);
    return it != pushdowns_.end() && !it->second.empty() ? &it->second
                                                         : nullptr;
  }

  Result<EngineTable*> ScanTable(const PlanNode& node) const {
    EngineTable* table = facade_->FindTable(node.table_name);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + node.table_name);
    }
    return table;
  }

  /// The row path's scan: boxes every row and keeps those that pass the
  /// scan's predicates.
  Result<std::shared_ptr<RowSet>> ExecScan(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(EngineTable* table, ScanTable(node));
    RowSet scope;
    scope.cols = node.schema;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> filters,
                           BindAll(node.predicates, scope));

    auto rs = std::make_shared<RowSet>();
    rs->cols = node.schema;
    int64_t n = table->num_rows();
    node.stats.rows_in = n;
    if (stats_ != nullptr) stats_->rows_scanned += n;

    // Row-at-a-time path reads every scanned column in full.
    int64_t scan_bytes = 0;
    for (int c : node.scan_cols) {
      scan_bytes += static_cast<int64_t>(
          table->column(static_cast<size_t>(c)).PayloadByteSize());
    }
    node.stats.bytes_touched += scan_bytes;
    if (stats_ != nullptr) stats_->bytes_touched += scan_bytes;

    std::vector<RowList> bufs(MorselCount(static_cast<size_t>(n)));
    ForEachMorsel(static_cast<size_t>(n), [&](size_t b, size_t e, size_t m) {
      RowList& buf = bufs[m];
      std::vector<Value> row;
      for (size_t r = b; r < e; ++r) {
        row.clear();
        row.reserve(node.scan_cols.size());
        for (int c : node.scan_cols) {
          row.push_back(table->GetValue(static_cast<int64_t>(r), c));
        }
        if (PassesAll(filters, row)) buf.push_back(row);
      }
      ChargeRows(buf);
    });
    ConcatMorsels(&bufs, &rs->rows);
    return rs;
  }

  /// A vectorized scan in index form: its selection vectors, one chunk
  /// per morsel that kept rows. Nothing is boxed: the residual predicates
  /// read the selected rows into the worker's scratch batch. The rows that
  /// pass count against the row budget here, and their indices against
  /// the memory budget.
  Result<IndexedRows> ScanIndexed(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(EngineTable* table, ScanTable(node));
    IndexedRows out;
    out.cols = node.schema;
    out.table = table;
    out.scan_cols = &node.scan_cols;
    out.rowsets = {nullptr};
    out.widths = {node.scan_cols.size()};
    TPCDS_ASSIGN_OR_RETURN(IndexedPreds residual,
                           BindIndexed(node.residual_predicates, out));
    out.chunks.resize(MorselCount(table->num_rows()));
    SelectRows(node, *table, [&](size_t m, size_t worker,
                                 SelectionVector& sel) {
      if (!residual.bound.empty() && !sel.empty()) {
        KeepPassing(residual, worker, &sel);
      }
      ChargeIndexRows(sel.size(), 1);
      out.chunks[m] = std::move(sel);
    });
    out.DropEmptyChunks();
    return out;
  }

  /// A CTE reference in index form: the CTE's rows, read in place under
  /// the reference's schema.
  Result<IndexedRows> CteIndexed(const PlanNode& node) {
    auto it = cte_results_.find(node.cte_name);
    if (it == cte_results_.end()) {
      return Status::InvalidArgument("unknown CTE: " + node.cte_name);
    }
    node.stats.rows_in = static_cast<int64_t>(it->second->rows.size());
    return Wrapped(it->second, node.schema);
  }

  /// Charges `rows` freshly produced index tuples of `sources` indices
  /// against the row and memory budgets, as ChargeRows does boxed rows.
  void ChargeIndexRows(size_t rows, size_t sources) {
    if (!track_ || rows == 0) return;
    if (!governor_->ChargeRows(static_cast<int64_t>(rows))) return;
    governor_->Reserve(
        static_cast<int64_t>(rows * sources * sizeof(uint32_t)));
  }

  /// Boxes rows in index form, once, for a consumer that does not read
  /// the index form itself: the IndexReader writes every slot, a morsel at
  /// a time, into the final rows. The rows were counted where they were
  /// produced; their bytes are charged here.
  Result<std::shared_ptr<RowSet>> Materialize(Result<IndexedRows> result) {
    TPCDS_ASSIGN_OR_RETURN(IndexedRows in, std::move(result));
    IndexReader reader(in, {});
    auto out = std::make_shared<RowSet>();
    out->rows.resize(reader.size());
    ForEachMorsel(reader.size(), [&](size_t b, size_t e, size_t) {
      std::vector<Value>* rows = &out->rows[b];
      for (size_t i = 0; i < e - b; ++i) rows[i].resize(reader.width());
      reader.Read(b, e, rows);
      if (track_) {
        int64_t bytes = 0;
        for (size_t i = 0; i < e - b; ++i) bytes += ApproxRowBytes(rows[i]);
        governor_->Reserve(bytes);
      }
    });
    out->cols = std::move(in.cols);
    return out;
  }

  /// The selection every vectorized scan runs: zone maps prune whole
  /// morsels first, then typed kernels and pushed join-key filters compact
  /// each remaining morsel's identity selection on the raw storage
  /// vectors, and emit(morsel, worker, selection) runs in the morsel's
  /// task.
  /// Counts the scan's work: every table row scanned, the payload of the
  /// morsels read, morsels pruned and Bloom rejects.
  template <typename Emit>
  void SelectRows(const PlanNode& node, EngineTable& table,
                  const Emit& emit) {
    const std::vector<ScanPushdown>* pushdowns = PushdownsOf(node);
    int64_t n = table.num_rows();
    // A scan with neither kernels nor pushdowns filters nothing on raw
    // storage: no morsel can be pruned.
    const bool prunable = !node.kernels.empty() || pushdowns != nullptr;
    node.stats.rows_in = n;
    if (prunable) node.stats.vectorized = true;
    if (stats_ != nullptr) stats_->rows_scanned += n;

    // Zone-map checks, one per prunable kernel and pushed key range. Built
    // (or fetched) before the parallel morsels: the getter mutates the
    // table's lazy cache under its own mutex.
    bool always_false = false;
    struct KernelZone {
      const ZoneMap* zm;
      const ScanKernel* k;
    };
    std::vector<KernelZone> kernel_zones;
    for (const ScanKernel& k : node.kernels) {
      if (k.kind == ScanKernel::Kind::kAlwaysFalse) {
        always_false = true;
        continue;
      }
      if (k.kind != ScanKernel::Kind::kIntRange &&
          k.kind != ScanKernel::Kind::kIntIn &&
          k.kind != ScanKernel::Kind::kNullTest) {
        continue;
      }
      const ZoneMap* zm = table.GetOrBuildZoneMap(k.col);
      if (zm != nullptr) kernel_zones.push_back({zm, &k});
    }
    struct RangeZone {
      const ZoneMap* zm;
      int64_t lo;
      int64_t hi;
    };
    std::vector<RangeZone> range_zones;
    if (pushdowns != nullptr) {
      for (const ScanPushdown& pd : *pushdowns) {
        if (!pd.has_range) continue;
        const ZoneMap* zm = table.GetOrBuildZoneMap(pd.col);
        if (zm != nullptr) range_zones.push_back({zm, pd.lo, pd.hi});
      }
    }

    // Morsel-granular payload accounting: the storage columns this scan
    // reads (output + kernel + pushdown), charged per non-pruned morsel in
    // proportion to its rows. Integer math on fixed morsel boundaries, so
    // the total is identical at any parallelism. A scan nothing can prune
    // reads its columns in full and is charged exactly that.
    std::vector<int> touched_cols = node.scan_cols;
    for (const ScanKernel& k : node.kernels) touched_cols.push_back(k.col);
    if (pushdowns != nullptr) {
      for (const ScanPushdown& pd : *pushdowns) touched_cols.push_back(pd.col);
    }
    std::sort(touched_cols.begin(), touched_cols.end());
    touched_cols.erase(
        std::unique(touched_cols.begin(), touched_cols.end()),
        touched_cols.end());
    int64_t touched_payload = 0;
    for (int c : touched_cols) {
      touched_payload += static_cast<int64_t>(
          table.column(static_cast<size_t>(c)).PayloadByteSize());
    }

    std::atomic<int64_t> pruned{0};
    std::atomic<int64_t> rejects{0};
    std::atomic<int64_t> bytes{prunable ? 0 : touched_payload};
    ForEachUnit(MorselCount(static_cast<size_t>(n)), [&](size_t m,
                                                         size_t worker) {
      size_t b = m * kBatchRows;
      size_t e = std::min(static_cast<size_t>(n), b + kBatchRows);
      if (always_false) {
        pruned.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (const KernelZone& kz : kernel_zones) {
        if (m < kz.zm->blocks.size() &&
            KernelPrunesBlock(*kz.k, kz.zm->blocks[m])) {
          pruned.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      for (const RangeZone& rz : range_zones) {
        if (m < rz.zm->blocks.size() &&
            RangePrunesBlock(rz.zm->blocks[m], rz.lo, rz.hi)) {
          pruned.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      if (prunable) {
        bytes.fetch_add(touched_payload * static_cast<int64_t>(e - b) / n,
                        std::memory_order_relaxed);
      }
      SelectionVector sel;
      sel.reserve(e - b);
      for (size_t r = b; r < e; ++r) sel.push_back(static_cast<uint32_t>(r));
      for (const ScanKernel& k : node.kernels) {
        if (sel.empty()) break;
        ApplyScanKernel(k, table.column(static_cast<size_t>(k.col)), &sel);
      }
      if (pushdowns != nullptr && !sel.empty()) {
        int64_t removed = ApplyPushdowns(table, *pushdowns, &sel);
        rejects.fetch_add(removed, std::memory_order_relaxed);
      }
      emit(m, worker, sel);
    });
    node.stats.morsels_pruned += pruned.load();
    node.stats.bloom_rejects += rejects.load();
    node.stats.bytes_touched += bytes.load();
    if (stats_ != nullptr) {
      stats_->morsels_pruned += pruned.load();
      stats_->bloom_rejects += rejects.load();
      stats_->bytes_touched += bytes.load();
    }
  }

  /// Applies every registered join-key pushdown to the selection vector.
  /// NULL key rows are dropped too — a NULL key can never match an inner
  /// or semi join, which is the only context that registers a pushdown.
  /// Returns the number of rows rejected by a range or Bloom check.
  static int64_t ApplyPushdowns(const EngineTable& table,
                                const std::vector<ScanPushdown>& pds,
                                SelectionVector* sel) {
    int64_t removed = 0;
    for (const ScanPushdown& pd : pds) {
      const StorageColumn& c = table.column(static_cast<size_t>(pd.col));
      SelectionVector& s = *sel;
      size_t w = 0;
      if (pd.is_string) {
        for (uint32_t r : s) {
          if (c.IsNull(r)) continue;
          if (pd.bloom != nullptr &&
              !pd.bloom->MayContain(
                  std::hash<std::string_view>()(c.Str(r)))) {
            ++removed;
            continue;
          }
          s[w++] = r;
        }
      } else {
        for (uint32_t r : s) {
          if (c.IsNull(r)) continue;
          int64_t v = c.Num(r);
          if (pd.has_range && (v < pd.lo || v > pd.hi)) {
            ++removed;
            continue;
          }
          if (pd.bloom != nullptr &&
              !pd.bloom->MayContain(HashStorageValue(c.type(), v))) {
            ++removed;
            continue;
          }
          s[w++] = r;
        }
      }
      s.resize(w);
      if (s.empty()) break;
    }
    return removed;
  }

  /// Walks through chained semi-join reductions (which preserve the fact
  /// scan's schema) down to the underlying scan a join-key filter can be
  /// pushed into. Memoized nodes anywhere on the chain are shared by
  /// several consumers and must never see a consumer-specific filter.
  static const PlanNode* PushdownTargetScan(const PlanNode* n) {
    while (n != nullptr && n->kind == PlanKind::kSemiJoinReduce &&
           !n->memoize) {
      n = n->children[0].get();
    }
    if (n == nullptr || n->kind != PlanKind::kScan || n->memoize) {
      return nullptr;
    }
    return n;
  }

  /// Resolves a bare column-ref key against a scan's output schema to its
  /// storage column index, or -1.
  static int ResolveScanStorageCol(const PlanNode& scan, const Expr& key) {
    if (key.tag != Expr::Tag::kColumnRef) return -1;
    RowSet scope;
    scope.cols = scan.schema;
    Result<int> slot = scope.Resolve(key.qualifier, key.name);
    if (!slot.ok()) return -1;
    size_t s = static_cast<size_t>(*slot);
    if (s >= scan.scan_cols.size()) return -1;
    return scan.scan_cols[s];
  }

  /// Gate for pushing `keys` build/dim key values into a probe scan of
  /// `table`: push only when the keys number at most an eighth of its
  /// rows. A key set in the same order of magnitude as the probe table
  /// rejects little, and collecting and hashing its keys is pure overhead
  /// on the probe scan. The decision only affects speed: the exact join
  /// checks run regardless.
  static bool ShouldPushKeys(int64_t keys, const EngineTable& table) {
    return keys * 8 <= table.num_rows();
  }

  /// Fills `pd` from the distinct build/dim key values `keys` (JoinTable::
  /// Keys): a Bloom filter of their storage hashes, sized to them, plus a
  /// min/max range for int-backed columns. Returns false (pushdown
  /// abandoned) when any key's coercion onto the column's raw storage
  /// can't be reproduced exactly.
  static bool BuildKeyPushdown(const std::vector<Cell>& keys,
                               const StorageColumn& col, BloomFilter* bloom,
                               ScanPushdown* pd) {
    *bloom = BloomFilter(keys.size());
    pd->is_string = col.is_string();
    pd->bloom = bloom;
    if (!pd->is_string) {
      pd->has_range = true;
      pd->lo = INT64_MAX;  // empty until a key maps: rejects every row
      pd->hi = INT64_MIN;
    }
    for (const Cell& k : keys) {
      if (pd->is_string) {
        if (k.kind != Value::Kind::kString) return false;
        bloom->Add(std::hash<std::string_view>()(k.str));
        continue;
      }
      int64_t raw = 0;
      switch (StorageValueForEquality(col.type(), k.ToValue(), &raw)) {
        case StorageEq::kExact:
          bloom->Add(HashStorageValue(col.type(), raw));
          pd->lo = std::min(pd->lo, raw);
          pd->hi = std::max(pd->hi, raw);
          break;
        case StorageEq::kNoMatch:
          break;  // this key matches no stored value; nothing to admit
        case StorageEq::kUnsupported:
          return false;
      }
    }
    return true;
  }

  Result<std::shared_ptr<RowSet>> ExecDerived(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    rs->cols = node.schema;  // re-qualified under the FROM alias
    rs->num_visible = node.num_visible;
    return rs;
  }

  // ---- joins ----------------------------------------------------------

  /// A hash join's build side or a star semi-join's dimension side: its
  /// rows and their keys in a JoinTable. A key that is not a bare column
  /// is evaluated once per row and kept here, for the views the table
  /// holds.
  struct BuildSide {
    std::shared_ptr<RowSet> rows;
    std::vector<std::vector<Value>> evaluated;  // per key; empty: a column
    std::optional<JoinTable> table;
  };

  /// Keys the rows of `build` by `keys` in build->table, a multimap when
  /// `chain`; probe_dates as JoinTable takes it. The table's bytes are
  /// charged to the governor before it is built.
  template <typename ProbeDates>
  Status BuildKeys(const std::vector<const Expr*>& keys, bool chain,
                   const ProbeDates& probe_dates, BuildSide* build) {
    const RowSet& rs = *build->rows;
    size_t n = rs.rows.size();
    if (n >= KeyTable::kNone) {
      return Status::ResourceExhausted("join build side over 2^32 rows");
    }
    std::vector<int> slots(keys.size(), -1);
    build->evaluated.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i]->tag == Expr::Tag::kColumnRef) {
        TPCDS_ASSIGN_OR_RETURN(slots[i],
                               rs.Resolve(keys[i]->qualifier, keys[i]->name));
        continue;
      }
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> key,
                             BindExpr(*keys[i], rs, this));
      std::vector<Value>& values = build->evaluated[i];
      values.resize(n);
      ForEachMorsel(n, [&](size_t b, size_t e, size_t) {
        for (size_t r = b; r < e; ++r) values[r] = key->Eval(rs.rows[r]);
      });
    }
    auto cell = [&](size_t r, size_t i) {
      return Cell::Of(slots[i] >= 0 ? rs.rows[r][static_cast<size_t>(slots[i])]
                                    : build->evaluated[i][r]);
    };
    build->table.emplace(n, keys.size(), chain, cell, probe_dates,
                         [this](int64_t bytes) {
                           if (track_) governor_->Reserve(bytes);
                         });
    return Status::OK();
  }

  /// Looks each row of the index form up in `table` by the `nkeys` columns
  /// `cols`: (*first)[c][i] becomes the first build row whose keys equal
  /// those of row i of chunk c, else KeyTable::kNone. One key column whose
  /// storage words are the table's integral words is read straight from
  /// storage.
  void ProbeIndexed(const JoinTable& table, const IndexedCol* cols,
                    size_t nkeys, const IndexedRows& in,
                    std::vector<std::vector<uint32_t>>* first) {
    size_t k = in.sources();
    first->assign(in.chunks.size(), {});
    const KeyTable* words = nkeys == 1 && cols[0].HoldsIntegers()
                                ? table.integers()
                                : nullptr;
    const int64_t* nums = words ? cols[0].storage->nums().data() : nullptr;
    const uint8_t* nulls = words ? cols[0].storage->nulls().data() : nullptr;
    ForEachUnit(in.chunks.size(), [&](size_t c, size_t) {
      const std::vector<uint32_t>& chunk = in.chunks[c];
      std::vector<uint32_t>& f = (*first)[c];
      f.assign(chunk.size() / k, KeyTable::kNone);
      KeyCell one;
      std::vector<KeyCell> many(nkeys > 1 ? nkeys : 0);
      KeyCell* key = nkeys > 1 ? many.data() : &one;
      for (size_t i = 0; i < f.size(); ++i) {
        const uint32_t* tuple = &chunk[i * k];
        if (words != nullptr) {
          uint32_t r = tuple[cols[0].source];
          if (nulls[r] == 0) f[i] = words->Find(nums[r]);
          continue;
        }
        for (size_t j = 0; j < nkeys; ++j) {
          key[j] = KeyCell::Of(cols[j].CellAt(tuple));
        }
        f[i] = table.Find(key);
      }
    });
  }

  /// Runs `exec` with `pd`, when given, registered on the scan `target`,
  /// and unregisters it before any error propagates.
  template <typename ExecFn>
  auto WithPushdown(const PlanNode* target, const ScanPushdown* pd,
                    const ExecFn& exec) {
    if (pd != nullptr) pushdowns_[target].push_back(*pd);
    auto result = exec();
    if (pd != nullptr) {
      auto it = pushdowns_.find(target);
      it->second.pop_back();
      if (it->second.empty()) pushdowns_.erase(it);
    }
    return result;
  }

  /// Whether the probe side of a join may hold dates in the key `key`, for
  /// JoinTable's DATE/string rule: read from the storage column of the
  /// scan `target` when the probe side has not run yet, else from `probe`.
  bool ProbeMayHoldDates(const Expr& key, const PlanNode* target,
                         const IndexedRows& probe) const {
    if (target != nullptr) {
      int c = ResolveScanStorageCol(*target, key);
      return c < 0 || facade_->FindTable(target->table_name)
                              ->column(static_cast<size_t>(c))
                              .type() == ColumnType::kDate;
    }
    Result<IndexedCol> col = ResolveIndexed(probe, key);
    return !col.ok() || MayHoldDates(probe, *col);
  }

  /// Runs a star semi-join's two inputs, the fact side in index form. When
  /// the fact side bottoms out in a private scan, the dimension runs first
  /// and its key set (min/max range + Bloom filter) is pushed into that
  /// scan, so most non-qualifying fact rows are never produced. The exact
  /// key-set check still runs over whatever the scan produced, so results
  /// are byte-identical to the unpushed order.
  Status SemiJoinInputs(const PlanNode& node, IndexedRows* fact,
                        BuildSide* dim) {
    auto exec_fact = [&] { return ExecIndexed(node.children[0]); };
    const PlanNode* target = PushdownTargetScan(node.children[0].get());
    int pd_col = -1;
    EngineTable* pd_table = nullptr;
    if (target != nullptr) {
      pd_col = ResolveScanStorageCol(*target, *node.fact_key);
      pd_table = pd_col >= 0 ? facade_->FindTable(target->table_name) : nullptr;
      if (pd_table == nullptr) target = nullptr;
    }
    if (target == nullptr) {
      TPCDS_ASSIGN_OR_RETURN(*fact, exec_fact());
    }
    TPCDS_ASSIGN_OR_RETURN(dim->rows, Exec(node.children[1]));
    auto probe_dates = [&](size_t) {
      return ProbeMayHoldDates(*node.fact_key, target, *fact);
    };
    TPCDS_RETURN_NOT_OK(
        BuildKeys({node.dim_key}, /*chain=*/false, probe_dates, dim));
    if (target == nullptr) return Status::OK();
    std::vector<Cell> keys = dim->table->Keys(0);
    BloomFilter bloom(0);
    ScanPushdown pd;
    pd.col = pd_col;
    // Only push a selective key set; a reduction whose key set rivals
    // the fact table in size rejects almost nothing at the scan.
    bool registered =
        ShouldPushKeys(static_cast<int64_t>(keys.size()), *pd_table) &&
        BuildKeyPushdown(keys, pd_table->column(static_cast<size_t>(pd_col)),
                         &bloom, &pd);
    if (registered) node.stats.vectorized = true;
    TPCDS_ASSIGN_OR_RETURN(
        *fact, WithPushdown(target, registered ? &pd : nullptr, exec_fact));
    return Status::OK();
  }

  /// The row path's star semi-join: keeps the boxed fact rows whose key is
  /// in the dimension's key set.
  Result<std::shared_ptr<RowSet>> ExecSemiJoinReduce(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> fact,
                           ExecOwned(node.children[0]));
    BuildSide dim;
    TPCDS_ASSIGN_OR_RETURN(dim.rows, Exec(node.children[1]));
    TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> fact_key,
                           BindExpr(*node.fact_key, *fact, this));
    size_t before = fact->rows.size();
    std::vector<Value> keys(before);
    ForEachMorsel(before, [&](size_t b, size_t e, size_t) {
      for (size_t r = b; r < e; ++r) keys[r] = fact_key->Eval(fact->rows[r]);
    });
    TPCDS_RETURN_NOT_OK(BuildKeys(
        {node.dim_key}, /*chain=*/false,
        [&](size_t) { return HoldsDates(keys, 0, 1); }, &dim));
    std::vector<RowList> bufs(MorselCount(before));
    ForEachMorsel(before, [&](size_t b, size_t e, size_t m) {
      RowList& buf = bufs[m];
      for (size_t r = b; r < e; ++r) {
        KeyCell key = KeyCell::Of(Cell::Of(keys[r]));
        if (dim.table->Find(&key) != KeyTable::kNone) {
          buf.push_back(std::move(fact->rows[r]));
        }
      }
    });
    fact->rows.clear();
    ConcatMorsels(&bufs, &fact->rows);
    if (stats_ != nullptr) {
      stats_->star_filtered_rows +=
          static_cast<int64_t>(before - fact->rows.size());
    }
    return fact;
  }

  /// True when value i of some row of `values`, `width` values a row,
  /// is a date.
  static bool HoldsDates(const std::vector<Value>& values, size_t i,
                         size_t width) {
    for (size_t at = i; at < values.size(); at += width) {
      if (values[at].kind() == Value::Kind::kDate) return true;
    }
    return false;
  }

  /// The star semi-join in index form: keeps the fact side's tuples whose
  /// key is in the dimension's key set, chunk by chunk, in place.
  Result<IndexedRows> SemiJoinIndexed(const PlanNode& node) {
    IndexedRows fact;
    BuildSide dim;
    TPCDS_RETURN_NOT_OK(SemiJoinInputs(node, &fact, &dim));
    TPCDS_ASSIGN_OR_RETURN(IndexedCol col,
                           ResolveIndexed(fact, *node.fact_key));
    std::vector<std::vector<uint32_t>> hit;
    ProbeIndexed(*dim.table, &col, 1, fact, &hit);
    size_t before = fact.size();
    size_t k = fact.sources();
    ForEachUnit(fact.chunks.size(), [&](size_t c, size_t) {
      std::vector<uint32_t>& chunk = fact.chunks[c];
      size_t w = 0;
      for (size_t i = 0; i * k < chunk.size(); ++i) {
        if (hit[c][i] == KeyTable::kNone) continue;
        for (size_t s = 0; s < k; ++s) chunk[w++] = chunk[i * k + s];
      }
      chunk.resize(w);
    });
    fact.DropEmptyChunks();
    if (stats_ != nullptr) {
      stats_->star_filtered_rows +=
          static_cast<int64_t>(before - fact.size());
    }
    return fact;
  }

  /// Runs a hash join's inputs, the probe side in index form. An inner
  /// join whose probe side bottoms out in a private scan, with at least
  /// one probe-side key on a column of it, runs the build side first and
  /// pushes the build keys (min/max range + Bloom filter) into that scan.
  /// The exact table probe still runs, so results are byte-identical to
  /// the unpushed order.
  Status JoinInputs(const PlanNode& node, IndexedRows* left,
                    BuildSide* build) {
    auto exec_left = [&] { return ExecIndexed(node.children[0]); };
    const PlanNode* target = nullptr;
    int pd_col = -1;
    size_t pd_key = 0;
    EngineTable* pd_table = nullptr;
    const PlanNode* t =
        node.left_outer ? nullptr : PushdownTargetScan(node.children[0].get());
    for (size_t i = 0; t != nullptr && i < node.equi.size(); ++i) {
      int c = ResolveScanStorageCol(*t, *node.equi[i].left);
      if (c < 0) continue;
      pd_col = c;
      pd_key = i;
      pd_table = facade_->FindTable(t->table_name);
      if (pd_table != nullptr) target = t;
      break;
    }

    if (target == nullptr) {
      TPCDS_ASSIGN_OR_RETURN(*left, exec_left());
    }
    TPCDS_ASSIGN_OR_RETURN(build->rows, Exec(node.children[1]));
    // Build-side keys, indexed before the probe side runs so a key
    // pushdown can be registered on the probe scan first.
    std::vector<const Expr*> keys;
    for (const PlanEquiKey& pair : node.equi) keys.push_back(pair.right);
    TPCDS_RETURN_NOT_OK(BuildKeys(
        keys, /*chain=*/true,
        [&](size_t i) {
          return ProbeMayHoldDates(*node.equi[i].left, target, *left);
        },
        build));
    if (target == nullptr) return Status::OK();

    // Only push when the build side is selective: a build key set in the
    // same order of magnitude as the target table rejects little, and
    // collecting + hashing its keys is pure overhead on the probe scan
    // (e.g. a reversed star shape where the fact table is the build
    // side of a dimension join). The gate counts build rows, so it runs
    // before the key collection.
    bool registered = false;
    ScanPushdown pd;
    pd.col = pd_col;
    BloomFilter bloom(0);
    if (ShouldPushKeys(static_cast<int64_t>(build->rows->rows.size()),
                       *pd_table)) {
      registered = BuildKeyPushdown(
          build->table->Keys(pd_key),
          pd_table->column(static_cast<size_t>(pd_col)), &bloom, &pd);
    }
    TPCDS_ASSIGN_OR_RETURN(
        *left, WithPushdown(target, registered ? &pd : nullptr, exec_left));
    return Status::OK();
  }

  /// The row path's hash join, and the vectorized path's for the joins the
  /// index form does not take: nested-loop joins, LEFT JOINs with residual
  /// predicates and probe keys other than bare columns. Every output row is
  /// boxed; the build side is keyed in a JoinTable as the index form keys
  /// it.
  Result<std::shared_ptr<RowSet>> ExecHashJoin(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> left,
                           Exec(node.children[0]));
    BuildSide build;
    TPCDS_ASSIGN_OR_RETURN(build.rows, Exec(node.children[1]));
    const RowSet& right = *build.rows;

    auto out = std::make_shared<RowSet>();
    out->cols = node.schema;
    RowSet combined_scope;
    combined_scope.cols = node.schema;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> residual,
                           BindAll(node.residual, combined_scope));

    // Emits lrow ++ rrow into `buf` if the residual predicates pass.
    auto emit = [&](const std::vector<Value>& lrow,
                    const std::vector<Value>& rrow, RowList* buf) {
      std::vector<Value> combined;
      combined.reserve(out->cols.size());
      combined.insert(combined.end(), lrow.begin(), lrow.end());
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      if (!PassesAll(residual, combined)) return false;
      buf->push_back(std::move(combined));
      return true;
    };
    // A LEFT JOIN's unmatched row: lrow padded with NULLs.
    auto emit_unmatched = [&](const std::vector<Value>& lrow, RowList* buf) {
      std::vector<Value> combined = lrow;
      combined.resize(out->cols.size());
      buf->push_back(std::move(combined));
    };

    size_t nl = left->rows.size();
    std::vector<RowList> bufs(MorselCount(nl));
    if (node.equi.empty()) {
      // Nested-loop (cross product with residual filter). This is the
      // runaway shape a bad substitution produces, so the governor is
      // consulted per *left row*, not just per morsel: one morsel of left
      // rows can emit left*right rows before the next boundary check.
      ForEachMorsel(nl, [&](size_t b, size_t e, size_t m) {
        RowList& buf = bufs[m];
        for (size_t lr = b; lr < e; ++lr) {
          if (track_ && !governor_->Tick()) return;
          size_t emitted_before = buf.size();
          const auto& lrow = left->rows[lr];
          bool matched = false;
          for (const auto& rrow : right.rows) {
            matched |= emit(lrow, rrow, &buf);
          }
          if (node.left_outer && !matched) emit_unmatched(lrow, &buf);
          ChargeRows(buf, emitted_before);
        }
      });
    } else {
      // Each probe row's matches run through its key's chain of ascending
      // build rows, so output order is the same at any parallelism.
      size_t nk = node.equi.size();
      std::vector<const Expr*> keys;
      std::vector<std::unique_ptr<BoundExpr>> lkeys;
      for (const PlanEquiKey& pair : node.equi) {
        keys.push_back(pair.right);
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> l,
                               BindExpr(*pair.left, *left, this));
        lkeys.push_back(std::move(l));
      }
      std::vector<Value> probe(nl * nk);  // row-major
      ForEachMorsel(nl, [&](size_t b, size_t e, size_t) {
        for (size_t lr = b; lr < e; ++lr) {
          for (size_t i = 0; i < nk; ++i) {
            probe[lr * nk + i] = lkeys[i]->Eval(left->rows[lr]);
          }
        }
      });
      TPCDS_RETURN_NOT_OK(BuildKeys(
          keys, /*chain=*/true,
          [&](size_t i) { return HoldsDates(probe, i, nk); }, &build));
      const JoinTable& table = *build.table;
      ForEachMorsel(nl, [&](size_t b, size_t e, size_t m) {
        RowList& buf = bufs[m];
        buf.reserve(e - b);
        std::vector<KeyCell> key(nk);
        for (size_t lr = b; lr < e; ++lr) {
          for (size_t i = 0; i < nk; ++i) {
            key[i] = KeyCell::Of(Cell::Of(probe[lr * nk + i]));
          }
          const auto& lrow = left->rows[lr];
          bool matched = false;
          for (uint32_t r = table.Find(key.data()); r != KeyTable::kNone;
               r = table.Next(r)) {
            matched |= emit(lrow, right.rows[r], &buf);
          }
          if (node.left_outer && !matched) emit_unmatched(lrow, &buf);
        }
        ChargeRows(buf);
      });
    }
    ConcatMorsels(&bufs, &out->rows);
    if (stats_ != nullptr) {
      stats_->rows_joined += static_cast<int64_t>(out->rows.size());
    }
    return out;
  }

  /// The hash join in index form: each probe tuple is followed, chunk by
  /// chunk, by the index of every build row its keys match, in ascending
  /// build order (the order the row path emits them in), or by
  /// KeyTable::kNone for a LEFT JOIN miss. The build side's rows become
  /// the tuples' next source. An inner join's residual predicates read
  /// each chunk's new tuples into the worker's scratch batch and keep
  /// those that pass, before they are counted.
  Result<IndexedRows> HashJoinIndexed(const PlanNode& node) {
    IndexedRows left;
    BuildSide build;
    TPCDS_RETURN_NOT_OK(JoinInputs(node, &left, &build));
    std::vector<IndexedCol> cols;
    for (const PlanEquiKey& key : node.equi) {
      TPCDS_ASSIGN_OR_RETURN(IndexedCol col, ResolveIndexed(left, *key.left));
      cols.push_back(col);
    }
    const JoinTable& table = *build.table;
    std::vector<std::vector<uint32_t>> first;
    ProbeIndexed(table, cols.data(), cols.size(), left, &first);
    node.stats.vectorized = true;
    IndexedRows out;
    out.cols = node.schema;
    out.table = left.table;
    out.scan_cols = left.scan_cols;
    out.rowsets = left.rowsets;
    out.rowsets.push_back(std::move(build.rows));
    out.widths = left.widths;
    out.widths.push_back(node.schema.size() - left.cols.size());
    TPCDS_ASSIGN_OR_RETURN(IndexedPreds residual,
                           BindIndexed(node.residual, out));
    size_t k = left.sources();
    out.chunks.resize(left.chunks.size());
    ForEachUnit(left.chunks.size(), [&](size_t c, size_t worker) {
      const std::vector<uint32_t>& in = left.chunks[c];
      std::vector<uint32_t>& chunk = out.chunks[c];
      chunk.reserve(in.size() + first[c].size());
      auto append = [&](const uint32_t* tuple, uint32_t r) {
        chunk.insert(chunk.end(), tuple, tuple + k);
        chunk.push_back(r);
      };
      for (size_t i = 0; i < first[c].size(); ++i) {
        const uint32_t* tuple = &in[i * k];
        uint32_t r = first[c][i];
        if (r == KeyTable::kNone && node.left_outer) append(tuple, r);
        for (; r != KeyTable::kNone; r = table.Next(r)) append(tuple, r);
      }
      if (!residual.bound.empty()) KeepPassing(residual, worker, &chunk);
      ChargeIndexRows(chunk.size() / (k + 1), k + 1);
    });
    out.DropEmptyChunks();
    if (stats_ != nullptr) {
      stats_->rows_joined += static_cast<int64_t>(out.size());
    }
    return out;
  }

  Result<std::shared_ptr<RowSet>> ExecIndexJoin(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> left,
                           Exec(node.children[0]));
    EngineTable* table = facade_->FindTable(node.table_name);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + node.table_name);
    }
    auto out = std::make_shared<RowSet>();
    out->cols = node.schema;

    TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> probe,
                           BindExpr(*node.probe_key, *left, this));
    // Built (or fetched) before the parallel probes: the getter mutates
    // the table's lazy index cache under its own mutex.
    const EngineTable::HashIndex& index =
        table->GetOrBuildIntIndex(node.index_col);

    size_t nl = left->rows.size();
    std::vector<RowList> bufs(MorselCount(nl));
    ForEachMorsel(nl, [&](size_t b, size_t e, size_t m) {
      RowList& buf = bufs[m];
      for (size_t lr = b; lr < e; ++lr) {
        const auto& lrow = left->rows[lr];
        Value v = probe->Eval(lrow);
        if (v.is_null()) continue;
        auto it = index.find(v.AsInt());
        if (it == index.end()) continue;
        for (int64_t r : it->second) {
          std::vector<Value> combined;
          combined.reserve(out->cols.size());
          combined.insert(combined.end(), lrow.begin(), lrow.end());
          for (int c : node.scan_cols) {
            combined.push_back(table->GetValue(r, c));
          }
          buf.push_back(std::move(combined));
        }
      }
      ChargeRows(buf);
    });
    ConcatMorsels(&bufs, &out->rows);
    if (stats_ != nullptr) {
      stats_->rows_joined += static_cast<int64_t>(out->rows.size());
    }
    return out;
  }

  // ---- row-wise operators ---------------------------------------------

  /// The row path's filter: keeps the boxed rows that pass, moving them.
  Result<std::shared_ptr<RowSet>> ExecFilter(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> preds,
                           BindAll(node.predicates, *rs));
    size_t n = rs->rows.size();
    std::vector<RowList> bufs(MorselCount(n));
    ForEachMorsel(n, [&](size_t b, size_t e, size_t m) {
      RowList& buf = bufs[m];
      buf.reserve(e - b);
      for (size_t r = b; r < e; ++r) {
        if (PassesAll(preds, rs->rows[r])) {
          buf.push_back(std::move(rs->rows[r]));
        }
      }
    });
    rs->rows.clear();
    ConcatMorsels(&bufs, &rs->rows);
    return rs;
  }

  /// A filter in index form: keeps the tuples whose row passes every
  /// predicate, chunk by chunk, in place. It produces no row, so it
  /// charges nothing.
  Result<IndexedRows> FilterIndexed(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(IndexedRows in, ExecIndexed(node.children[0]));
    TPCDS_ASSIGN_OR_RETURN(IndexedPreds preds,
                           BindIndexed(node.predicates, in));
    ForEachUnit(in.chunks.size(), [&](size_t c, size_t worker) {
      KeepPassing(preds, worker, &in.chunks[c]);
    });
    in.DropEmptyChunks();
    node.stats.vectorized = true;
    return in;
  }

  /// The input of an aggregate or a project, in index form: its child's
  /// pipeline, or its child's boxed rows as the one source.
  struct RowInput {
    IndexedRows rows;
    RowSet scope;  // the child's schema, to bind against
  };

  /// Runs the input of `node`. On the vectorized path `node` is tagged:
  /// a pipeline under it is never boxed.
  Result<RowInput> ExecInput(const PlanNode& node) {
    RowInput in;
    TPCDS_ASSIGN_OR_RETURN(in.rows, ExecIndexed(node.children[0]));
    in.scope.cols = in.rows.cols;
    node.stats.vectorized = options_.vectorized_execution;
    return in;
  }

  /// The slots of `scope` that the column references of `exprs` resolve
  /// to, as BindExpr resolves them; empty (every slot) when one does not
  /// resolve.
  static std::vector<bool> SlotsRead(const std::vector<const Expr*>& exprs,
                                     const RowSet& scope) {
    std::vector<bool> read(scope.cols.size(), false);
    auto mark = [&](const Expr& e, const auto& self) -> bool {
      if (e.tag == Expr::Tag::kColumnRef) {
        Result<int> slot = scope.Resolve(e.qualifier, e.name);
        if (slot.ok()) read[static_cast<size_t>(*slot)] = true;
        return slot.ok();
      }
      for (const auto& c : e.children) {
        if (!self(*c, self)) return false;
      }
      return true;
    };
    for (const Expr* e : exprs) {
      if (!mark(*e, mark)) return {};
    }
    return read;
  }

  /// One kBatchRows morsel of an aggregate's or a project's input, as
  /// ForEachInputMorsel hands it over: its rows, read into the running
  /// worker's scratch batch, and each row's index tuple.
  struct MorselRows {
    size_t morsel;
    size_t worker;  // the thread running it (see ParallelForWorkers)
    size_t n;
    const std::vector<Value>* rows;
    const uint32_t* const* tuples;
  };

  /// Runs fn(in) for each kBatchRows morsel of the input, read only in the
  /// slots marked in `read` (every slot when it is empty) into the running
  /// worker's scratch batch.
  template <typename Fn>
  void ForEachInputMorsel(const RowInput& in, const std::vector<bool>& read,
                          const Fn& fn) {
    IndexReader reader(in.rows, read);
    size_t n = reader.size();
    std::vector<std::vector<const uint32_t*>> tuples(Workers());
    ParallelForWorkers(MorselCount(n), [&](size_t m, size_t worker) {
      if (track_ && !governor_->BeginMorsel()) return;
      size_t b = m * kBatchRows;
      size_t e = std::min(n, b + kBatchRows);
      std::vector<Value>* rows = Batch(worker, e - b, reader.width());
      std::vector<const uint32_t*>& t = tuples[worker];
      if (t.size() < e - b) t.resize(e - b);
      reader.Read(b, e, rows);
      reader.Tuples(b, e, t.data());
      fn(MorselRows{m, worker, e - b, rows, t.data()});
    });
  }

  Result<std::shared_ptr<RowSet>> ExecProject(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(RowInput input, ExecInput(node));
    std::vector<std::unique_ptr<BoundExpr>> projections;
    projections.reserve(node.projections.size());
    std::vector<const Expr*> exprs;
    for (const PlanProjection& p : node.projections) {
      if (p.expr == nullptr) {
        projections.push_back(std::make_unique<SlotExpr>(p.slot));
      } else {
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                               BindExpr(*p.expr, input.scope, this));
        projections.push_back(std::move(b));
        exprs.push_back(p.expr);
      }
    }
    // The input's columns pass through, hidden, only for an ORDER BY
    // above (the planner appends them then); otherwise only the slots the
    // projections reference are read.
    bool pass_through = node.schema.size() > node.projections.size();
    std::vector<bool> read;
    if (!pass_through) {
      read = SlotsRead(exprs, input.scope);
      for (const PlanProjection& p : node.projections) {
        if (p.expr == nullptr && !read.empty()) {
          read[static_cast<size_t>(p.slot)] = true;
        }
      }
    }
    auto out = std::make_shared<RowSet>();
    out->cols = node.schema;
    out->num_visible = node.num_visible;
    out->rows.resize(input.rows.size());  // 1:1: write outputs in place
    ForEachInputMorsel(input, read, [&](const MorselRows& in) {
      int64_t bytes = 0;
      for (size_t r = 0; r < in.n; ++r) {
        const std::vector<Value>& row = in.rows[r];
        std::vector<Value> projected;
        projected.reserve(out->cols.size());
        for (const auto& p : projections) projected.push_back(p->Eval(row));
        if (pass_through) {
          for (const Value& v : row) projected.push_back(v);
        }
        if (track_) bytes += ApproxRowBytes(projected);
        out->rows[in.morsel * kBatchRows + r] = std::move(projected);
      }
      if (track_ && governor_->ChargeRows(static_cast<int64_t>(in.n))) {
        governor_->Reserve(bytes);
      }
    });
    return out;
  }

  Result<std::shared_ptr<RowSet>> ExecDistinct(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    DistinctRows(rs.get());
    return rs;
  }

  /// Binds a sort-key list against `scope` (ordinals become slot
  /// passthroughs), returning the bound expressions and descending flags.
  Result<std::vector<std::unique_ptr<BoundExpr>>> BindSortKeys(
      const std::vector<PlanSortKey>& sort_keys, const RowSet& scope,
      std::vector<bool>* desc) {
    std::vector<std::unique_ptr<BoundExpr>> bound;
    bound.reserve(sort_keys.size());
    for (const PlanSortKey& key : sort_keys) {
      desc->push_back(key.desc);
      if (key.expr == nullptr) {
        bound.push_back(std::make_unique<SlotExpr>(key.ordinal));
      } else {
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                               BindExpr(*key.expr, scope, this));
        bound.push_back(std::move(b));
      }
    }
    return bound;
  }

  /// Compares two key vectors under the per-key descending flags.
  /// Returns 0 on a full tie; callers break ties on the original row
  /// index, which turns the sort order into a total order — exactly
  /// std::stable_sort semantics, and the reason the parallel run/merge
  /// structure cannot influence the result.
  static int CompareKeys(const std::vector<Value>& a,
                         const std::vector<Value>& b,
                         const std::vector<bool>& desc) {
    for (size_t k = 0; k < desc.size(); ++k) {
      int c = Value::Compare(a[k], b[k]);
      if (c != 0) return desc[k] ? -c : c;
    }
    return 0;
  }

  Result<std::shared_ptr<RowSet>> ExecSort(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    std::vector<bool> desc;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> bound,
                           BindSortKeys(node.sort_keys, *rs, &desc));
    size_t n = rs->rows.size();
    std::vector<std::vector<Value>> keys(n);
    ForEachMorsel(n, [&](size_t b, size_t e, size_t) {
      int64_t bytes = 0;
      for (size_t r = b; r < e; ++r) {
        keys[r].reserve(bound.size());
        for (const auto& k : bound) keys[r].push_back(k->Eval(rs->rows[r]));
        if (track_) bytes += ApproxRowBytes(keys[r]);
      }
      // Sort keys are a second materialisation of the input; count them
      // against the memory budget (rows were charged upstream).
      if (track_) governor_->Reserve(bytes);
    });
    // Total order: sort keys, then original row index. Equal-key rows
    // keep their input order, so this reproduces std::stable_sort
    // byte-for-byte while letting runs sort and merge in parallel.
    auto before = [&](uint32_t a, uint32_t b) {
      int c = CompareKeys(keys[a], keys[b], desc);
      return c != 0 ? c < 0 : a < b;
    };
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);

    // Morsel-parallel run sort: fixed-size runs (input-only structure)
    // sorted locally, then merged pairwise in log2(runs) parallel passes.
    // The total order makes the merged result independent of the run
    // boundaries anyway; fixed runs keep the intermediate states — and
    // governor charge points — reproducible too.
    QueryGovernor* gov = governor_;
    bool checked = track_;
    ParallelFor(SortRunCount(n), [&](size_t run) {
      if (checked && !gov->BeginMorsel()) return;
      size_t b = run * kSortRunRows;
      size_t e = std::min(n, b + kSortRunRows);
      std::sort(order.begin() + static_cast<long>(b),
                order.begin() + static_cast<long>(e), before);
    });
    if (n > kSortRunRows) {
      std::vector<uint32_t> scratch(n);
      for (size_t width = kSortRunRows; width < n; width *= 2) {
        size_t units = (n + 2 * width - 1) / (2 * width);
        ParallelFor(units, [&](size_t u) {
          if (checked && !gov->Tick()) return;
          size_t lo = u * 2 * width;
          size_t mid = std::min(n, lo + width);
          size_t hi = std::min(n, lo + 2 * width);
          std::merge(order.begin() + static_cast<long>(lo),
                     order.begin() + static_cast<long>(mid),
                     order.begin() + static_cast<long>(mid),
                     order.begin() + static_cast<long>(hi),
                     scratch.begin() + static_cast<long>(lo), before);
        });
        order.swap(scratch);
      }
    }

    RowList sorted(n);
    ForEachMorsel(n, [&](size_t b, size_t e, size_t) {
      for (size_t r = b; r < e; ++r) {
        sorted[r] = std::move(rs->rows[order[r]]);
      }
    });
    rs->rows = std::move(sorted);
    return rs;
  }

  /// Fused ORDER BY + LIMIT: each morsel keeps a bounded heap of the
  /// best `limit` rows (by sort keys, ties on original row index), heaps
  /// merge into the global best `limit`. Only retained sort keys are
  /// materialised — O(rows·log k) work and O(morsels·k) peak keys
  /// instead of a full n-key sort — and because each heap holds the
  /// exact top-k of its morsel under a total order, the merged result is
  /// byte-identical to sort-then-limit at any parallelism.
  Result<std::shared_ptr<RowSet>> ExecTopK(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    std::vector<bool> desc;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> bound,
                           BindSortKeys(node.sort_keys, *rs, &desc));
    size_t n = rs->rows.size();
    size_t k = static_cast<size_t>(std::max<int64_t>(node.limit, 0));
    auto better = [&](const TopKEntry& a, const TopKEntry& b) {
      int c = CompareKeys(a.key, b.key, desc);
      return c != 0 ? c < 0 : a.row < b.row;
    };

    size_t morsels = MorselCount(n);
    std::vector<std::vector<TopKEntry>> kept(morsels);
    ForEachMorsel(n, [&](size_t b, size_t e, size_t m) {
      TopKHeap<decltype(better)> heap(std::min(k, e - b), better);
      std::vector<Value> scratch;
      for (size_t r = b; r < e; ++r) {
        scratch.clear();
        scratch.reserve(bound.size());
        for (const auto& kx : bound) scratch.push_back(kx->Eval(rs->rows[r]));
        heap.Offer(&scratch, static_cast<uint32_t>(r));
      }
      kept[m] = heap.Take();
      // Only the retained keys count against the memory budget — the
      // Top-K saving a full sort's n-key materialisation would charge.
      if (track_) {
        int64_t bytes = 0;
        for (const TopKEntry& entry : kept[m]) {
          bytes += ApproxRowBytes(entry.key);
        }
        governor_->Reserve(bytes);
      }
    });

    std::vector<TopKEntry> candidates;
    size_t total_kept = 0;
    for (const auto& m : kept) total_kept += m.size();
    candidates.reserve(total_kept);
    for (auto& m : kept) {
      for (TopKEntry& entry : m) candidates.push_back(std::move(entry));
    }
    std::sort(candidates.begin(), candidates.end(), better);
    if (candidates.size() > k) candidates.resize(k);

    RowList out;
    out.reserve(candidates.size());
    for (const TopKEntry& entry : candidates) {
      out.push_back(std::move(rs->rows[entry.row]));
    }
    rs->rows = std::move(out);
    node.stats.topk_seen += static_cast<int64_t>(n);
    node.stats.topk_kept += static_cast<int64_t>(rs->rows.size());
    if (stats_ != nullptr) {
      stats_->topk_seen += static_cast<int64_t>(n);
      stats_->topk_kept += static_cast<int64_t>(rs->rows.size());
    }
    return rs;
  }

  Result<std::shared_ptr<RowSet>> ExecLimit(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    if (node.limit >= 0 &&
        rs->rows.size() > static_cast<size_t>(node.limit)) {
      rs->rows.resize(static_cast<size_t>(node.limit));
    }
    return rs;
  }

  Result<std::shared_ptr<RowSet>> ExecTruncate(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    rs->cols = node.schema;
    for (auto& row : rs->rows) row.resize(node.schema.size());
    rs->num_visible = 0;
    return rs;
  }

  Result<std::shared_ptr<RowSet>> ExecSetOp(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> acc,
                           ExecOwned(node.children[0]));
    for (size_t i = 1; i < node.children.size(); ++i) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                             ExecOwned(node.children[i]));
      using Kind = SelectStmt::SetOpBranch::Kind;
      switch (node.set_kinds[i - 1]) {
        case Kind::kUnionAll:
          acc->rows.reserve(acc->rows.size() + rs->rows.size());
          for (auto& row : rs->rows) acc->rows.push_back(std::move(row));
          break;
        case Kind::kUnion:
          acc->rows.reserve(acc->rows.size() + rs->rows.size());
          for (auto& row : rs->rows) acc->rows.push_back(std::move(row));
          DistinctRows(acc.get());
          break;
        case Kind::kIntersect:
        case Kind::kExcept: {
          // The branch's whole rows in the key index, as views (`rs`
          // outlives it), then a membership probe of the accumulated rows.
          size_t width = acc->cols.size();
          RowKeys keys(width);
          for (const RowList* side : {&acc->rows, &rs->rows}) {
            for (const auto& row : *side) keys.Scan(row.data());
          }
          GroupTable set(width);
          for (size_t r = 0; r < rs->rows.size(); ++r) {
            if (!TickAt(r)) return governor_->status();
            bool created = false;
            const KeyCell* key = keys.Of(rs->rows[r].data());
            set.FindOrAdd(key, HashKey(key, width), r, true, &created);
          }
          bool keep_present = node.set_kinds[i - 1] == Kind::kIntersect;
          RowList kept;
          for (auto& row : acc->rows) {
            const KeyCell* key = keys.Of(row.data());
            bool present =
                set.Find(key, HashKey(key, width)) != GroupTable::kNone;
            if (present == keep_present) kept.push_back(std::move(row));
          }
          acc->rows = std::move(kept);
          DistinctRows(acc.get());  // set semantics
          break;
        }
      }
    }
    return acc;
  }

  // ---- aggregation ----------------------------------------------------

  /// How an aggregate reads one group key or argument per row: straight
  /// from the index form's source (a storage word or view for a table
  /// source, the boxed row otherwise), whose holders outlive the
  /// aggregate, or by evaluating an expression over the morsel's rows,
  /// whose values last until the worker's next morsel.
  struct CellReader {
    IndexedCol col;  // a bare column
    std::unique_ptr<BoundExpr> expr;

    bool stable() const { return expr == nullptr; }

    /// Calls emit(i, cell) for the rows i of the morsel, in order; an
    /// expression's values are kept in *temps meanwhile.
    template <typename Emit>
    void Read(const MorselRows& in, std::vector<Value>* temps,
              const Emit& emit) const {
      if (expr != nullptr) {
        if (temps->size() < in.n) temps->resize(in.n);
        for (size_t i = 0; i < in.n; ++i) {
          (*temps)[i] = expr->Eval(in.rows[i]);
          emit(i, Cell::Of((*temps)[i]));
        }
      } else if (col.storage != nullptr) {
        const StorageColumn& c = *col.storage;
        Value::Kind kind = StorageKind(c.type());
        for (size_t i = 0; i < in.n; ++i) {
          uint32_t r = in.tuples[i][col.source];
          if (c.IsNull(r)) {
            emit(i, Cell{});
          } else if (kind == Value::Kind::kString) {
            emit(i, Cell{kind, 0, c.Str(r)});
          } else {
            emit(i, Cell::Word(kind, c.Num(r)));
          }
        }
      } else {
        const RowList& rows = col.rows->rows;
        for (size_t i = 0; i < in.n; ++i) {
          uint32_t r = in.tuples[i][col.source];
          emit(i, r == KeyTable::kNone ? Cell{}
                                       : Cell::Of(rows[r][col.slot]));
        }
      }
    }
  };

  Result<CellReader> BindCell(const Expr& e, const RowInput& in) {
    CellReader reader;
    if (e.tag == Expr::Tag::kColumnRef) {
      TPCDS_ASSIGN_OR_RETURN(reader.col, ResolveIndexed(in.rows, e));
    } else {
      TPCDS_ASSIGN_OR_RETURN(reader.expr, BindExpr(e, in.scope, this));
    }
    return reader;
  }

  /// Charges `groups` new groups of `bytes` each against the row and
  /// memory budgets.
  void ChargeGroups(int64_t groups, size_t bytes) {
    if (track_ && groups > 0 && governor_->ChargeRows(groups)) {
      governor_->Reserve(groups * static_cast<int64_t>(bytes));
    }
  }

  /// A worker's scratch space for one morsel of an aggregate.
  struct AggScratch {
    std::vector<KeyCell> keys;  // row-major, nkeys per row
    std::vector<uint32_t> groups;
    std::vector<std::vector<Value>> temps;  // per key, then the arguments
  };

  Result<std::shared_ptr<RowSet>> ExecAggregate(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(RowInput input, ExecInput(node));
    size_t nkeys = node.group_by.size();
    size_t naggs = node.aggs.size();
    std::vector<CellReader> keys(nkeys);
    std::vector<CellReader> args(naggs);
    std::vector<const Expr*> evaluated;  // read over the scratch batch
    bool stable_keys = true;
    for (size_t k = 0; k < nkeys; ++k) {
      TPCDS_ASSIGN_OR_RETURN(keys[k], BindCell(*node.group_by[k], input));
      if (keys[k].stable()) continue;
      stable_keys = false;
      evaluated.push_back(node.group_by[k]);
    }
    for (size_t a = 0; a < naggs; ++a) {
      const PlanAggSpec& spec = node.aggs[a];
      if (spec.star || spec.arg == nullptr) continue;
      TPCDS_ASSIGN_OR_RETURN(args[a], BindCell(*spec.arg, input));
      if (!args[a].stable()) evaluated.push_back(spec.arg);
    }

    // One group table per worker. A worker receives its morsels in
    // ascending order, so a group's open partial belongs to the latest
    // morsel it was seen in; with several workers the tables record their
    // closed partials and GroupTable::Combine folds them in morsel order.
    size_t workers = Workers();
    bool record = workers > 1 && MorselCount(input.rows.size()) > 1;
    std::vector<std::unique_ptr<GroupTable>> tables(workers);
    std::vector<AggScratch> scratch(workers);
    ForEachInputMorsel(
        input, SlotsRead(evaluated, input.scope), [&](const MorselRows& in) {
          std::unique_ptr<GroupTable>& table = tables[in.worker];
          if (table == nullptr) {
            table = std::make_unique<GroupTable>(&node.aggs, nkeys, record);
          }
          AggScratch& s = scratch[in.worker];
          if (s.groups.size() < in.n) {
            s.keys.resize(in.n * nkeys);
            s.groups.resize(in.n);
            s.temps.resize(nkeys + 1);
          }
          for (size_t k = 0; k < nkeys; ++k) {
            keys[k].Read(in, &s.temps[k], [&](size_t i, const Cell& c) {
              s.keys[i * nkeys + k] = KeyCell::Of(c);
            });
          }
          uint64_t row0 = in.morsel * kBatchRows;
          uint32_t m = static_cast<uint32_t>(in.morsel);
          int64_t created_groups = 0;
          for (size_t i = 0; i < in.n; ++i) {
            const KeyCell* key = &s.keys[i * nkeys];
            // Fact rows come clustered, and a keyless aggregate has one
            // group: a row keyed as the one before joins its group.
            if (i > 0 && std::equal(key, key + nkeys, key - nkeys)) {
              s.groups[i] = s.groups[i - 1];
              continue;
            }
            bool created = false;
            uint32_t g = table->FindOrAdd(key, HashKey(key, nkeys), row0 + i,
                                          stable_keys, &created);
            created_groups += created ? 1 : 0;
            table->Touch(g, m);
            s.groups[i] = g;
          }
          for (size_t a = 0; a < naggs; ++a) {
            if (node.aggs[a].star || node.aggs[a].arg == nullptr) {
              for (size_t i = 0; i < in.n; ++i) {
                table->Add(a, s.groups[i], Cell{}, row0 + i, true);
              }
              continue;
            }
            bool stable = args[a].stable();
            args[a].Read(in, &s.temps[nkeys], [&](size_t i, const Cell& c) {
              table->Add(a, s.groups[i], c, row0 + i, stable);
            });
          }
          // Each group is charged once, by the worker table creating it:
          // a row, plus its key and accumulator bytes.
          ChargeGroups(created_groups, table->group_bytes());
        });
    std::vector<GroupTable*> built;
    for (auto& t : tables) {
      if (t != nullptr) built.push_back(t.get());
    }
    GroupTable groups = GroupTable::Combine(built, &node.aggs, nkeys);
    groups.FoldDateKeyedGroups();

    if (node.rollup && nkeys > 0 && !governor_->cancelled()) {
      AddRollupLevels(node, &groups);
      // Subtotal keys whose prefixes hold a date and the string naming it.
      groups.FoldDateKeyedGroups();
    }

    // No GROUP BY and no input rows still yields one (empty) group.
    if (node.group_by.empty() && groups.size() == 0) {
      bool created = false;
      groups.FindOrAdd(nullptr, HashKey(nullptr, 0), 0, true, &created);
    }

    auto out = std::make_shared<RowSet>();
    out->cols = node.schema;
    out->rows.resize(groups.size());
    ForEachMorsel(groups.size(), [&](size_t b, size_t e, size_t) {
      for (size_t g = b; g < e; ++g) {
        std::vector<Value>& row = out->rows[g];
        row.reserve(nkeys + naggs);
        const KeyCell* key = groups.key(static_cast<uint32_t>(g));
        for (size_t k = 0; k < nkeys; ++k) row.push_back(key[k].cell.ToValue());
        for (size_t a = 0; a < naggs; ++a) {
          row.push_back(groups.Finalize(a, static_cast<uint32_t>(g)));
        }
      }
    });
    return out;
  }

  /// SQL-99 subtotal levels n-1, ..., 0, each computed from the pristine
  /// leaf groups instead of rescanning the input: leaf groups sharing
  /// their first `depth` keys fold, in leaf order and in morsels of
  /// kBatchRows leaf groups, into one group whose trailing keys are NULL.
  /// The first leaf with a given prefix is also the first input row with
  /// it, so subtotal groups appear in the order a row rescan would emit.
  /// Then each level folds into `groups` in depth order. A subtotal key
  /// can equal a natural all-NULL leaf key; the collision merges into the
  /// earlier group instead of emitting a duplicate key.
  void AddRollupLevels(const PlanNode& node, GroupTable* groups) {
    size_t nkeys = groups->nkeys();
    size_t n = groups->size();
    std::vector<GroupTable> levels;
    std::vector<KeyCell> key(nkeys);
    for (size_t depth = nkeys; depth-- > 0;) {
      GroupTable& level = levels.emplace_back(&node.aggs, nkeys, false);
      std::vector<uint32_t> map(n);
      for (size_t m = 0; m < MorselCount(n); ++m) {
        if (track_ && !governor_->BeginMorsel()) return;
        int64_t created_groups = 0;
        for (size_t leaf = m * kBatchRows;
             leaf < std::min(n, (m + 1) * kBatchRows); ++leaf) {
          uint32_t l = static_cast<uint32_t>(leaf);
          std::copy_n(groups->key(l), depth, key.begin());
          std::fill(key.begin() + static_cast<long>(depth), key.end(),
                    KeyCell{});
          bool created = false;
          uint32_t g = level.FindOrAdd(key.data(), HashKey(key.data(), nkeys),
                                       leaf, true, &created);
          created_groups += created ? 1 : 0;
          level.Touch(g, static_cast<uint32_t>(m));
          level.Merge(g, *groups, l, /*open=*/true, /*by_row=*/false);
          map[leaf] = g;
        }
        ChargeGroups(created_groups, level.group_bytes());
      }
      level.CloseAll();
      level.MergeDistinct(*groups, map, false);
    }
    for (GroupTable& level : levels) {
      std::vector<uint32_t> map(level.size());
      for (uint32_t j = 0; j < level.size(); ++j) {
        bool created = false;
        map[j] = groups->FindOrAdd(level.key(j), level.hash(j),
                                   level.first_row(j), true, &created);
        groups->Merge(map[j], level, j, false, false);
      }
      groups->MergeDistinct(level, map, false);
    }
  }

  // ---- window functions -----------------------------------------------

  /// Window functions. Rows partition by their PARTITION BY keys in the
  /// key index, partitions numbered in first-seen order; an aggregate
  /// keeps its state in the same table, one group per partition, its rows
  /// added in row order as one morsel.
  Result<std::shared_ptr<RowSet>> ExecWindow(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> scope,
                           ExecOwned(node.children[0]));
    size_t n = scope->rows.size();
    for (const PlanWindowFn& fn : node.windows) {
      TPCDS_ASSIGN_OR_RETURN(
          std::vector<std::unique_ptr<BoundExpr>> part_exprs,
          BindAll(fn.partition_by, *scope));
      size_t np = part_exprs.size();
      std::vector<Value> keys(n * np);  // row-major; the table views them
      RowKeys keyer(np);
      for (size_t r = 0; r < n; ++r) {
        for (size_t p = 0; p < np; ++p) {
          keys[r * np + p] = part_exprs[p]->Eval(scope->rows[r]);
        }
        keyer.Scan(keys.data() + r * np);
      }
      bool ranks = fn.function == "RANK" || fn.function == "ROW_NUMBER" ||
                   fn.function == "DENSE_RANK";
      std::vector<PlanAggSpec> specs(ranks ? 0 : 1);
      std::unique_ptr<BoundExpr> arg;
      if (!ranks) {
        specs[0].function = fn.function;
        specs[0].star = fn.star;
        if (!fn.star && fn.arg != nullptr) {
          TPCDS_ASSIGN_OR_RETURN(arg, BindExpr(*fn.arg, *scope, this));
        }
      }
      GroupTable parts(&specs, np, false);
      std::vector<uint32_t> part(n);
      Value v;
      for (size_t r = 0; r < n; ++r) {
        const KeyCell* key = keyer.Of(keys.data() + r * np);
        bool created = false;
        uint32_t g =
            parts.FindOrAdd(key, HashKey(key, np), r, true, &created);
        part[r] = g;
        if (ranks) continue;
        parts.Touch(g, 0);
        if (arg != nullptr) v = arg->Eval(scope->rows[r]);
        parts.Add(0, g, Cell::Of(v), r, false);
      }

      std::vector<Value> results(n);
      if (ranks) {
        TPCDS_ASSIGN_OR_RETURN(
            std::vector<std::unique_ptr<BoundExpr>> order_exprs,
            BindAll(fn.order_by, *scope));
        std::vector<std::vector<size_t>> members(parts.size());
        for (size_t r = 0; r < n; ++r) members[part[r]].push_back(r);
        for (const std::vector<size_t>& rows : members) {
          std::vector<std::vector<Value>> sort_keys(rows.size());
          for (size_t i = 0; i < rows.size(); ++i) {
            for (const auto& o : order_exprs) {
              sort_keys[i].push_back(o->Eval(scope->rows[rows[i]]));
            }
          }
          std::vector<size_t> idx(rows.size());
          for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
          std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return CompareKeys(sort_keys[a], sort_keys[b], fn.order_desc) < 0;
          });
          int64_t rank = 0;
          int64_t dense = 0;
          for (size_t i = 0; i < idx.size(); ++i) {
            bool tie = i > 0 && CompareKeys(sort_keys[idx[i]],
                                            sort_keys[idx[i - 1]],
                                            fn.order_desc) == 0;
            if (fn.function == "ROW_NUMBER") {
              rank = static_cast<int64_t>(i) + 1;
            } else if (fn.function == "RANK") {
              if (!tie) rank = static_cast<int64_t>(i) + 1;
            } else {  // DENSE_RANK
              if (!tie) ++dense;
              rank = dense;
            }
            results[rows[idx[i]]] = Value::Int(rank);
          }
        }
      } else {
        parts.CloseAll();
        std::vector<Value> finals(parts.size());
        for (uint32_t g = 0; g < parts.size(); ++g) {
          finals[g] = parts.Finalize(0, g);
        }
        for (size_t r = 0; r < n; ++r) results[r] = finals[part[r]];
      }

      RowSet::Col col;
      col.name = fn.out_col;
      scope->cols.push_back(std::move(col));
      for (size_t r = 0; r < n; ++r) {
        scope->rows[r].push_back(results[r]);
      }
    }
    return scope;
  }

  /// The governor's Tick for a serial loop over rows, once per kBatchRows
  /// rows: false when the query must stop.
  bool TickAt(size_t row) {
    return !track_ || row % kBatchRows != 0 || governor_->Tick();
  }

  /// Duplicate elimination over the visible prefix: the rows key in the
  /// key index, as views, and the first row of each key stays, in order.
  void DistinctRows(RowSet* rs) {
    size_t n = rs->rows.size();
    size_t width = rs->VisibleCols();
    RowKeys keys(width);
    for (const auto& row : rs->rows) keys.Scan(row.data());
    GroupTable seen(width);
    for (size_t r = 0; r < n; ++r) {
      if (!TickAt(r)) return;
      bool created = false;
      const KeyCell* key = keys.Of(rs->rows[r].data());
      seen.FindOrAdd(key, HashKey(key, width), r, true, &created);
    }
    if (seen.size() == n) return;
    RowList unique_rows(seen.size());
    for (uint32_t g = 0; g < seen.size(); ++g) {
      unique_rows[g] = std::move(rs->rows[seen.first_row(g)]);
    }
    rs->rows = std::move(unique_rows);
  }

  const DataFacade* facade_;
  PlannerOptions options_;
  ExecStats* stats_;
  const PhysicalPlan* plan_;
  QueryGovernor* governor_;  // never null; default governor is a no-op
  bool track_ = false;       // charge rows/bytes only when limits or faults on
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  std::map<std::string, std::shared_ptr<RowSet>> cte_results_;
  std::map<const PlanNode*, std::shared_ptr<RowSet>> memo_;
  /// Per worker, the scratch batch the index form's readers read into
  /// (Batch); kept warm across operators.
  std::vector<RowList> batches_;
  /// Join-key filters registered on scans by enclosing hash/semi joins.
  /// Registration and unregistration happen in the (serial) operator
  /// open/close path; only morsel workers read it concurrently.
  std::map<const PlanNode*, std::vector<ScanPushdown>> pushdowns_;
  double child_seconds_ = 0.0;
};

void EmitOperator(const PlanNode* node, int depth, ExecStats* stats,
                  std::set<const PlanNode*>* visited) {
  ExecStats::OpStat op;
  op.label = PlanNodeLabel(*node);
  op.depth = depth;
  op.rows_in = node->stats.rows_in;
  op.rows_out = node->stats.rows_out;
  op.seconds = node->stats.seconds;
  op.executed = node->stats.executed;
  op.morsels_pruned = node->stats.morsels_pruned;
  op.bloom_rejects = node->stats.bloom_rejects;
  op.vectorized = node->stats.vectorized;
  op.topk_seen = node->stats.topk_seen;
  op.topk_kept = node->stats.topk_kept;
  op.bytes_touched = node->stats.bytes_touched;
  bool first_visit = visited->insert(node).second;
  if (!first_visit) op.label += " (shared)";
  stats->operators.push_back(std::move(op));
  if (!first_visit) return;  // shared subtree already listed
  for (const auto& c : node->children) {
    EmitOperator(c.get(), depth + 1, stats, visited);
  }
}

}  // namespace

Result<std::shared_ptr<RowSet>> ExecutePlan(const DataFacade* facade,
                                            const PhysicalPlan& plan,
                                            const PlannerOptions& options,
                                            ExecStats* stats,
                                            QueryGovernor* governor) {
  // An external governor (cancellation from another thread) takes
  // precedence; otherwise build one from the options' limits.
  GovernorLimits limits;
  limits.timeout_ms = options.timeout_ms;
  limits.memory_budget_bytes = options.memory_budget_bytes;
  limits.row_budget = options.row_budget;
  QueryGovernor local(limits);
  QueryGovernor* gov = governor != nullptr ? governor : &local;
  PlanExecutor executor(facade, options, stats, &plan, gov);
  Result<std::shared_ptr<RowSet>> result = executor.Run();
  if (result.ok() && stats != nullptr) {
    std::set<const PlanNode*> visited;
    for (const auto& [name, node] : plan.ctes) {
      EmitOperator(node.get(), 0, stats, &visited);
    }
    EmitOperator(plan.root.get(), 0, stats, &visited);
  }
  return result;
}

}  // namespace tpcds
