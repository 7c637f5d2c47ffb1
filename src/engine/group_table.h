#ifndef TPCDS_ENGINE_GROUP_TABLE_H_
#define TPCDS_ENGINE_GROUP_TABLE_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "engine/plan.h"
#include "engine/value.h"

namespace tpcds {

/// A value read for grouping or accumulating without boxing it: its kind,
/// its word (int, decimal cents, date JDN, or a double's bits) and, for a
/// string, a view of bytes that something else holds.
struct Cell {
  Value::Kind kind = Value::Kind::kNull;
  int64_t word = 0;
  std::string_view str;

  bool is_null() const { return kind == Value::Kind::kNull; }
  /// A view of `v`: its string stays `v`'s.
  static Cell Of(const Value& v);
  static Cell Word(Value::Kind kind, int64_t word) { return {kind, word, {}}; }
  /// Value::AsDouble, bit for bit.
  double AsDouble() const;
  Value ToValue() const;
};

/// Value::Compare over cells; neither may be NULL.
int CompareCells(const Cell& a, const Cell& b);

/// What every hashed lookup equates a cell by (docs/EXECUTOR.md, "Typed
/// keys" and "Join keys"): hash joins, star semi-joins, IN sets, DISTINCT,
/// set operations, window partitions, GROUP BY and COUNT(DISTINCT).
/// Integral numerics key by their integer value, so 5, 5.00 and 5.0 are
/// one key, and a date by its JDN, so it equals the integer of its day
/// number, as Value::Compare has it; other numerics key by their double,
/// strings by their bytes, NULL as a class of its own. A string naming a
/// date keys as that date only where dates meet strings (DateKeyed).
enum class KeyClass : uint8_t { kNull, kIntegral, kDouble, kString };

/// A cell with its key class and equality word. The cell keeps the kind
/// and word it was read with, which a group shows in its output.
struct KeyCell {
  Cell cell;
  KeyClass cls = KeyClass::kNull;
  int64_t eq = 0;  // integral value (a date's JDN) or double bits

  static KeyCell Of(const Cell& c);
  bool operator==(const KeyCell& o) const {
    return cls == o.cls &&
           (cls == KeyClass::kString ? cell.str == o.cell.str : eq == o.eq);
  }
  uint64_t Hash() const;
};

/// Hash of a composite key.
uint64_t HashKey(const KeyCell* key, size_t n);

// Cell::Of and KeyCell::Of are inline: every hashed lookup reads each key
// of each row through them.
inline Cell Cell::Of(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull: return {};
    case Value::Kind::kDouble:
      return {Value::Kind::kDouble, std::bit_cast<int64_t>(v.AsDouble()), {}};
    case Value::Kind::kString: return {Value::Kind::kString, 0, v.AsString()};
    default: return {v.kind(), v.AsInt(), {}};  // int, cents or JDN
  }
}

inline KeyCell KeyCell::Of(const Cell& c) {
  KeyCell k;
  k.cell = c;
  switch (c.kind) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kInt:
    case Value::Kind::kDate:  // by its JDN
      k.cls = KeyClass::kIntegral;
      k.eq = c.word;
      break;
    case Value::Kind::kDecimal:
      if (c.word % Decimal::kScale == 0) {
        k.cls = KeyClass::kIntegral;
        k.eq = c.word / Decimal::kScale;
      } else {
        k.cls = KeyClass::kDouble;
        k.eq = std::bit_cast<int64_t>(c.AsDouble());
      }
      break;
    case Value::Kind::kDouble: {
      double d = c.AsDouble();
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        k.cls = KeyClass::kIntegral;
        k.eq = static_cast<int64_t>(d);
      } else {
        k.cls = KeyClass::kDouble;
        k.eq = std::bit_cast<int64_t>(std::isnan(d) ? std::nan("") : d);
      }
      break;
    }
    case Value::Kind::kString:
      k.cls = KeyClass::kString;
      break;
  }
  return k;
}

/// The DATE/string rule of every hashed lookup. Value::Compare equates a
/// DATE with a string naming it, but a key has one class, so where a key
/// position meets dates and strings each string naming a date keys as
/// that date: this returns the date's key for such a string and `k`
/// itself for any other cell.
KeyCell DateKeyed(const KeyCell& k);

/// What one key position holds, for the DATE/string rule.
struct KeyKinds {
  bool dates = false;
  bool strings = false;

  void Add(const Cell& c) {
    dates |= c.kind == Value::Kind::kDate;
    strings |= c.kind == Value::Kind::kString;
  }
  bool mixed() const { return dates && strings; }
};

/// Owns copies of strings that no longer live anywhere else (expression
/// results); the views it hands out stay valid while it, or an arena
/// that adopted it, lives.
class StringArena {
 public:
  std::string_view Copy(std::string_view s);
  void Adopt(StringArena* other);

 private:
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t used_ = 0;
  size_t capacity_ = 0;
};

/// The aggregate's group table (docs/EXECUTOR.md, "Group tables, parallel
/// sort, Top-K"): composite keys of KeyCells in a flat open-addressing
/// index, groups numbered in creation order, and each aggregate's state in
/// arrays indexed by group.
///
/// The fold order is that of per-morsel partials merged in morsel order.
/// State that no order changes (counts, int and cents sums, COUNT(DISTINCT)
/// sets) goes straight into a group's total, and so do MIN and MAX, which
/// keep the earliest best value. Floating-point sums go into the group's
/// open partial for the current morsel: Touch() folds it into the total
/// when a row of a later morsel arrives, so every double is summed in row
/// order within a morsel and then partial by partial in morsel order. A
/// table built with `record` keeps its closed partials with their morsel
/// instead (a worker's table when several workers share the morsels), and
/// Combine folds them in morsel order.
class GroupTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  GroupTable(const std::vector<PlanAggSpec>* aggs, size_t nkeys, bool record);
  /// A key index: keys only, no aggregate. It serves DISTINCT, set
  /// operations, window partitions, IN sets and the join build sides a
  /// KeyTable does not take.
  explicit GroupTable(size_t nkeys);

  size_t size() const { return hashes_.size(); }
  size_t nkeys() const { return nkeys_; }
  const KeyCell* key(uint32_t g) const { return &keys_[g * nkeys_]; }
  uint64_t hash(uint32_t g) const { return hashes_[g]; }
  uint64_t first_row(uint32_t g) const { return first_row_[g]; }
  /// Bytes one group holds: its key, its index slot and its state.
  size_t group_bytes() const { return group_bytes_; }

  /// The group of `key` (`nkeys()` cells, hash `h`). A new group is
  /// created with first-seen row `row`, and its key's strings are copied
  /// into the arena unless `stable` (they outlive the table).
  uint32_t FindOrAdd(const KeyCell* key, uint64_t h, uint64_t row,
                     bool stable, bool* created);
  /// The group of `key` (hash `h`), or kNone. Safe from any number of
  /// threads while nothing adds to the table.
  uint32_t Find(const KeyCell* key, uint64_t h) const;

  /// Opens group g's partial for morsel m, first folding (or recording)
  /// the partial it holds for an earlier morsel. Call before adding the
  /// group's rows of morsel m.
  void Touch(uint32_t g, uint32_t m) {
    if (!has_open_) return;
    uint32_t& open = open_morsel_[g];
    if (open == m) return;
    if (open != kNone) Close(g);
    open = m;
  }
  /// Folds (or records) every open partial.
  void CloseAll();

  /// Adds one row's argument `v` of aggregate `a` to group g; `row` is the
  /// input row, and `stable` says v's string outlives the table.
  void Add(size_t a, uint32_t g, const Cell& v, uint64_t row, bool stable);

  /// Folds group `sg` of `src` into group g, as one accumulator's Merge
  /// folds another. `open` adds the floating-point sums to g's open
  /// partial instead of its total (a ROLLUP level over leaf groups).
  /// `by_row` breaks a MIN/MAX tie toward the earlier row (tables of
  /// different workers); otherwise the value g holds stays.
  /// COUNT(DISTINCT) sets merge through MergeDistinct.
  void Merge(uint32_t g, const GroupTable& src, uint32_t sg, bool open,
             bool by_row);
  /// Adds the distinct values of each group sg of `src` to group
  /// map[sg] (kNone: skipped). `by_row` keeps the earlier row's
  /// representative of equal values; otherwise the one g holds stays.
  void MergeDistinct(const GroupTable& src, const std::vector<uint32_t>& map,
                     bool by_row);
  /// Folds the partials `src` recorded into groups map[g], in morsel
  /// order per group. Every worker table's partials must arrive in one
  /// call, so that they interleave by morsel.
  void FoldRecorded(const std::vector<const GroupTable*>& srcs,
                    const std::vector<std::vector<uint32_t>>& maps);

  /// The groups of the workers' tables `tables` (in worker order), each
  /// state folded as a serial run folds it, in first-seen (morsel, row)
  /// order. Consumes the tables: their strings move to the result.
  static GroupTable Combine(const std::vector<GroupTable*>& tables,
                            const std::vector<PlanAggSpec>* aggs,
                            size_t nkeys);

  /// Groups as GROUP BY compares their keys. Where a key position holds
  /// dates in some groups and strings in others, a string naming a date
  /// keys as that date, so groups that Value::Compare equates but that
  /// hashed apart fold into one: the first-seen group keeps its key, and
  /// each later one merges into it in first-seen order.
  void FoldDateKeyedGroups();

  /// The value of aggregate `a` for group g (after CloseAll).
  Value Finalize(size_t a, uint32_t g) const;

 private:
  enum class Fn : uint8_t { kCount, kSum, kAvg, kMin, kMax, kStddev, kOther };
  static Fn FunctionOf(const PlanAggSpec& spec);

  /// One distinct value of a group, with the input row it was first seen
  /// in.
  struct DistinctEntry {
    uint32_t group;
    KeyCell key;
    uint64_t row;
  };

  /// Open-addressing index from hashes to ids; the caller keeps the
  /// entries and their hashes.
  class Index {
   public:
    /// The slot holding the id for which eq(id) is true among those
    /// hashed `h`, or the empty slot (kNone) where such an id goes.
    template <typename Eq>
    uint32_t* Locate(uint64_t h, const Eq& eq) {
      if (slots_.empty()) Rehash(16, {});
      return &slots_[Probe(h, eq)];
    }
    /// The id for which eq(id) is true among those hashed `h`, or kNone.
    template <typename Eq>
    uint32_t Find(uint64_t h, const Eq& eq) const {
      return slots_.empty() ? kNone : slots_[Probe(h, eq)];
    }
    /// Call after storing a new id in a slot Locate returned.
    void Added(const std::vector<uint64_t>& hashes) {
      if (++count_ * 2 > slots_.size()) Rehash(slots_.size() * 2, hashes);
    }

   private:
    template <typename Eq>
    size_t Probe(uint64_t h, const Eq& eq) const {
      size_t i = static_cast<size_t>(h) & mask_;
      while (slots_[i] != kNone && !eq(slots_[i])) i = (i + 1) & mask_;
      return i;
    }
    void Rehash(size_t capacity, const std::vector<uint64_t>& hashes);

    std::vector<uint32_t> slots_;
    size_t mask_ = 0;
    size_t count_ = 0;
  };

  /// The state of one aggregate, indexed by group.
  struct Agg {
    const PlanAggSpec* spec;
    Fn fn;
    bool distinct;  // a DISTINCT set (never COUNT(*))
    bool sums;      // a floating-point sum (SUM, AVG, STDDEV_SAMP)
    bool squares;   // and a sum of squares (STDDEV_SAMP)
    std::vector<int64_t> count;
    std::vector<int64_t> ints;
    std::vector<int64_t> cents;
    std::vector<uint8_t> saw;  // kSaw* bits
    std::vector<double> sum;
    std::vector<double> sq;
    std::vector<double> open_sum;
    std::vector<double> open_sq;
    std::vector<Cell> best;         // MIN, MAX
    std::vector<uint64_t> best_row;
    // The DISTINCT set: (group, value) entries.
    std::vector<DistinctEntry> entries;
    std::vector<uint64_t> entry_hashes;
    Index entry_index;
  };
  static constexpr uint8_t kSawDecimal = 1;
  static constexpr uint8_t kSawDouble = 2;
  static constexpr uint8_t kSawDate = 4;
  static constexpr uint8_t kSawString = 8;

  /// True when group g holds `key`, hashed `h`.
  bool Holds(uint32_t g, const KeyCell* key, uint64_t h) const;
  void Close(uint32_t g);
  void AddDistinct(Agg& agg, uint32_t g, const KeyCell& key, uint64_t row,
                   bool stable, bool by_row);
  /// The distinct values of group g, a string naming a date counted as the
  /// date when the set holds both.
  std::vector<Cell> DistinctValues(const Agg& agg, uint32_t g) const;

  const std::vector<PlanAggSpec>* specs_;
  size_t nkeys_;
  bool record_;
  bool has_open_ = false;
  size_t group_bytes_ = 0;
  std::vector<Agg> aggs_;
  std::vector<KeyCell> keys_;  // nkeys_ per group
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> first_row_;
  std::vector<uint32_t> open_morsel_;
  Index index_;
  StringArena arena_;
  // Recorded partials: group, morsel, and the open sums of each aggregate
  // that keeps them (sum, then sum of squares), in aggregate order.
  std::vector<uint32_t> closed_group_;
  std::vector<uint32_t> closed_morsel_;
  std::vector<double> closed_sums_;
  size_t sums_per_partial_ = 0;
};

}  // namespace tpcds

#endif  // TPCDS_ENGINE_GROUP_TABLE_H_
