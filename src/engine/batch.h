#ifndef TPCDS_ENGINE_BATCH_H_
#define TPCDS_ENGINE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/value.h"
#include "schema/column.h"

namespace tpcds {

struct Expr;
class EngineTable;
class StorageColumn;
struct RowSet;

/// Rows per columnar batch: both the zone-map block size and the executor's
/// morsel size, so a zone-map entry maps 1:1 onto a scan morsel and pruning
/// a block prunes a morsel. Deliberately independent of the worker count:
/// the partial-result structure (and therefore every merge order and every
/// floating-point reassociation) is a function of the input alone, which
/// makes query results byte-identical across parallelism levels.
inline constexpr size_t kBatchRows = 1024;

/// A selection vector: row indices into a table, ascending. The vectorized
/// scan starts from the identity selection of a morsel and lets each kernel
/// compact it in place; only surviving rows are materialised as Values, and
/// in a join pipeline only at its top.
using SelectionVector = std::vector<uint32_t>;

/// One compiled predicate over a single storage column. Kernels evaluate on
/// the raw typed vectors (int64 for identifiers/ints/decimal-cents/date-JDNs,
/// std::string otherwise) and must be exactly equivalent to evaluating the
/// original expression through expr_eval — predicates whose SQL coercion
/// rules cannot be reproduced on raw storage stay on the residual path.
struct ScanKernel {
  enum class Kind {
    /// No row can pass (NULL literal, negated IN with NULL, empty range).
    kAlwaysFalse,
    /// Int-backed column within inclusive [lo, hi]; negated = outside.
    kIntRange,
    /// Int-backed column in the sorted `values` list; negated = NOT IN.
    kIntIn,
    /// String column compared against `str` with `cmp`.
    kStrCompare,
    /// String column in the sorted `strs` list; negated = NOT IN.
    kStrIn,
    /// String column LIKE `str` (SQL %/_ wildcards); negated = NOT LIKE.
    kStrLike,
    /// IS NULL; negated = IS NOT NULL.
    kNullTest,
  };
  enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };

  Kind kind = Kind::kAlwaysFalse;
  /// Storage column index on the scanned table (not the output slot).
  int col = -1;
  bool negated = false;
  int64_t lo = INT64_MIN;  // kIntRange, inclusive
  int64_t hi = INT64_MAX;
  std::vector<int64_t> values;    // kIntIn, sorted ascending
  Cmp cmp = Cmp::kEq;             // kStrCompare
  std::string str;                // kStrCompare literal / kStrLike pattern
  std::string like_prefix;        // kStrLike: literal prefix before the first
                                  // wildcard, used as a fast pre-filter
  bool prefix_only = false;       // kStrLike: pattern is exactly prefix + "%"
  std::vector<std::string> strs;  // kStrIn, sorted ascending
};

/// Compiles one pushed scan predicate into typed kernels appended to `out`.
/// `scope` is the scan's output schema (for slot resolution), `scan_cols`
/// maps output slots back to storage columns. Returns false — appending
/// nothing — when the predicate needs the generic expr_eval path. A single
/// predicate may compile to more than one kernel (string BETWEEN becomes two
/// compares); the appended kernels pass iff the predicate passes.
bool CompileScanKernel(const Expr& pred, const RowSet& scope,
                       const EngineTable& table,
                       const std::vector<int>& scan_cols,
                       std::vector<ScanKernel>* out);

/// Filters `sel` in place, keeping rows that pass the kernel. Reads the
/// column's typed storage directly; never constructs a Value.
void ApplyScanKernel(const ScanKernel& kernel, const StorageColumn& column,
                     SelectionVector* sel);

/// Overwrites slot `slot` of the rows out[0], ..., out[n - 1] with the
/// values of `column` at table rows rows[0], rows[stride], ...,
/// rows[(n - 1) * stride], in place: a number is set as a word and a
/// string is assigned into the slot's buffer, so a row that is reused
/// allocates nothing. The type dispatch is hoisted out of the row loop.
/// `stride` steps over the other sources of an index tuple (see the
/// executor's index form); a selection vector has stride 1.
void GatherColumn(const StorageColumn& column, const uint32_t* rows,
                  size_t n, size_t stride, size_t slot,
                  std::vector<Value>* out);

/// Min/max summary of one kBatchRows block of an int-backed column.
struct ZoneEntry {
  int64_t min = 0;
  int64_t max = 0;
  bool has_nonnull = false;
  bool has_null = false;
};

/// Per-block zone map over an int-backed column; blocks.size() ==
/// ceil(rows / kBatchRows). Built lazily by EngineTable and invalidated with
/// the hash indexes on mutation.
struct ZoneMap {
  std::vector<ZoneEntry> blocks;
};

/// Builds the zone map for the first `num_rows` rows of an int-backed
/// column. `column.is_string()` must be false.
ZoneMap BuildZoneMap(const StorageColumn& column, size_t num_rows);

/// True when no row in the block can pass the kernel, so the whole morsel
/// can be skipped without touching the data. Only meaningful for int-backed
/// kernel kinds (kIntRange / kIntIn / kNullTest / kAlwaysFalse).
bool KernelPrunesBlock(const ScanKernel& kernel, const ZoneEntry& zone);

/// True when the block has no non-null value in inclusive [lo, hi].
bool RangePrunesBlock(const ZoneEntry& zone, int64_t lo, int64_t hi);

/// Blocked Bloom filter over pre-computed hashes: a hash or semi join's
/// build keys, pushed down into a probe-side scan when the build side is
/// selective, and the key index of a join on several or string keys.
/// False positives only — a downstream exact check keeps results
/// byte-identical.
class BloomFilter {
 public:
  /// Sizes the filter at ~10 bits per expected key (rounded up to a power
  /// of two), giving a low single-digit false-positive rate.
  explicit BloomFilter(size_t expected_keys);
  /// The bits a filter sized for `expected_keys` holds.
  static size_t BitsFor(size_t expected_keys);

  void Add(size_t hash);
  bool MayContain(size_t hash) const;
  size_t bit_count() const { return words_.size() * 64; }

 private:
  std::vector<uint64_t> words_;
  size_t bit_mask_ = 0;
};

/// Hash of the non-null stored value `raw` of a column with type `type`.
/// A pushed join-key Bloom filter hashes both sides with it: each build key
/// mapped onto the column's storage (StorageValueForEquality), and each
/// scanned row's raw word. An integral decimal hashes as its integer.
size_t HashStorageValue(ColumnType type, int64_t raw);

/// Result of mapping a join/IN key onto a column's raw storage domain.
enum class StorageEq {
  kExact,        // *out is the unique raw value comparing equal to the key
  kNoMatch,      // provably no stored value compares equal
  kUnsupported,  // coercion rules too exotic to reproduce on raw storage
};

/// Maps `key` onto the raw stored representation that would compare equal
/// (by Value::Compare) in an int-backed column of type `type`.
StorageEq StorageValueForEquality(ColumnType type, const Value& key,
                                  int64_t* out);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_BATCH_H_
