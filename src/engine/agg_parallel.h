#ifndef TPCDS_ENGINE_AGG_PARALLEL_H_
#define TPCDS_ENGINE_AGG_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/value.h"

namespace tpcds {

/// Partitioned-hash building blocks shared by the DISTINCT / set-operation,
/// join, sort and Top-K paths in the executor. All of them follow the same
/// determinism rule as the rest of the morsel executor: partition
/// assignment is a pure function of the input (a value hash, never a
/// thread id), and per-partition results are recombined in first-seen
/// input order, so results are byte-identical at any parallelism level.

/// Number of hash partitions for parallel distinct / set-op builds. A
/// constant (like the executor's join partitions): partition contents must
/// not depend on the worker count.
inline constexpr size_t kHashPartitions = 16;

/// Borrowed view of a composite key: a prefix of a materialised row, or a
/// per-row scratch buffer. Lets the key hash tables probe a candidate
/// key without materialising it — the key values are copied only when a
/// new group is inserted (transparent lookup, in the style of the
/// string_view lookups on EngineTable::StringIndex).
struct GroupKeyView {
  const Value* data = nullptr;
  size_t size = 0;

  static GroupKeyView Of(const std::vector<Value>& key) {
    return {key.data(), key.size()};
  }
  /// The first `n` values of `row` (a RowSet visible prefix).
  static GroupKeyView Prefix(const std::vector<Value>& row, size_t n) {
    return {row.data(), std::min(n, row.size())};
  }
};

/// FNV-style hash over a key's values. Transparent: a view and its
/// materialised copy hash identically, so heterogeneous lookup and
/// hash-based partition assignment agree everywhere.
struct GroupKeyHash {
  using is_transparent = void;
  size_t operator()(const std::vector<Value>& key) const {
    return Hash(key.data(), key.size());
  }
  size_t operator()(const GroupKeyView& key) const {
    return Hash(key.data, key.size);
  }
  static size_t Hash(const Value* values, size_t n);
};

/// SQL DISTINCT key equality: NULLs compare equal to each
/// other (unlike predicate evaluation). Transparent, matching GroupKeyHash.
struct GroupKeyEq {
  using is_transparent = void;
  static bool Eq(const Value* a, size_t an, const Value* b, size_t bn);

  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    return Eq(a.data(), a.size(), b.data(), b.size());
  }
  bool operator()(const std::vector<Value>& a, const GroupKeyView& b) const {
    return Eq(a.data(), a.size(), b.data, b.size);
  }
  bool operator()(const GroupKeyView& a, const std::vector<Value>& b) const {
    return Eq(a.data, a.size, b.data(), b.size());
  }
  bool operator()(const GroupKeyView& a, const GroupKeyView& b) const {
    return Eq(a.data, a.size, b.data, b.size);
  }
};

/// Merges per-partition ascending row-index lists into one ascending list
/// — the survivor order of a partitioned duplicate elimination, equal to
/// the input order a serial scan would have produced.
std::vector<uint32_t> MergeAscendingIndexLists(
    const std::vector<std::vector<uint32_t>>& lists);

/// Rows per locally-sorted run in the parallel sort. A constant multiple
/// of the morsel size — like the morsel size itself, independent of the
/// worker count so the run structure is a function of the input alone
/// (the merged order is additionally unique because sort comparators
/// break ties on the original row index, making them total orders).
inline constexpr size_t kSortRunRows = 16 * 1024;

inline size_t SortRunCount(size_t n) {
  return (n + kSortRunRows - 1) / kSortRunRows;
}

/// One Top-K candidate: the materialised sort key and the input row it
/// belongs to.
struct TopKEntry {
  std::vector<Value> key;
  uint32_t row = 0;
};

/// Bounded candidate heap for the Top-K operator: keeps the best
/// `capacity` entries seen so far under `better` (a total order —
/// callers break key ties on the row index). The heap top is the worst
/// retained entry, so a non-qualifying row is rejected with one
/// comparison and its key is never stored — the memory win over a full
/// sort. The retained set is input-only (exact top-k of the offered
/// rows), so merging per-chunk heaps yields the same k rows however the
/// input was chunked.
template <typename Better>
class TopKHeap {
 public:
  TopKHeap(size_t capacity, Better better)
      : capacity_(capacity), better_(std::move(better)),
        worse_first_(HeapCmp{&better_}) {}

  /// Offers one row. `key` is the caller's scratch buffer; it is moved
  /// from (leaving it empty) only when the entry is retained.
  bool Offer(std::vector<Value>* key, uint32_t row) {
    if (capacity_ == 0) return false;
    if (entries_.size() < capacity_) {
      entries_.push_back(TopKEntry{std::move(*key), row});
      std::push_heap(entries_.begin(), entries_.end(), worse_first_);
      return true;
    }
    TopKEntry candidate{std::move(*key), row};
    if (!better_(candidate, entries_.front())) {
      *key = std::move(candidate.key);  // give the scratch buffer back
      return false;
    }
    std::pop_heap(entries_.begin(), entries_.end(), worse_first_);
    entries_.back() = std::move(candidate);
    std::push_heap(entries_.begin(), entries_.end(), worse_first_);
    return true;
  }

  const std::vector<TopKEntry>& entries() const { return entries_; }
  std::vector<TopKEntry> Take() { return std::move(entries_); }

 private:
  /// std::push_heap keeps the *greatest* element (under the comparator)
  /// at the front; ordering by `better` puts the worst retained entry
  /// there, which is exactly the eviction candidate.
  struct HeapCmp {
    const Better* better;
    bool operator()(const TopKEntry& a, const TopKEntry& b) const {
      return (*better)(a, b);
    }
  };

  size_t capacity_;
  Better better_;
  HeapCmp worse_first_;
  std::vector<TopKEntry> entries_;
};

}  // namespace tpcds

#endif  // TPCDS_ENGINE_AGG_PARALLEL_H_
