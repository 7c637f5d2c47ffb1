#ifndef TPCDS_ENGINE_AGG_PARALLEL_H_
#define TPCDS_ENGINE_AGG_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/value.h"

namespace tpcds {

/// The parallel sort's run structure and the Top-K operator's bounded
/// heap. Both follow the morsel executor's determinism rule: the work
/// splits by the input alone, never by the worker count, and ties break on
/// the input row index, so results are byte-identical at any parallelism.

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
