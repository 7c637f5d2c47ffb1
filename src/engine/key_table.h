#ifndef TPCDS_ENGINE_KEY_TABLE_H_
#define TPCDS_ENGINE_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tpcds {

/// Flat open-addressing hash table keyed on raw int64 words: the typed
/// join keys of the executor's hash join and star semi-join, and the key
/// sets of constraint validation. Integer surrogate keys, date JDNs and
/// decimal cents all store as one int64 (see StorageColumn), so a join on
/// any of them needs no boxed Value key.
///
/// Capacity is a power of two at least twice the declared key count;
/// lookups probe linearly from a multiplicative hash of the key. A slot
/// holds the key and the first row stored under it. Built as a multimap
/// (`rows` > 0), a `next` array chains every further row of a key in
/// insertion order, so rows inserted ascending come back ascending. Built
/// as a set (`rows` == 0), a repeated key is not stored again.
///
/// Not thread-safe to build; a built table is safe to read from any
/// number of threads.
class KeyTable {
 public:
  /// Marks "no row": a miss, or the end of a key's chain.
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Sizes the table for at most `max_keys` distinct keys. `rows` > 0
  /// makes it a multimap over row indices [0, rows).
  explicit KeyTable(size_t max_keys, size_t rows = 0)
      : slots_(Capacity(max_keys)), next_(rows, kNone) {
    mask_ = slots_.size() - 1;
    shift_ = 64;
    for (size_t c = slots_.size(); c > 1; c >>= 1) --shift_;
  }

  /// Bytes a table built with these arguments allocates, so a caller can
  /// charge a memory budget before it builds.
  static int64_t BytesFor(size_t max_keys, size_t rows = 0) {
    return static_cast<int64_t>(Capacity(max_keys) * sizeof(Slot) +
                                rows * sizeof(uint32_t));
  }

  /// Stores `row` under `key` and returns true when the key is new. In a
  /// multimap a repeated key appends `row` to the key's chain.
  bool Insert(int64_t key, uint32_t row) {
    Slot& s = slots_[Locate(key)];
    if (s.head == kNone) {
      s.key = key;
      s.head = row;
      s.tail = row;
      ++size_;
      return true;
    }
    if (!next_.empty()) {
      next_[s.tail] = row;
      s.tail = row;
    }
    return false;
  }

  /// The first row stored under `key`, or kNone.
  uint32_t Find(int64_t key) const { return slots_[Locate(key)].head; }
  bool Contains(int64_t key) const { return Find(key) != kNone; }

  /// The row after `row` in its key's chain, or kNone. Multimap only.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Number of distinct keys stored.
  size_t size() const { return size_; }

  /// Calls fn(key) once per distinct key, in slot order.
  template <typename Fn>
  void ForEachKey(const Fn& fn) const {
    for (const Slot& s : slots_) {
      if (s.head != kNone) fn(s.key);
    }
  }

 private:
  struct Slot {
    int64_t key = 0;
    uint32_t head = kNone;  // first row; kNone marks an empty slot
    uint32_t tail = kNone;  // last row, where a multimap chains the next
  };

  static size_t Capacity(size_t max_keys) {
    size_t c = 2;
    while (c < 2 * max_keys) c <<= 1;
    return c;
  }

  /// The slot holding `key`, or the empty slot where it would go. At
  /// least half the slots stay empty, so the probe always terminates.
  size_t Locate(int64_t key) const {
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i].head != kNone && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  size_t mask_ = 0;
  unsigned shift_ = 64;
  size_t size_ = 0;
};

}  // namespace tpcds

#endif  // TPCDS_ENGINE_KEY_TABLE_H_
