#ifndef TPCDS_ENGINE_STATS_H_
#define TPCDS_ENGINE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace tpcds {

class EngineTable;

/// Dense HyperLogLog sketch with p = 12 (4096 one-byte registers,
/// ~1.6% standard error). Values are fed as pre-mixed 64-bit hashes —
/// see HashStatsInt / HashStatsBytes — so the sketch itself is
/// hash-agnostic. Used transiently by AnalyzeTable; only the resulting
/// estimate is stored (and persisted) in ColumnStats.
class HyperLogLog {
 public:
  static constexpr int kPrecision = 12;
  static constexpr size_t kRegisters = size_t{1} << kPrecision;

  HyperLogLog() : registers_(kRegisters, 0) {}

  void AddHash(uint64_t hash);
  /// Bias-corrected cardinality estimate with the linear-counting
  /// correction for small ranges.
  int64_t Estimate() const;

 private:
  std::vector<uint8_t> registers_;
};

/// Deterministic 64-bit mixers feeding the sketch; splitmix64 finalizer
/// over the raw int / an FNV-1a pass over the bytes. Stable across runs
/// and platforms (unlike std::hash), so persisted estimates reproduce.
uint64_t HashStatsInt(int64_t v);
uint64_t HashStatsBytes(const char* data, size_t size);

/// Equi-depth histogram over an int-backed column's non-null values,
/// built from a (possibly strided) sample. `bounds` carries k + 1 bucket
/// boundaries (bounds[0] = sample min … bounds[k] = sample max); bucket i
/// covers (bounds[i], bounds[i+1]] — the first bucket is closed on the
/// left — and holds `counts[i]` sampled rows.
struct Histogram {
  std::vector<int64_t> bounds;
  std::vector<int64_t> counts;
  int64_t sample_rows = 0;

  bool empty() const { return sample_rows == 0 || bounds.size() < 2; }
  /// Estimated fraction of the (non-null) rows in inclusive [lo, hi],
  /// interpolating linearly inside partially covered buckets.
  double SelectivityRange(int64_t lo, int64_t hi) const;
};

/// One column's collected statistics. `ndv` is a HyperLogLog estimate of
/// the distinct non-null values. min/max/histogram only exist for
/// int-backed (numeric / date / decimal-cents) columns.
struct ColumnStats {
  int64_t row_count = 0;
  int64_t null_count = 0;
  int64_t ndv = 0;
  bool has_minmax = false;
  int64_t min = 0;
  int64_t max = 0;
  Histogram histogram;

  double NullFraction() const {
    return row_count == 0
               ? 0.0
               : static_cast<double>(null_count) /
                     static_cast<double>(row_count);
  }
  int64_t NonNullRows() const { return row_count - null_count; }
};

/// Per-table statistics, one ColumnStats per storage column (same index
/// space as EngineTable::column).
struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;
};

/// Collects TableStats in one pass over every column: null counts,
/// min/max, NDV sketches, and equi-depth histograms from a deterministic
/// strided sample (at most kHistogramSampleCap values per column).
TableStats AnalyzeTable(const EngineTable& table);

/// Serialization for the checkpoint STATS aux file (util/bytes.h wire
/// format; the caller frames the body with magic + CRC).
void SerializeTableStats(const TableStats& stats, std::string* out);
Result<TableStats> DeserializeTableStats(ByteReader* reader);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_STATS_H_
