#include "engine/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "engine/table.h"

namespace tpcds {
namespace {

/// Equi-depth bucket target. 64 buckets keep the per-column footprint
/// around 1 KiB while bounding the interpolation error of a range
/// estimate to ~1/64 of the non-null rows per partial bucket.
constexpr size_t kHistogramBuckets = 64;

/// At most this many values feed a histogram; larger columns sample on a
/// deterministic stride so analysis stays one bounded pass.
constexpr size_t kHistogramSampleCap = 1 << 16;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Histogram BuildHistogram(std::vector<int64_t> sample) {
  Histogram h;
  if (sample.empty()) return h;
  std::sort(sample.begin(), sample.end());
  h.sample_rows = static_cast<int64_t>(sample.size());
  size_t buckets = std::min(kHistogramBuckets, sample.size());
  h.bounds.push_back(sample.front());
  size_t start = 0;
  for (size_t b = 0; b < buckets; ++b) {
    size_t end = (sample.size() * (b + 1)) / buckets;
    if (end <= start) continue;
    int64_t upper = sample[end - 1];
    // A slice ending inside the run of the minimum value (the only way
    // `upper` can equal the last bound: emitted buckets merge their
    // boundary run below) has no bucket yet — extend the slice into the
    // next bucket instead of dropping the rows, keeping bounds strictly
    // increasing and counts summing to the sample size.
    if (upper <= h.bounds.back()) continue;
    // Merge the run the boundary value continues into this bucket.
    while (end < sample.size() && sample[end] == upper) ++end;
    h.bounds.push_back(upper);
    h.counts.push_back(static_cast<int64_t>(end - start));
    start = end;
  }
  if (h.counts.empty()) {
    // Single distinct value: one degenerate bucket holding everything.
    h.bounds.assign({sample.front(), sample.back()});
    h.counts.assign({h.sample_rows});
  }
  return h;
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

}  // namespace

void HyperLogLog::AddHash(uint64_t hash) {
  size_t idx = static_cast<size_t>(hash >> (64 - kPrecision));
  uint64_t rest = hash << kPrecision;
  // Rank of the leftmost 1-bit in the remaining 52 bits, in [1, 53].
  uint8_t rank = rest == 0
                     ? static_cast<uint8_t>(64 - kPrecision + 1)
                     : static_cast<uint8_t>(std::countl_zero(rest) + 1);
  if (rank > registers_[idx]) registers_[idx] = rank;
}

int64_t HyperLogLog::Estimate() const {
  const double m = static_cast<double>(kRegisters);
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double inv_sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    inv_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double estimate = alpha * m * m / inv_sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    // Linear counting is more accurate while most registers are empty.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return static_cast<int64_t>(std::llround(estimate));
}

uint64_t HashStatsInt(int64_t v) {
  return SplitMix64(static_cast<uint64_t>(v));
}

uint64_t HashStatsBytes(const char* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return SplitMix64(h);
}

double Histogram::SelectivityRange(int64_t lo, int64_t hi) const {
  if (empty() || lo > hi) return 0.0;
  if (hi < bounds.front() || lo > bounds.back()) return 0.0;
  double covered = 0.0;
  for (size_t b = 0; b + 1 < bounds.size(); ++b) {
    // Bucket b covers (bounds[b], bounds[b+1]]; treat the first bucket as
    // closed on the left by widening its lower edge by one.
    double blo = static_cast<double>(bounds[b]) + (b == 0 ? -1.0 : 0.0);
    double bhi = static_cast<double>(bounds[b + 1]);
    double qlo = std::max(blo, static_cast<double>(lo) - 1.0);
    double qhi = std::min(bhi, static_cast<double>(hi));
    if (qhi <= qlo) continue;
    covered +=
        static_cast<double>(counts[b]) * (qhi - qlo) / (bhi - blo);
  }
  return std::min(1.0, covered / static_cast<double>(sample_rows));
}

TableStats AnalyzeTable(const EngineTable& table) {
  TableStats stats;
  stats.row_count = table.num_rows();
  const size_t rows = static_cast<size_t>(table.num_rows());
  stats.columns.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const StorageColumn& col = table.column(c);
    ColumnStats& cs = stats.columns[c];
    cs.row_count = stats.row_count;
    const bool is_string = col.is_string();
    const size_t stride = std::max<size_t>(1, rows / kHistogramSampleCap);
    HyperLogLog hll;
    std::vector<int64_t> sample;
    if (!is_string) sample.reserve(std::min(rows, kHistogramSampleCap));
    for (size_t r = 0; r < rows; ++r) {
      if (col.IsNull(r)) {
        ++cs.null_count;
        continue;
      }
      if (is_string) {
        std::string_view s = col.Str(r);
        hll.AddHash(HashStatsBytes(s.data(), s.size()));
        continue;
      }
      int64_t v = col.Num(r);
      hll.AddHash(HashStatsInt(v));
      if (!cs.has_minmax) {
        cs.has_minmax = true;
        cs.min = cs.max = v;
      } else {
        cs.min = std::min(cs.min, v);
        cs.max = std::max(cs.max, v);
      }
      if (r % stride == 0) sample.push_back(v);
    }
    cs.ndv = std::clamp<int64_t>(hll.Estimate(),
                                 cs.NonNullRows() > 0 ? 1 : 0,
                                 cs.NonNullRows());
    cs.histogram = BuildHistogram(std::move(sample));
  }
  return stats;
}

void SerializeTableStats(const TableStats& stats, std::string* out) {
  PutI64(out, stats.row_count);
  PutU32(out, static_cast<uint32_t>(stats.columns.size()));
  for (const ColumnStats& cs : stats.columns) {
    PutI64(out, cs.row_count);
    PutI64(out, cs.null_count);
    PutI64(out, cs.ndv);
    // Flags byte: bit 1 = has_minmax; bit 0 is unused and written as 0.
    out->push_back(static_cast<char>(cs.has_minmax ? 2 : 0));
    PutI64(out, cs.min);
    PutI64(out, cs.max);
    PutU32(out, static_cast<uint32_t>(cs.histogram.bounds.size()));
    for (int64_t b : cs.histogram.bounds) PutI64(out, b);
    for (int64_t n : cs.histogram.counts) PutI64(out, n);
    PutI64(out, cs.histogram.sample_rows);
  }
}

Result<TableStats> DeserializeTableStats(ByteReader* reader) {
  TableStats stats;
  TPCDS_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
  stats.row_count = static_cast<int64_t>(rows);
  TPCDS_ASSIGN_OR_RETURN(uint32_t cols, reader->ReadU32());
  stats.columns.resize(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    ColumnStats& cs = stats.columns[c];
    TPCDS_ASSIGN_OR_RETURN(uint64_t rc, reader->ReadU64());
    TPCDS_ASSIGN_OR_RETURN(uint64_t nc, reader->ReadU64());
    TPCDS_ASSIGN_OR_RETURN(uint64_t ndv, reader->ReadU64());
    TPCDS_ASSIGN_OR_RETURN(uint8_t flags, reader->ReadU8());
    TPCDS_ASSIGN_OR_RETURN(uint64_t mn, reader->ReadU64());
    TPCDS_ASSIGN_OR_RETURN(uint64_t mx, reader->ReadU64());
    cs.row_count = static_cast<int64_t>(rc);
    cs.null_count = static_cast<int64_t>(nc);
    cs.ndv = static_cast<int64_t>(ndv);
    cs.has_minmax = (flags & 2) != 0;
    cs.min = static_cast<int64_t>(mn);
    cs.max = static_cast<int64_t>(mx);
    TPCDS_ASSIGN_OR_RETURN(uint32_t nbounds, reader->ReadU32());
    if (nbounds == 1) {
      return Status::DataLoss("column stats: malformed histogram");
    }
    cs.histogram.bounds.resize(nbounds);
    for (uint32_t i = 0; i < nbounds; ++i) {
      TPCDS_ASSIGN_OR_RETURN(uint64_t b, reader->ReadU64());
      cs.histogram.bounds[i] = static_cast<int64_t>(b);
    }
    if (nbounds > 1) {
      cs.histogram.counts.resize(nbounds - 1);
      for (uint32_t i = 0; i + 1 < nbounds; ++i) {
        TPCDS_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
        cs.histogram.counts[i] = static_cast<int64_t>(n);
      }
    }
    TPCDS_ASSIGN_OR_RETURN(uint64_t sr, reader->ReadU64());
    cs.histogram.sample_rows = static_cast<int64_t>(sr);
  }
  return stats;
}

}  // namespace tpcds
