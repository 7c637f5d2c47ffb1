#include "sample_stats.h"

#include <algorithm>
#include <cmath>

namespace tpcbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles, method="exclusive", n=4: j = i*(ld+1)//4 clamped
  // to [1, ld-1], then linear interpolation in quarters.
  const long m = ld + 1;
  auto cut = [&](long i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    long delta = i * m - j * 4;
    return (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = cut(1);
  out.q3 = cut(3);
  return out;
}

std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     int min_beyond) {
  if (values.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  const size_t n = values.size();
  // Nearest rank, 1-based: the smallest rank whose share reaches q.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < static_cast<size_t>(std::max(min_beyond, 0))) {
    return std::nullopt;
  }
  std::nth_element(values.begin(),
                   values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

}  // namespace tpcbench
