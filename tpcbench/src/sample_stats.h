#ifndef TPCBENCH_SAMPLE_STATS_H_
#define TPCBENCH_SAMPLE_STATS_H_

#include <optional>
#include <vector>

namespace tpcbench {

/// Median (mean of the middle pair for even counts); 0 when empty.
double Median(std::vector<double> values);

/// First and third quartile by the same rule as Python's
/// statistics.quantiles(values, n=4) (method "exclusive"), so in-run
/// spreads read the same as the spreads computed over runs.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles QuartilesOf(std::vector<double> values);

/// Nearest-rank percentile `q` (0 < q < 1) of `values`, reported only when
/// at least `min_beyond` samples lie above its rank; nullopt otherwise.
/// A tail percentile resting on fewer samples is not a measurement.
std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     int min_beyond = 10);

}  // namespace tpcbench

#endif  // TPCBENCH_SAMPLE_STATS_H_
