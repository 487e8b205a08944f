#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in [0, 100]; 0 for an empty vector.
double percentile(std::vector<double> v, double p);

double median(std::vector<double> v);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples:
/// n - ceil(p * n / 100). Exact for p given to one decimal place.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of `ladder` (ascending) that still has at
/// least `min_beyond` samples beyond it, or -1 when even the lowest has
/// too few — the reporting rule for latency tails.
double tail_percentile(std::size_t n, const std::vector<double>& ladder,
                       std::size_t min_beyond = 10);

/// Median and quartiles, the quartiles computed like Python's
/// statistics.quantiles(v, n=4) (the "exclusive" method). With fewer than
/// two samples both quartiles equal the median.
struct Spread {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median, 0 when the median is 0.
  double iqr_frac() const;
};
Spread spread(std::vector<double> v);

/// |sum(self_times) - wall| / wall: how far the per-layer self times miss
/// the end-to-end wall they should add up to. 0 when wall <= 0.
double layer_sum_gap_frac(const std::vector<double>& self_times, double wall);

}  // namespace perfbench
