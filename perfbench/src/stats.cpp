#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// p scaled to tenths of a percent, so rank arithmetic stays integral.
std::size_t permille(double p) {
  return static_cast<std::size_t>(std::llround(std::clamp(p, 0.0, 100.0) * 10));
}

std::size_t nearest_rank(std::size_t n, double p) {
  const std::size_t rank = (permille(p) * n + 999) / 1000;  // ceil(p*n/100)
  return std::max<std::size_t>(rank, 1);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t idx = nearest_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - std::min(n, nearest_rank(n, p));
}

double tail_percentile(std::size_t n, const std::vector<double>& ladder,
                       std::size_t min_beyond) {
  double best = -1.0;
  for (const double p : ladder) {
    if (samples_beyond(n, p) >= min_beyond) best = std::max(best, p);
  }
  return best;
}

double Spread::iqr_frac() const {
  return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
}

Spread spread(std::vector<double> v) {
  Spread s;
  s.n = v.size();
  s.median = median(v);
  s.q1 = s.q3 = s.median;
  if (v.size() < 2) return s;
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i at
  // position i*m/4 (clamped to 1..n-1), interpolated between neighbours.
  const auto n = static_cast<long long>(v.size());
  auto cut = [&](long long i) {
    const long long j = std::clamp(i * (n + 1) / 4, 1LL, n - 1);
    const long long delta = i * (n + 1) - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double layer_sum_gap_frac(const std::vector<double>& self_times, double wall) {
  if (wall <= 0.0) return 0.0;
  double sum = 0.0;
  for (const double t : self_times) sum += t;
  return std::fabs(sum - wall) / wall;
}

}  // namespace perfbench
