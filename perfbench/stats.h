// Order statistics over raw samples.
//
// Every percentile and quartile the benchmark reports comes from here,
// computed over the raw nanosecond samples.  A bucketed histogram would
// report one bucket's midpoint for every percentile of an operation that
// lands in a single bucket, which hides exactly the shifts a benchmark
// must see.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of ascending-sorted samples, interpolated
/// linearly between the two closest ranks at position (n - 1) * q (the
/// "type 7" definition that numpy and R use by default).
template <typename T>
double quantile_sorted(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile outside [0, 1]");
  }
  const double pos = static_cast<double>(sorted.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const auto a = static_cast<double>(sorted[lo]);
  const auto b = static_cast<double>(sorted[hi]);
  return a + (b - a) * frac;
}

/// The q-quantile of unsorted samples (sorts a copy).
template <typename T>
double quantile(std::vector<T> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

template <typename T>
double median(std::vector<T> values) {
  return quantile(std::move(values), 0.5);
}

template <typename T>
double mean(const std::vector<T>& values) {
  if (values.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0;
  for (const T& v : values) sum += static_cast<double>(v);
  return sum / static_cast<double>(values.size());
}

/// Quartiles, median and tail of one latency population, in the samples'
/// own unit.
struct Summary {
  std::size_t count = 0;
  double p25 = 0;
  double p50 = 0;
  double p75 = 0;
  double p99 = 0;
  double max = 0;
};

/// Summarizes samples in place (they end up sorted).
template <typename T>
Summary summarize(std::vector<T>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.p25 = quantile_sorted(samples, 0.25);
  s.p50 = quantile_sorted(samples, 0.50);
  s.p75 = quantile_sorted(samples, 0.75);
  s.p99 = quantile_sorted(samples, 0.99);
  s.max = static_cast<double>(samples.back());
  return s;
}

}  // namespace perfbench
