// Unit test of perfbench/stats.h against hand-computed vectors.
// Exits 0 when every check holds; prints each failure and exits 1
// otherwise.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

template <typename F>
void expect_throws(F&& f, const char* what) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return;
  }
  std::printf("FAIL %s: no std::invalid_argument\n", what);
  ++failures;
}

}  // namespace

int main() {
  using perfbench::mean;
  using perfbench::median;
  using perfbench::quantile;
  using perfbench::quantile_sorted;

  // Position (n - 1) * q, linear between neighbours.
  const std::vector<double> four{1, 2, 3, 4};
  expect_near(quantile_sorted(four, 0.0), 1.0, "{1..4} p0");
  expect_near(quantile_sorted(four, 0.25), 1.75, "{1..4} p25");
  expect_near(quantile_sorted(four, 0.5), 2.5, "{1..4} p50");
  expect_near(quantile_sorted(four, 0.75), 3.25, "{1..4} p75");
  expect_near(quantile_sorted(four, 0.99), 3.97, "{1..4} p99");
  expect_near(quantile_sorted(four, 1.0), 4.0, "{1..4} p100");

  const std::vector<int> one{7};
  expect_near(quantile_sorted(one, 0.0), 7.0, "{7} p0");
  expect_near(quantile_sorted(one, 0.5), 7.0, "{7} p50");
  expect_near(quantile_sorted(one, 0.99), 7.0, "{7} p99");

  const std::vector<int> five{10, 20, 30, 40, 50};
  expect_near(quantile_sorted(five, 0.25), 20.0, "{10..50} p25");
  expect_near(quantile_sorted(five, 0.5), 30.0, "{10..50} p50");
  expect_near(quantile_sorted(five, 0.9), 46.0, "{10..50} p90");
  expect_near(quantile_sorted(five, 0.99), 49.6, "{10..50} p99");

  std::vector<std::int64_t> hundred;
  for (std::int64_t i = 1; i <= 100; ++i) hundred.push_back(101 - i);
  expect_near(quantile(hundred, 0.25), 25.75, "1..100 p25");
  expect_near(quantile(hundred, 0.5), 50.5, "1..100 p50");
  expect_near(quantile(hundred, 0.99), 99.01, "1..100 p99");

  // Unsorted input: quantile() and median() sort a copy.
  expect_near(median(std::vector<int>{5, 1, 4, 2, 3}), 3.0, "odd median");
  expect_near(median(std::vector<int>{4, 1, 3, 2}), 2.5, "even median");
  expect_near(mean(std::vector<int>{1, 2, 3, 4}), 2.5, "mean");

  // Operations of 2-6 us share one or two 1-2-5 histogram buckets; raw
  // samples keep each percentile distinct.
  std::vector<std::int64_t> ns{5800, 2100, 3400, 2300, 2900};
  const perfbench::Summary s = perfbench::summarize(ns);
  expect_near(static_cast<double>(s.count), 5.0, "summary count");
  expect_near(s.p25, 2300.0, "summary p25");
  expect_near(s.p50, 2900.0, "summary p50");
  expect_near(s.p75, 3400.0, "summary p75");
  expect_near(s.p99, 5704.0, "summary p99");
  expect_near(s.max, 5800.0, "summary max");
  expect_near(static_cast<double>(ns.front()), 2100.0, "summary sorts");

  expect_throws([] { (void)quantile(std::vector<double>{}, 0.5); },
                "empty quantile");
  expect_throws([] { (void)mean(std::vector<double>{}); }, "empty mean");
  expect_throws([&] { (void)quantile_sorted(four, -0.1); }, "q < 0");
  expect_throws([&] { (void)quantile_sorted(four, 1.5); }, "q > 1");
  expect_throws(
      [&] {
        (void)quantile_sorted(four, std::numeric_limits<double>::quiet_NaN());
      },
      "q NaN");

  if (failures == 0) std::printf("stats: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
