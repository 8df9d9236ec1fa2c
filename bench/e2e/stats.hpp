#pragma once
// Exact client-side statistics for the end-to-end benchmark.
//
// Latency quantiles come from kept samples, never from the server's
// quarter-octave histogram: its ~19%-wide buckets snap every value to a
// bucket edge, which is wider than the regressions the benchmark has to see.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/// Gives `v` room for n elements and writes that room once, so its pages are
/// resident before a timed window rather than added during it.
template <typename T>
void reserve_resident(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

/// A growable set of measurements with exact nearest-rank quantiles.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void merge(const Samples& other);

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Nearest-rank quantile, p in (0, 1]: the smallest sample with at least
  /// ceil(p * n) samples at or below it. 0 when empty.
  double quantile(double p);
  /// Samples strictly greater than quantile(p): the evidence behind a tail
  /// percentile (a p99 needs at least 10 of them to mean anything).
  std::size_t beyond(double p);

 private:
  void sort_once();

  std::vector<double> values_;
  bool sorted_ = true;
};

/// Values tagged with the time they were measured, so each can be matched
/// with what the host was doing at that time.
class Timeline {
 public:
  struct Point {
    std::int64_t t_ns;
    double value;
  };

  /// Room for n points, written once: up to n add() calls then neither
  /// reallocate nor grow the resident set, which peak_rss_mb would count.
  void reserve(std::size_t n) { reserve_resident(points_, n); }
  void add(std::int64_t t_ns, double value) {
    points_.push_back({t_ns, value});
  }
  void merge(const Timeline& other);

  /// The points measured in [start_ns, end_ns), in time order.
  std::vector<Point> points(std::int64_t start_ns, std::int64_t end_ns) const;

 private:
  std::vector<Point> points_;
};

/// Median of a set of values (the mean of the middle two for an even count).
double median(std::vector<double> values);

/// First quartile, median and third quartile of a small set of run values,
/// computed exactly like Python's statistics.quantiles(values, n=4) (the
/// "exclusive" method), so spreads match what a Python reader computes.
/// Needs at least two values; one value yields {v, v, v}.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// (q3 - q1) / |median|, the run-to-run spread as a share of the median.
double relative_iqr(const Quartiles& q);

}  // namespace e2e
