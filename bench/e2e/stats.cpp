#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2e {

void Samples::merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::sort_once() {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::quantile(double p) {
  if (values_.empty()) return 0.0;
  sort_once();
  const auto n = static_cast<double>(values_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

std::size_t Samples::beyond(double p) {
  if (values_.empty()) return 0;
  const double q = quantile(p);
  const auto first_above = std::upper_bound(values_.begin(), values_.end(), q);
  return static_cast<std::size_t>(values_.end() - first_above);
}

void Timeline::merge(const Timeline& other) {
  points_.insert(points_.end(), other.points_.begin(), other.points_.end());
}

std::vector<Timeline::Point> Timeline::points(std::int64_t start_ns,
                                              std::int64_t end_ns) const {
  std::vector<Point> out;
  for (const Point& p : points_) {
    if (p.t_ns >= start_ns && p.t_ns < end_ns) out.push_back(p);
  }
  std::stable_sort(out.begin(), out.end(), [](const Point& a, const Point& b) {
    return a.t_ns < b.t_ns;
  });
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1; for i in 1..3,
  // j = i*m // 4 clamped to [1, n-1], delta = i*m - 4j, and the cut is
  // (x[j-1] * (4 - delta) + x[j] * delta) / 4.
  const std::size_t m = n + 1;
  double cut[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const auto delta = static_cast<double>(static_cast<std::ptrdiff_t>(i * m) -
                                           static_cast<std::ptrdiff_t>(4 * j));
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double relative_iqr(const Quartiles& q) {
  if (q.median == 0.0) return 0.0;
  return (q.q3 - q.q1) / std::fabs(q.median);
}

}  // namespace e2e
