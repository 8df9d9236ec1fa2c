#include "analysis/features.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/scheduler.hpp"
#include "linalg/stats.hpp"
#include "linalg/sym_eig.hpp"

namespace rt {

double fisher_separation(const Tensor& features,
                         const std::vector<int>& labels) {
  if (features.ndim() != 2 ||
      static_cast<std::int64_t>(labels.size()) != features.dim(0)) {
    throw std::invalid_argument("fisher_separation: (n, d) + n labels");
  }
  const std::int64_t n = features.dim(0), d = features.dim(1);

  // Per-class means and counts.
  std::map<int, std::vector<double>> sums;
  std::map<int, std::int64_t> counts;
  for (std::int64_t i = 0; i < n; ++i) {
    auto& s = sums[labels[static_cast<std::size_t>(i)]];
    s.resize(static_cast<std::size_t>(d), 0.0);
    for (std::int64_t j = 0; j < d; ++j) s[static_cast<std::size_t>(j)] += features.at(i, j);
    ++counts[labels[static_cast<std::size_t>(i)]];
  }
  if (sums.size() < 2) {
    throw std::invalid_argument("fisher_separation: need >= 2 classes");
  }
  std::vector<double> global(static_cast<std::size_t>(d), 0.0);
  for (const auto& [cls, s] : sums) {
    for (std::int64_t j = 0; j < d; ++j) global[static_cast<std::size_t>(j)] += s[static_cast<std::size_t>(j)];
  }
  for (auto& g : global) g /= static_cast<double>(n);

  // trace(S_B) = sum_c n_c ||mu_c - mu||^2 ; trace(S_W) = sum_i ||x_i - mu_{y_i}||^2.
  double between = 0.0;
  for (const auto& [cls, s] : sums) {
    const double nc = static_cast<double>(counts[cls]);
    for (std::int64_t j = 0; j < d; ++j) {
      const double diff = s[static_cast<std::size_t>(j)] / nc - global[static_cast<std::size_t>(j)];
      between += nc * diff * diff;
    }
  }
  double within = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto& s = sums[labels[static_cast<std::size_t>(i)]];
    const double nc =
        static_cast<double>(counts[labels[static_cast<std::size_t>(i)]]);
    for (std::int64_t j = 0; j < d; ++j) {
      const double diff = features.at(i, j) - s[static_cast<std::size_t>(j)] / nc;
      within += diff * diff;
    }
  }
  return between / std::max(within, 1e-12);
}

double effective_rank(const Tensor& features) {
  if (features.ndim() != 2 || features.dim(0) < 2) {
    throw std::invalid_argument("effective_rank: (n >= 2, d) features");
  }
  const FeatureStats stats = feature_stats(features);
  const SymEig eig = sym_eig(stats.covariance);
  double total = 0.0;
  for (std::int64_t i = 0; i < eig.eigenvalues.numel(); ++i) {
    total += std::max(0.0, static_cast<double>(eig.eigenvalues[i]));
  }
  if (total <= 0.0) return 1.0;  // constant features: a single direction
  double entropy = 0.0;
  for (std::int64_t i = 0; i < eig.eigenvalues.numel(); ++i) {
    const double p =
        std::max(0.0, static_cast<double>(eig.eigenvalues[i])) / total;
    if (p > 1e-15) entropy -= p * std::log(p);
  }
  return std::exp(entropy);
}

float knn_probe_accuracy(const Tensor& train_features,
                         const std::vector<int>& train_labels,
                         const Tensor& test_features,
                         const std::vector<int>& test_labels, int k) {
  if (train_features.ndim() != 2 || test_features.ndim() != 2 ||
      train_features.dim(1) != test_features.dim(1)) {
    throw std::invalid_argument("knn: matching (n, d) feature matrices");
  }
  if (k < 1) throw std::invalid_argument("knn: k >= 1");
  const std::int64_t n_train = train_features.dim(0);
  const std::int64_t n_test = test_features.dim(0);
  const std::int64_t d = train_features.dim(1);
  const std::int64_t kk = std::min<std::int64_t>(k, n_train);

  // Test points are independent; each chunk gets its own distance scratch.
  std::atomic<std::int64_t> correct{0};
  Scheduler& sched = Scheduler::current();
  sched.parallel_for(n_test, [&](std::int64_t begin, std::int64_t end) {
    std::vector<std::pair<float, int>> dist(static_cast<std::size_t>(n_train));
    std::int64_t local_correct = 0;
    for (std::int64_t t = begin; t < end; ++t) {
      for (std::int64_t i = 0; i < n_train; ++i) {
        float acc = 0.0f;
        for (std::int64_t j = 0; j < d; ++j) {
          const float diff = test_features.at(t, j) - train_features.at(i, j);
          acc += diff * diff;
        }
        dist[static_cast<std::size_t>(i)] = {
            acc, train_labels[static_cast<std::size_t>(i)]};
      }
      std::partial_sort(dist.begin(), dist.begin() + kk, dist.end());
      // Majority vote; ties resolve toward the class of the nearest member.
      std::map<int, int> votes;
      for (std::int64_t i = 0; i < kk; ++i) {
        ++votes[dist[static_cast<std::size_t>(i)].second];
      }
      int best_class = dist[0].second;
      int best_votes = 0;
      for (std::int64_t i = 0; i < kk; ++i) {  // iterate in distance order
        const int cls = dist[static_cast<std::size_t>(i)].second;
        if (votes[cls] > best_votes) {
          best_votes = votes[cls];
          best_class = cls;
        }
      }
      if (best_class == test_labels[static_cast<std::size_t>(t)]) {
        ++local_correct;
      }
    }
    correct += local_correct;
  });
  return static_cast<float>(correct.load()) / static_cast<float>(n_test);
}

}  // namespace rt
