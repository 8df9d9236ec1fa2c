#include "attack/smoothing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "attack/attack.hpp"
#include "attack/eval_mode_guard.hpp"
#include "nn/loss.hpp"

namespace rt {

double normal_quantile(double p) {
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("normal_quantile: p in (0,1) required");
  }
  // Acklam's approximation, |relative error| < 1.15e-9.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double binomial_lower_bound(int successes, int trials, float alpha) {
  if (trials <= 0 || successes < 0 || successes > trials) {
    throw std::invalid_argument("binomial_lower_bound: bad counts");
  }
  if (successes == 0) return 0.0;
  // One-sided Wilson score interval at level 1 - alpha.
  const double z = normal_quantile(1.0 - static_cast<double>(alpha));
  const double n = trials;
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double centre = phat + z2 / (2.0 * n);
  const double spread =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  return std::max(0.0, (centre - spread) / (1.0 + z2 / n));
}

namespace {

/// Per-sample vote histograms under Gaussian noise.
std::vector<std::vector<int>> vote(Module& model, const Tensor& x,
                                   const SmoothingConfig& config, Rng& rng) {
  const EvalModeGuard guard(model);
  const std::int64_t n = x.dim(0);
  std::vector<std::vector<int>> counts(static_cast<std::size_t>(n));
  for (int s = 0; s < config.samples; ++s) {
    const Tensor noisy = gaussian_augment(x, config.sigma, rng);
    const Tensor logits = model.forward(noisy);
    const auto pred = argmax_rows(logits);
    const auto classes = static_cast<std::size_t>(logits.dim(1));
    for (std::int64_t i = 0; i < n; ++i) {
      auto& hist = counts[static_cast<std::size_t>(i)];
      if (hist.empty()) hist.assign(classes, 0);
      ++hist[static_cast<std::size_t>(pred[static_cast<std::size_t>(i)])];
    }
  }
  return counts;
}

}  // namespace

std::vector<int> smoothed_predict(Module& model, const Tensor& x,
                                  const SmoothingConfig& config, Rng& rng) {
  const auto counts = vote(model, x, config, rng);
  std::vector<int> out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out[i] = static_cast<int>(
        std::max_element(counts[i].begin(), counts[i].end()) -
        counts[i].begin());
  }
  return out;
}

std::vector<CertifiedPrediction> smoothed_certify(Module& model,
                                                  const Tensor& x,
                                                  const SmoothingConfig& config,
                                                  Rng& rng) {
  const auto counts = vote(model, x, config, rng);
  std::vector<CertifiedPrediction> out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto top_it =
        std::max_element(counts[i].begin(), counts[i].end());
    const int top_class = static_cast<int>(top_it - counts[i].begin());
    const double p_lower =
        binomial_lower_bound(*top_it, config.samples, config.alpha);
    CertifiedPrediction& cp = out[i];
    cp.top_probability_lower_bound = static_cast<float>(p_lower);
    if (p_lower > 0.5) {
      cp.predicted_class = top_class;
      cp.radius = static_cast<float>(
          config.sigma * normal_quantile(p_lower));
    }
  }
  return out;
}

}  // namespace rt
