#pragma once
// Randomized-smoothing prediction and certification (Cohen et al. [3]).
//
// The paper uses randomized-smoothing-style Gaussian training as the
// alternative robust pretraining scheme (Fig. 6). This module completes the
// technique: the smoothed classifier g(x) = argmax_c P(f(x + N(0, s^2)) = c)
// with Monte-Carlo prediction and a certified L2 radius derived from a
// lower confidence bound on the top-class probability. Voting handles the
// model like pgd_attack (eval mode inside, gradients cleared on exit).

#include <vector>

#include "common/rng.hpp"
#include "nn/module.hpp"

namespace rt {

struct SmoothingConfig {
  float sigma = 0.12f;   ///< noise level (should match training sigma)
  int samples = 64;      ///< Monte-Carlo votes per input
  float alpha = 0.05f;   ///< 1 - confidence of the certificate
};

/// Result of certifying one input.
struct CertifiedPrediction {
  int predicted_class = -1;  ///< -1 = abstain (no class is confidently top)
  float radius = 0.0f;       ///< certified L2 radius (0 when abstaining)
  float top_probability_lower_bound = 0.0f;
};

/// Monte-Carlo prediction of the smoothed classifier for a batch (N,3,H,W).
/// Returns the majority-vote class per sample.
std::vector<int> smoothed_predict(Module& model, const Tensor& x,
                                  const SmoothingConfig& config, Rng& rng);

/// Certifies each sample: predicted class, lower confidence bound on its
/// vote probability, and the certified radius sigma * Phi^{-1}(p_lower).
/// Abstains (class -1) when p_lower <= 0.5.
std::vector<CertifiedPrediction> smoothed_certify(Module& model,
                                                  const Tensor& x,
                                                  const SmoothingConfig& config,
                                                  Rng& rng);

/// One-sided lower confidence bound on a binomial proportion at level
/// 1 - alpha (Wilson score bound; exposed for testing).
double binomial_lower_bound(int successes, int trials, float alpha);

/// Standard normal inverse CDF (Acklam's rational approximation; exposed
/// for testing).
double normal_quantile(double p);

}  // namespace rt
