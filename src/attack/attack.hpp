#pragma once
// L-infinity adversarial attacks (FGSM, PGD) and Gaussian augmentation.
//
// PGD (Madry et al. [16]) is the workhorse: it is both the robust
// pretraining objective (inner maximization of Eq. 1) and the evaluation
// attack behind Adv-Acc in Fig. 8 / Tab. I. Randomized-smoothing-style
// Gaussian augmentation [3] is the alternative robustification of Fig. 6.

#include <vector>

#include "common/rng.hpp"
#include "nn/module.hpp"

namespace rt {

struct AttackConfig {
  float epsilon = 0.08f;    ///< L-inf perturbation budget (images in [0,1])
  float step_size = 0.02f;  ///< PGD step
  int steps = 7;            ///< PGD iterations
  bool random_start = true; ///< uniform init inside the ball
};

/// Multi-step PGD on the cross-entropy loss. The model runs in eval mode
/// (batch-norm statistics are neither polluted nor recomputed per step) with
/// every parameter frozen, so each step's backward computes only the input
/// gradient; the output is bitwise identical to running the same steps with
/// every parameter trainable. On return, also by exception, the mode and each
/// parameter's `trainable` flag are restored and all parameter gradients are
/// cleared. Output stays in [0,1].
Tensor pgd_attack(Module& model, const Tensor& x, const std::vector<int>& y,
                  const AttackConfig& config, Rng& rng);

/// Single-step FGSM: x + eps * sign(grad_x CE). Same mode handling as PGD.
Tensor fgsm_attack(Module& model, const Tensor& x, const std::vector<int>& y,
                   float epsilon);

/// Uniform random perturbation in the eps ball (sanity baseline attack).
Tensor random_noise_attack(const Tensor& x, float epsilon, Rng& rng);

/// Additive Gaussian noise, clamped to [0,1] (randomized-smoothing training).
Tensor gaussian_augment(const Tensor& x, float sigma, Rng& rng);

}  // namespace rt
