#pragma once
// Black-box and enhanced white-box attacks.
//
// The paper's threat-model discussion cites query-based black-box attacks
// (Andriushchenko et al., "Square Attack" [1]) alongside white-box PGD.
// This module provides a square-attack-style random-search adversary (no
// gradients, score-based), a momentum-PGD variant (MI-FGSM), and targeted
// PGD — used by the attack-strength ablation and available to users for
// robustness audits of drawn tickets. Every attack here handles the model
// like pgd_attack: eval mode and frozen parameters inside; mode and
// `trainable` flags restored and parameter gradients cleared on the way out,
// also when forward throws.

#include <vector>

#include "attack/attack.hpp"
#include "common/rng.hpp"
#include "nn/module.hpp"

namespace rt {

struct SquareAttackConfig {
  float epsilon = 0.08f;
  int queries = 200;         ///< forward passes per batch
  float initial_fraction = 0.3f;  ///< initial square side as fraction of image
};

/// Score-based random-search attack: proposes eps-magnitude square patches
/// and keeps them when the margin loss increases. Only uses forward passes
/// (no gradients), so it also works on models with masked/quantized
/// internals. Returns adversarial examples within the L-inf ball.
Tensor square_attack(Module& model, const Tensor& x, const std::vector<int>& y,
                     const SquareAttackConfig& config, Rng& rng);

struct MomentumPgdConfig {
  float epsilon = 0.08f;
  float step_size = 0.02f;
  int steps = 10;
  float decay = 1.0f;  ///< momentum accumulation factor (mu in MI-FGSM)
};

/// Momentum-accumulated PGD (MI-FGSM): stabilizes the update direction and
/// typically transfers better across models than vanilla PGD.
Tensor momentum_pgd_attack(Module& model, const Tensor& x,
                           const std::vector<int>& y,
                           const MomentumPgdConfig& config, Rng& rng);

/// Targeted PGD: minimizes the loss towards `targets` instead of maximizing
/// it away from the labels. Useful for worst-case class-confusion audits.
Tensor targeted_pgd_attack(Module& model, const Tensor& x,
                           const std::vector<int>& targets,
                           const AttackConfig& config, Rng& rng);

}  // namespace rt
