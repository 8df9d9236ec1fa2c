#pragma once
// TRADES robust training objective (Zhang et al., ICML'19) and
// "free" adversarial training (Shafahi et al. [20]).
//
// The paper robustifies pretraining with PGD adversarial training by default
// and randomized smoothing as one alternative (Fig. 6). TRADES and Free-AT
// extend that comparison: TRADES trades off the natural-accuracy and
// boundary-error terms explicitly,
//   min_theta  CE(f(x), y) + beta * KL(f(x) || f(x')),
//   x' = argmax_{||d||_inf <= eps} KL(f(x) || f(x + d)),
// while Free-AT recycles the input gradient of each training step to update a
// persistent perturbation, getting robustness at roughly natural-training
// cost (the "amortized cost" angle the paper's Sec. III-D raises).

#include <vector>

#include "attack/attack.hpp"
#include "nn/module.hpp"

namespace rt {

struct TradesConfig {
  float beta = 4.0f;     ///< weight of the KL robustness term
  AttackConfig attack;   ///< inner-maximization budget
};

/// Inner maximization of TRADES: PGD on KL(p(x) || p(x')) wrt x'. Handles
/// the model like pgd_attack: eval mode, input-only backward, mode and flags
/// restored and parameter gradients cleared afterwards.
Tensor trades_attack(Module& model, const Tensor& x, const AttackConfig& config,
                     Rng& rng);

/// One TRADES training step on a minibatch: generates x', then accumulates
/// the parameter gradients of CE(f(x), y) + beta * KL(f(x) || f(x')) into the
/// model (train mode; caller zero_grads before and steps the optimizer
/// after). Returns the combined loss and the clean logits (for train-accuracy
/// bookkeeping).
struct TradesStepResult {
  float loss = 0.0f;
  Tensor clean_logits;
};

TradesStepResult trades_step(Module& model, const Tensor& x,
                             const std::vector<int>& y,
                             const TradesConfig& config, Rng& rng);

/// Persistent-perturbation state for Free-AT; one instance per training run.
class FreePerturbation {
 public:
  explicit FreePerturbation(float epsilon) : epsilon_(epsilon) {}

  /// Returns x + delta (clamped to [0,1]), resizing delta (to zeros) when the
  /// batch shape changes.
  Tensor apply(const Tensor& x);

  /// Ascends delta with the sign of the input gradient from the last
  /// backward pass and re-projects onto the eps ball.
  void update(const Tensor& input_grad);

  float epsilon() const { return epsilon_; }
  const Tensor& delta() const { return delta_; }

 private:
  float epsilon_;
  Tensor delta_;
};

}  // namespace rt
