#include "attack/trades.hpp"

#include "attack/eval_mode_guard.hpp"
#include "nn/loss.hpp"

namespace rt {

Tensor trades_attack(Module& model, const Tensor& x, const AttackConfig& config,
                     Rng& rng) {
  const EvalModeGuard guard(model);
  // The clean logits are the (fixed) target distribution of the KL.
  const Tensor clean_logits = model.forward(x);

  Tensor adv = x;
  if (config.random_start) {
    // TRADES initializes with a small Gaussian start; scaled to the budget.
    for (std::int64_t i = 0; i < adv.numel(); ++i) {
      adv[i] += rng.normal(0.0f, 0.25f * config.epsilon);
    }
    adv.clamp_(0.0f, 1.0f);
  }
  for (int step = 0; step < config.steps; ++step) {
    const Tensor logits = model.forward(adv);
    const KlResult kl = kl_divergence(clean_logits, logits);
    Tensor g = model.backward(kl.grad_logits);
    g.sign_();
    adv.axpy_(config.step_size, g);
    for (std::int64_t i = 0; i < adv.numel(); ++i) {
      const float lo = x[i] - config.epsilon;
      const float hi = x[i] + config.epsilon;
      adv[i] = adv[i] < lo ? lo : (adv[i] > hi ? hi : adv[i]);
    }
    adv.clamp_(0.0f, 1.0f);
  }
  return adv;
}

TradesStepResult trades_step(Module& model, const Tensor& x,
                             const std::vector<int>& y,
                             const TradesConfig& config, Rng& rng) {
  const Tensor adv = trades_attack(model, x, config.attack, rng);

  model.set_training(true);
  // Two branches share the weights but the layer caches hold only one
  // forward at a time, so: forward clean (copy logits), forward+backward the
  // adversarial branch, then re-forward clean and backward its combined
  // gradient. Parameter gradients accumulate across the two backwards.
  const Tensor clean_logits = model.forward(x);
  const Tensor adv_logits = model.forward(adv);

  const LossResult ce = softmax_cross_entropy(clean_logits, y);
  const KlResult kl = kl_divergence(clean_logits, adv_logits);

  Tensor adv_grad = kl.grad_logits;
  adv_grad.mul_(config.beta);
  model.backward(adv_grad);  // caches currently hold the adv forward

  model.forward(x);  // refresh caches for the clean branch
  Tensor clean_grad = ce.grad_logits;
  clean_grad.axpy_(config.beta, kl.grad_target);
  model.backward(clean_grad);

  TradesStepResult out;
  out.loss = ce.loss + config.beta * kl.loss;
  out.clean_logits = clean_logits;
  return out;
}

Tensor FreePerturbation::apply(const Tensor& x) {
  if (delta_.empty() || !delta_.same_shape(x)) {
    delta_ = Tensor(x.shape());
  }
  Tensor out = x;
  out.add_(delta_);
  out.clamp_(0.0f, 1.0f);
  return out;
}

void FreePerturbation::update(const Tensor& input_grad) {
  if (delta_.empty() || !delta_.same_shape(input_grad)) return;
  Tensor step = input_grad;
  step.sign_();
  // Full-epsilon ascent step, as in the reference Free-AT implementation.
  delta_.axpy_(epsilon_, step);
  delta_.clamp_(-epsilon_, epsilon_);
}

}  // namespace rt
