#include "attack/attack.hpp"

#include "attack/eval_mode_guard.hpp"
#include "nn/loss.hpp"

namespace rt {

namespace {

/// Computes dL/dx for cross-entropy at the current point.
Tensor input_gradient(Module& model, const Tensor& x,
                      const std::vector<int>& y) {
  const Tensor logits = model.forward(x);
  const LossResult loss = softmax_cross_entropy(logits, y);
  return model.backward(loss.grad_logits);
}

}  // namespace

Tensor pgd_attack(Module& model, const Tensor& x, const std::vector<int>& y,
                  const AttackConfig& config, Rng& rng) {
  const EvalModeGuard guard(model);
  Tensor adv = x;
  if (config.random_start) {
    for (std::int64_t i = 0; i < adv.numel(); ++i) {
      adv[i] += rng.uniform(-config.epsilon, config.epsilon);
    }
    adv.clamp_(0.0f, 1.0f);
  }
  for (int step = 0; step < config.steps; ++step) {
    Tensor g = input_gradient(model, adv, y);
    g.sign_();
    adv.axpy_(config.step_size, g);
    // Project back into the eps ball around x, then into valid pixel range.
    for (std::int64_t i = 0; i < adv.numel(); ++i) {
      const float lo = x[i] - config.epsilon;
      const float hi = x[i] + config.epsilon;
      adv[i] = adv[i] < lo ? lo : (adv[i] > hi ? hi : adv[i]);
    }
    adv.clamp_(0.0f, 1.0f);
  }
  return adv;
}

Tensor fgsm_attack(Module& model, const Tensor& x, const std::vector<int>& y,
                   float epsilon) {
  const EvalModeGuard guard(model);
  Tensor g = input_gradient(model, x, y);
  g.sign_();
  Tensor adv = x;
  adv.axpy_(epsilon, g);
  adv.clamp_(0.0f, 1.0f);
  return adv;
}

Tensor random_noise_attack(const Tensor& x, float epsilon, Rng& rng) {
  Tensor adv = x;
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    adv[i] += epsilon * (rng.bernoulli(0.5f) ? 1.0f : -1.0f);
  }
  adv.clamp_(0.0f, 1.0f);
  return adv;
}

Tensor gaussian_augment(const Tensor& x, float sigma, Rng& rng) {
  Tensor out = x;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] += rng.normal(0.0f, sigma);
  }
  out.clamp_(0.0f, 1.0f);
  return out;
}

}  // namespace rt
