#include "attack/blackbox.hpp"

#include <algorithm>
#include <cmath>

#include "attack/eval_mode_guard.hpp"
#include "nn/loss.hpp"

namespace rt {

namespace {

/// Per-sample margin loss: logit of true class minus best other logit.
/// Lower is worse for the classifier (negative = misclassified).
std::vector<float> margins(Module& model, const Tensor& x,
                           const std::vector<int>& y) {
  const Tensor logits = model.forward(x);
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const int yi = y[static_cast<std::size_t>(i)];
    float best_other = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < c; ++j) {
      if (j != yi) best_other = std::max(best_other, logits.at(i, j));
    }
    out[static_cast<std::size_t>(i)] = logits.at(i, yi) - best_other;
  }
  return out;
}

}  // namespace

Tensor square_attack(Module& model, const Tensor& x, const std::vector<int>& y,
                     const SquareAttackConfig& config, Rng& rng) {
  const EvalModeGuard guard(model);
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);

  // Vertical-stripe initialization (as in the original attack).
  Tensor adv = x;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t col = 0; col < w; ++col) {
        const float delta =
            rng.bernoulli(0.5f) ? config.epsilon : -config.epsilon;
        for (std::int64_t row = 0; row < h; ++row) {
          adv.at(i, ch, row, col) += delta;
        }
      }
    }
  }
  adv.clamp_(0.0f, 1.0f);
  std::vector<float> best = margins(model, adv, y);

  for (int q = 0; q < config.queries; ++q) {
    // Square side shrinks over the query budget.
    const float progress =
        static_cast<float>(q) / std::max(1, config.queries - 1);
    const auto side = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::round(
               config.initial_fraction * (1.0f - progress) *
               static_cast<float>(std::min(h, w)))));
    Tensor proposal = adv;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t top =
          rng.next_below(static_cast<std::uint32_t>(h - side + 1));
      const std::int64_t left =
          rng.next_below(static_cast<std::uint32_t>(w - side + 1));
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float delta =
            rng.bernoulli(0.5f) ? config.epsilon : -config.epsilon;
        for (std::int64_t dy = 0; dy < side; ++dy) {
          for (std::int64_t dx = 0; dx < side; ++dx) {
            // Re-anchor to the clean pixel so the ball constraint holds.
            proposal.at(i, ch, top + dy, left + dx) =
                x.at(i, ch, top + dy, left + dx) + delta;
          }
        }
      }
    }
    proposal.clamp_(0.0f, 1.0f);
    const std::vector<float> cand = margins(model, proposal, y);
    // Keep per-sample improvements (margin decreased).
    for (std::int64_t i = 0; i < n; ++i) {
      if (cand[static_cast<std::size_t>(i)] <
          best[static_cast<std::size_t>(i)]) {
        best[static_cast<std::size_t>(i)] = cand[static_cast<std::size_t>(i)];
        for (std::int64_t ch = 0; ch < c; ++ch) {
          for (std::int64_t row = 0; row < h; ++row) {
            for (std::int64_t col = 0; col < w; ++col) {
              adv.at(i, ch, row, col) = proposal.at(i, ch, row, col);
            }
          }
        }
      }
    }
  }
  return adv;
}

Tensor momentum_pgd_attack(Module& model, const Tensor& x,
                           const std::vector<int>& y,
                           const MomentumPgdConfig& config, Rng& rng) {
  (void)rng;
  const EvalModeGuard guard(model);
  Tensor adv = x;
  Tensor momentum(x.shape());
  for (int step = 0; step < config.steps; ++step) {
    const Tensor logits = model.forward(adv);
    const LossResult loss = softmax_cross_entropy(logits, y);
    Tensor g = model.backward(loss.grad_logits);
    // Normalize by the L1 norm per sample (MI-FGSM) and accumulate.
    const std::int64_t per = g.numel() / g.dim(0);
    for (std::int64_t i = 0; i < g.dim(0); ++i) {
      double l1 = 0.0;
      for (std::int64_t j = 0; j < per; ++j) {
        l1 += std::fabs(g[i * per + j]);
      }
      const float inv = l1 > 0.0 ? static_cast<float>(per / l1) : 0.0f;
      for (std::int64_t j = 0; j < per; ++j) {
        momentum[i * per + j] =
            config.decay * momentum[i * per + j] + g[i * per + j] * inv;
      }
    }
    Tensor dir = momentum;
    dir.sign_();
    adv.axpy_(config.step_size, dir);
    for (std::int64_t i = 0; i < adv.numel(); ++i) {
      const float lo = x[i] - config.epsilon;
      const float hi = x[i] + config.epsilon;
      adv[i] = std::clamp(adv[i], lo, hi);
    }
    adv.clamp_(0.0f, 1.0f);
  }
  return adv;
}

Tensor targeted_pgd_attack(Module& model, const Tensor& x,
                           const std::vector<int>& targets,
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
    const Tensor logits = model.forward(adv);
    const LossResult loss = softmax_cross_entropy(logits, targets);
    Tensor g = model.backward(loss.grad_logits);
    g.sign_();
    adv.axpy_(-config.step_size, g);  // descend towards the target class
    for (std::int64_t i = 0; i < adv.numel(); ++i) {
      const float lo = x[i] - config.epsilon;
      const float hi = x[i] + config.epsilon;
      adv[i] = std::clamp(adv[i], lo, hi);
    }
    adv.clamp_(0.0f, 1.0f);
  }
  return adv;
}

}  // namespace rt
