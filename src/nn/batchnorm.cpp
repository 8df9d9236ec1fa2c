#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/scheduler.hpp"

namespace rt {

BatchNorm2d::BatchNorm2d(std::int64_t channels, std::string name, float eps,
                         float momentum)
    : channels_(channels), eps_(eps), momentum_(momentum) {
  gamma_.name = name + ".gamma";
  gamma_.kind = ParamKind::kBnGamma;
  gamma_.value = Tensor::ones({channels});
  gamma_.grad = Tensor({channels});
  beta_.name = name + ".beta";
  beta_.kind = ParamKind::kBnBeta;
  beta_.value = Tensor({channels});
  beta_.grad = Tensor({channels});
  running_mean_ = Tensor({channels});
  running_var_ = Tensor::ones({channels});
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: bad input " + x.shape_str());
  }
  const std::int64_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const std::int64_t m = n * h * w;  // reduction size per channel
  const std::int64_t hw = h * w;

  std::vector<float> mean(static_cast<std::size_t>(c), 0.0f);
  std::vector<float> var(static_cast<std::size_t>(c), 0.0f);
  forward_used_batch_stats_ = training_;
  Scheduler& sched = Scheduler::current();
  if (training_) {
    // Each channel's statistics are independent; chunk the channel range
    // across the pool.
    sched.parallel_for(c, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t ch = begin; ch < end; ++ch) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          const float* xp = x.data() + (i * c + ch) * hw;
          for (std::int64_t j = 0; j < hw; ++j) acc += xp[j];
        }
        const float mu = static_cast<float>(acc / static_cast<double>(m));
        mean[static_cast<std::size_t>(ch)] = mu;
        double vacc = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          const float* xp = x.data() + (i * c + ch) * hw;
          for (std::int64_t j = 0; j < hw; ++j) {
            const double d = xp[j] - mu;
            vacc += d * d;
          }
        }
        var[static_cast<std::size_t>(ch)] =
            static_cast<float>(vacc / static_cast<double>(m));
      }
    });
    for (std::int64_t ch = 0; ch < c; ++ch) {
      running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                          momentum_ * mean[static_cast<std::size_t>(ch)];
      running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                         momentum_ * var[static_cast<std::size_t>(ch)];
    }
  } else {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      mean[static_cast<std::size_t>(ch)] = running_mean_[ch];
      var[static_cast<std::size_t>(ch)] = running_var_[ch];
    }
  }

  cached_inv_std_ = Tensor({c});
  for (std::int64_t ch = 0; ch < c; ++ch) {
    cached_inv_std_[ch] =
        1.0f / std::sqrt(var[static_cast<std::size_t>(ch)] + eps_);
  }

  cached_xhat_ = Tensor({n, c, h, w});
  Tensor y({n, c, h, w});
  sched.parallel_for(n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      const std::int64_t ch = p % c;
      const float mu = mean[static_cast<std::size_t>(ch)];
      const float is = cached_inv_std_[ch];
      const float g = gamma_.value[ch];
      const float b = beta_.value[ch];
      const float* xp = x.data() + p * hw;
      float* hp = cached_xhat_.data() + p * hw;
      float* yp = y.data() + p * hw;
      for (std::int64_t j = 0; j < hw; ++j) {
        const float xh = (xp[j] - mu) * is;
        hp[j] = xh;
        yp[j] = g * xh + b;
      }
    }
  });
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (cached_xhat_.empty()) {
    throw std::logic_error("BatchNorm2d::backward before forward");
  }
  const std::int64_t n = grad_out.dim(0), c = channels_, h = grad_out.dim(2),
                     w = grad_out.dim(3);
  const std::int64_t hw = h * w;
  const std::int64_t m = n * hw;
  Tensor dx({n, c, h, w});

  // The per-channel sums feed the gamma/beta gradients and the batch-stats
  // dx; with frozen statistics and frozen parameters nothing reads them.
  const bool want_sums =
      forward_used_batch_stats_ || gamma_.trainable || beta_.trainable;
  // Channels are independent: each iteration only touches its own slice of
  // dx and its own gamma/beta grad entry.
  Scheduler& sched = Scheduler::current();
  sched.parallel_for(c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t ch = begin; ch < end; ++ch) {
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      if (want_sums) {
        for (std::int64_t i = 0; i < n; ++i) {
          const float* gp = grad_out.data() + (i * c + ch) * hw;
          const float* hp = cached_xhat_.data() + (i * c + ch) * hw;
          for (std::int64_t j = 0; j < hw; ++j) {
            sum_dy += gp[j];
            sum_dy_xhat += static_cast<double>(gp[j]) * hp[j];
          }
        }
      }
      if (gamma_.trainable) gamma_.grad[ch] += static_cast<float>(sum_dy_xhat);
      if (beta_.trainable) beta_.grad[ch] += static_cast<float>(sum_dy);

      const float g = gamma_.value[ch];
      const float is = cached_inv_std_[ch];
      if (forward_used_batch_stats_) {
        const float k1 = static_cast<float>(sum_dy / static_cast<double>(m));
        const float k2 =
            static_cast<float>(sum_dy_xhat / static_cast<double>(m));
        for (std::int64_t i = 0; i < n; ++i) {
          const float* gp = grad_out.data() + (i * c + ch) * hw;
          const float* hp = cached_xhat_.data() + (i * c + ch) * hw;
          float* dp = dx.data() + (i * c + ch) * hw;
          for (std::int64_t j = 0; j < hw; ++j) {
            dp[j] = g * is * (gp[j] - k1 - hp[j] * k2);
          }
        }
      } else {
        // Frozen statistics: y = g * (x - mu) * is + b is affine in x.
        for (std::int64_t i = 0; i < n; ++i) {
          const float* gp = grad_out.data() + (i * c + ch) * hw;
          float* dp = dx.data() + (i * c + ch) * hw;
          for (std::int64_t j = 0; j < hw; ++j) dp[j] = g * is * gp[j];
        }
      }
    }
  });
  return dx;
}

void BatchNorm2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::collect_buffers(std::vector<NamedTensor>& out) {
  // Buffer names derive from the gamma parameter name (ends in ".gamma").
  const std::string base = gamma_.name.substr(0, gamma_.name.size() - 6);
  out.emplace_back(base + ".running_mean", &running_mean_);
  out.emplace_back(base + ".running_var", &running_var_);
}

}  // namespace rt
