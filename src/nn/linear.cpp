#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/gemm.hpp"

namespace rt {

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               bool with_bias, Rng& rng, std::string name)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(with_bias) {
  weight_.name = name + ".weight";
  weight_.kind = ParamKind::kLinearWeight;
  weight_.grad = Tensor({out_features, in_features});
  if (has_bias_) {
    bias_.name = name + ".bias";
    bias_.kind = ParamKind::kBias;
    bias_.value = Tensor({out_features});
    bias_.grad = Tensor({out_features});
  }
  reset(rng);
}

void Linear::reset(Rng& rng) {
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_features_));
  weight_.value = Tensor::randn({out_features_, in_features_}, rng, stddev);
  weight_.clear_mask();
  if (has_bias_) bias_.value.fill_(0.0f);
}

Tensor Linear::forward(const Tensor& x) {
  if (x.ndim() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument("Linear: bad input shape " + x.shape_str());
  }
  cached_input_ = x;
  const std::int64_t n = x.dim(0);
  // y = x W^T; the nt kernel skips output features whose weight row is
  // entirely masked out, which is the common case for drawn tickets.
  Tensor y({n, out_features_});
  gemm_nt(n, out_features_, in_features_, x.data(), weight_.value.data(),
          y.data());
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_features_; ++j) {
        y.at(i, j) += bias_.value[j];
      }
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error("Linear::backward before forward");
  }
  // dW += gout^T x ; dx = gout W ; db += column sums of gout. Frozen
  // parameters skip their gradient.
  const std::int64_t n = grad_out.dim(0);
  if (weight_.trainable) {
    gemm_tn(out_features_, in_features_, n, grad_out.data(),
            cached_input_.data(), weight_.grad.data(), {.accumulate = true});
  }
  if (has_bias_ && bias_.trainable) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_features_; ++j) {
        bias_.grad[j] += grad_out.at(i, j);
      }
    }
  }
  Tensor dx({n, in_features_});
  gemm_nn(n, in_features_, out_features_, grad_out.data(),
          weight_.value.data(), dx.data());
  return dx;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace rt
