#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

#include "common/scheduler.hpp"

namespace rt {

// All four layers operate on disjoint (sample, channel) maps, so each
// parallel_for below partitions the flattened n*c map index; no two chunks
// touch the same output (or, for MaxPool2d::backward, the same input window).

Tensor MaxPool2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(2) % kernel_ != 0 || x.dim(3) % kernel_ != 0) {
    throw std::invalid_argument("MaxPool2d: bad input " + x.shape_str());
  }
  in_shape_ = x.shape();
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h / kernel_, ow = w / kernel_;
  Tensor y({n, c, oh, ow});
  argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  Scheduler& sched = Scheduler::current();
  sched.parallel_for(n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      const float* xp = x.data() + p * h * w;
      std::int64_t out_idx = p * oh * ow;
      for (std::int64_t oi = 0; oi < oh; ++oi) {
        for (std::int64_t oj = 0; oj < ow; ++oj, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (std::int64_t ki = 0; ki < kernel_; ++ki) {
            for (std::int64_t kj = 0; kj < kernel_; ++kj) {
              const std::int64_t idx =
                  (oi * kernel_ + ki) * w + (oj * kernel_ + kj);
              if (xp[idx] > best) {
                best = xp[idx];
                best_idx = idx;
              }
            }
          }
          y[out_idx] = best;
          argmax_[static_cast<std::size_t>(out_idx)] = p * h * w + best_idx;
        }
      }
    }
  });
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (in_shape_.empty()) throw std::logic_error("MaxPool2d::backward order");
  Tensor dx(in_shape_);
  const std::int64_t n = in_shape_[0], c = in_shape_[1];
  const std::int64_t map_out = grad_out.numel() / (n * c);
  // Pooling windows are disjoint (stride == kernel), so scatter writes from
  // one map never alias another map's — chunking by map keeps this race-free.
  Scheduler& sched = Scheduler::current();
  sched.parallel_for(n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin * map_out; i < end * map_out; ++i) {
      dx[argmax_[static_cast<std::size_t>(i)]] += grad_out[i];
    }
  });
  return dx;
}

Tensor GlobalAvgPool::forward(const Tensor& x) {
  if (x.ndim() != 4) {
    throw std::invalid_argument("GlobalAvgPool: bad input " + x.shape_str());
  }
  in_shape_ = x.shape();
  const std::int64_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  const float inv = 1.0f / static_cast<float>(hw);
  Scheduler& sched = Scheduler::current();
  sched.parallel_for(n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      const float* xp = x.data() + p * hw;
      float acc = 0.0f;
      for (std::int64_t j = 0; j < hw; ++j) acc += xp[j];
      y[p] = acc * inv;
    }
  });
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  if (in_shape_.empty()) throw std::logic_error("GlobalAvgPool::backward order");
  Tensor dx(in_shape_);
  const std::int64_t n = in_shape_[0], c = in_shape_[1],
                     hw = in_shape_[2] * in_shape_[3];
  const float inv = 1.0f / static_cast<float>(hw);
  Scheduler& sched = Scheduler::current();
  sched.parallel_for(n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      const float g = grad_out[p] * inv;
      float* dp = dx.data() + p * hw;
      for (std::int64_t j = 0; j < hw; ++j) dp[j] = g;
    }
  });
  return dx;
}

Tensor NearestUpsample::forward(const Tensor& x) {
  if (x.ndim() != 4) {
    throw std::invalid_argument("NearestUpsample: bad input " + x.shape_str());
  }
  in_shape_ = x.shape();
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h * factor_, ow = w * factor_;
  Tensor y({n, c, oh, ow});
  Scheduler& sched = Scheduler::current();
  sched.parallel_for(n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      const float* xp = x.data() + p * h * w;
      float* yp = y.data() + p * oh * ow;
      for (std::int64_t oi = 0; oi < oh; ++oi) {
        const float* xrow = xp + (oi / factor_) * w;
        for (std::int64_t oj = 0; oj < ow; ++oj) {
          yp[oi * ow + oj] = xrow[oj / factor_];
        }
      }
    }
  });
  return y;
}

Tensor NearestUpsample::backward(const Tensor& grad_out) {
  if (in_shape_.empty()) {
    throw std::logic_error("NearestUpsample::backward order");
  }
  Tensor dx(in_shape_);
  const std::int64_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
                     w = in_shape_[3];
  const std::int64_t oh = h * factor_, ow = w * factor_;
  Scheduler& sched = Scheduler::current();
  sched.parallel_for(n * c, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      const float* gp = grad_out.data() + p * oh * ow;
      float* dp = dx.data() + p * h * w;
      for (std::int64_t oi = 0; oi < oh; ++oi) {
        float* drow = dp + (oi / factor_) * w;
        for (std::int64_t oj = 0; oj < ow; ++oj) {
          drow[oj / factor_] += gp[oi * ow + oj];
        }
      }
    }
  });
  return dx;
}

}  // namespace rt
