#include "nn/conv.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/scheduler.hpp"

namespace rt {

namespace {

/// Samples per weight-gradient partial in Conv2d::backward. The partial
/// count — and so the float summation order — follows the batch size
/// alone, never the lane count, so training bits do not depend on the host.
/// At the default batch of 32 this is 4 partials.
constexpr std::int64_t kWgradSamplesPerSlot = 8;

}  // namespace

void im2col(const Tensor& x, std::int64_t sample, const ConvGeometry& g,
            float* col) {
  const std::int64_t c_in = x.dim(1);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  im2col_plane(x.data() + sample * c_in * h * w, c_in, h, w, g, col);
}

void col2im_add(const float* col, std::int64_t sample, const ConvGeometry& g,
                Tensor& dx) {
  const std::int64_t c_in = dx.dim(1);
  const std::int64_t h = dx.dim(2);
  const std::int64_t w = dx.dim(3);
  col2im_plane_add(col, c_in, h, w, g,
                   dx.data() + sample * c_in * h * w);
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               bool with_bias, Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      geom_{kernel, stride, padding},
      has_bias_(with_bias) {
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight_.name = name + ".weight";
  weight_.kind = ParamKind::kConvWeight;
  weight_.conv_in_channels = in_channels;
  weight_.conv_kernel = kernel;
  weight_.value = Tensor::randn({out_channels, fan_in}, rng, stddev);
  weight_.grad = Tensor({out_channels, fan_in});
  if (has_bias_) {
    bias_.name = name + ".bias";
    bias_.kind = ParamKind::kBias;
    bias_.value = Tensor({out_channels});
    bias_.grad = Tensor({out_channels});
  }
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input shape " + x.shape_str());
  }
  cached_input_ = x;
  const std::int64_t n = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = geom_.out_extent(h);
  const std::int64_t ow = geom_.out_extent(w);
  Tensor y({n, out_channels_, oh, ow});
  const float* wd = weight_.value.data();
  const float* xd = x.data();
  const float* bd = has_bias_ ? bias_.value.data() : nullptr;
  float* yd = y.data();
  const std::int64_t in_plane = in_channels_ * h * w;
  const std::int64_t out_plane = out_channels_ * oh * ow;

  // The weight is shared across the batch: count its zero fraction once so
  // every sample's kernel call dispatches without re-probing it, and when
  // the packed path will run, pack the weight panels once instead of once
  // per sample.
  ConvKernelOpts kopts;
  kopts.weight_zero_fraction =
      weight_zero_fraction(wd, weight_.value.numel());
  if (kopts.weight_zero_fraction < kConvSparseWeightFraction) {
    packed_weights_.pack(wd, out_channels_,
                         in_channels_ * geom_.kernel * geom_.kernel,
                         /*forward=*/true, /*dgrad=*/false);
    kopts.packed_weights = &packed_weights_;
  }
  // Batch-level tasks fill the machine when n >= lanes; below that, let the
  // kernels split their output tiles so the idle lanes steal intra-plane
  // work (bitwise-identical either way).
  Scheduler& sched = Scheduler::current();
  kopts.parallel_tiles = n < sched.num_threads();

  sched.parallel_for(n, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      conv2d_forward_plane(xd + i * in_plane, in_channels_, h, w, geom_, wd,
                           out_channels_, yd + i * out_plane, bd,
                           /*relu=*/false, kopts);
    }
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  if (x.empty()) throw std::logic_error("Conv2d::backward before forward");
  const std::int64_t n = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = geom_.out_extent(h);
  const std::int64_t ow = geom_.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = in_channels_ * geom_.kernel * geom_.kernel;
  const std::int64_t in_plane = in_channels_ * h * w;

  Tensor dx({n, in_channels_, h, w});
  const float* wd = weight_.value.data();
  const float* gd = grad_out.data();
  const float* xd = x.data();

  ConvKernelOpts kopts;
  kopts.weight_zero_fraction =
      weight_zero_fraction(wd, weight_.value.numel());
  if (kopts.weight_zero_fraction < kConvSparseWeightFraction) {
    // dgrad consumes W^T panels; pre-pack them once for the whole batch.
    packed_weights_.pack(wd, out_channels_, ckk, /*forward=*/false,
                         /*dgrad=*/true);
    kopts.packed_weights = &packed_weights_;
  }
  Scheduler& sched = Scheduler::current();
  kopts.parallel_tiles = n < sched.num_threads();

  // Weight-gradient accumulation: each slot owns a contiguous sample range
  // and a private partial, then the partials are combined with an
  // atomic-free pairwise tree — no mutex serializes the workers. The slot
  // count is fixed by the batch size (not by the scheduler width or by
  // which worker ran what), so the tree's summation order — and the
  // resulting bits — are the same on every host and under any stealing.
  // A frozen parameter's partials stay empty, so it gets no wgrad and no
  // fold; dgrad runs in the same slot loop either way, so dx has the same
  // bits.
  const bool want_dw = weight_.trainable;
  const bool want_db = has_bias_ && bias_.trainable;
  const std::int64_t slots =
      (n + kWgradSamplesPerSlot - 1) / kWgradSamplesPerSlot;
  std::vector<std::vector<float>> dw_part(static_cast<std::size_t>(slots));
  std::vector<std::vector<float>> db_part(
      want_db ? static_cast<std::size_t>(slots) : 0u);

  sched.parallel_for(slots, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t s = s0; s < s1; ++s) {
      std::vector<float>& dw_local = dw_part[static_cast<std::size_t>(s)];
      if (want_dw) {
        dw_local.assign(static_cast<std::size_t>(out_channels_ * ckk), 0.0f);
      }
      if (want_db) {
        db_part[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(out_channels_), 0.0f);
      }
      const std::int64_t begin = s * n / slots;
      const std::int64_t end = (s + 1) * n / slots;
      for (std::int64_t i = begin; i < end; ++i) {
        const float* gi = gd + i * out_channels_ * ohw;
        // dW += gout_i * col(x_i)^T, fused — no im2col materialization.
        if (want_dw) {
          conv2d_wgrad_plane(gi, xd + i * in_plane, in_channels_, h, w, geom_,
                             out_channels_, dw_local.data(), kopts);
        }
        // dx_i += W^T * gout_i, computed in tiles scattered while cache-hot.
        conv2d_dgrad_plane(wd, out_channels_, gi, in_channels_, h, w, geom_,
                           dx.data() + i * in_plane, kopts);
        if (want_db) {
          float* db_local = db_part[static_cast<std::size_t>(s)].data();
          for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
            const float* grow = gi + oc * ohw;
            float acc = 0.0f;
            for (std::int64_t j = 0; j < ohw; ++j) acc += grow[j];
            db_local[oc] += acc;
          }
        }
      }
    }
  });
  if (!want_dw && !want_db) return dx;

  // Pairwise tree: round r folds partial s+2^r into partial s. Each pair is
  // an independent buffer sum, so rounds parallelize without atomics.
  for (std::int64_t stride = 1; stride < slots; stride *= 2) {
    const std::int64_t pairs = (slots - stride + 2 * stride - 1) / (2 * stride);
    sched.parallel_for(pairs, [&](std::int64_t p0, std::int64_t p1) {
      for (std::int64_t p = p0; p < p1; ++p) {
        const auto dst = static_cast<std::size_t>(p * 2 * stride);
        const auto src = dst + static_cast<std::size_t>(stride);
        if (src >= dw_part.size()) continue;
        float* d = dw_part[dst].data();
        const float* sbuf = dw_part[src].data();
        for (std::size_t j = 0; j < dw_part[dst].size(); ++j) d[j] += sbuf[j];
        if (want_db) {
          float* db = db_part[dst].data();
          const float* sb = db_part[src].data();
          for (std::size_t j = 0; j < db_part[dst].size(); ++j) {
            db[j] += sb[j];
          }
        }
      }
    });
  }

  // Fold the root partial into the parameter gradients, element-parallel
  // (an empty loop for a frozen weight).
  float* dw = weight_.grad.data();
  const float* root = dw_part[0].data();
  sched.parallel_for(static_cast<std::int64_t>(dw_part[0].size()),
                     [&](std::int64_t j0, std::int64_t j1) {
                       for (std::int64_t j = j0; j < j1; ++j) {
                         dw[j] += root[j];
                       }
                     });
  if (want_db) {
    float* db = bias_.grad.data();
    for (std::size_t j = 0; j < db_part[0].size(); ++j) db[j] += db_part[0][j];
  }
  return dx;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

std::int64_t Conv2d::flops_per_sample(std::int64_t h, std::int64_t w) const {
  const std::int64_t oh = geom_.out_extent(h);
  const std::int64_t ow = geom_.out_extent(w);
  return 2 * out_channels_ * in_channels_ * geom_.kernel * geom_.kernel * oh *
         ow;
}

}  // namespace rt
