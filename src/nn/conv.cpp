#include "nn/conv.hpp"

#include <algorithm>
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

/// This thread's staging for the packed kernels: one bounded buffer per
/// thread, grown to the widest layer it ran.
ConvScratch& thread_scratch() {
  thread_local ConvScratch scratch;
  return scratch;
}

/// Runs a conv kernel over a batch on the current scheduler. The tap table
/// splits samples: on_taps(begin, end) gets a sample range. The packed GEMM
/// splits whole slivers of its column space (`slivers` of them): on_panels
/// gets opts carrying the sliver range, `packed` and the executing thread's
/// staging. Every output's arithmetic is independent of the split, so the
/// bits do not depend on the lane count.
template <typename Taps, typename Panels>
void split_batch(bool taps, std::int64_t n, std::int64_t slivers,
                 const PackedWeights& packed, const Taps& on_taps,
                 const Panels& on_panels) {
  Scheduler::current().parallel_for(
      taps ? n : slivers, [&](std::int64_t begin, std::int64_t end) {
        if (taps) {
          on_taps(begin, end);
          return;
        }
        ConvKernelOpts leaf;
        leaf.packed_weights = &packed;
        leaf.sliver_begin = begin;
        leaf.sliver_end = end;
        leaf.scratch = &thread_scratch();
        on_panels(leaf);
      });
}

}  // namespace

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

  // The weight is shared across the batch: choose the executor once, and
  // resolve the tap table or pack the weight panels once for the batch.
  const bool taps = prepare(h, w, /*dgrad=*/false);
  split_batch(
      taps, n, conv_forward_slivers(n, h, w, geom_), packed_weights_,
      [&](std::int64_t i0, std::int64_t i1) {
        conv2d_forward_taps(taps_, tap_values_.data(), xd + i0 * in_plane,
                            i1 - i0, yd + i0 * out_plane, 0, bd,
                            /*relu=*/false);
      },
      [&](const ConvKernelOpts& opts) {
        conv2d_forward(xd, n, in_channels_, h, w, geom_, wd, out_channels_, yd,
                       bd, /*relu=*/false, opts);
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

  // The same per-call choice as forward (wgrad runs packed either way).
  // dx = W^T * gout for the whole batch, whatever the parameter's
  // trainability.
  const bool taps = prepare(h, w, /*dgrad=*/true);
  split_batch(
      taps, n, conv_dgrad_slivers(n, h, w, geom_), packed_weights_,
      [&](std::int64_t i0, std::int64_t i1) {
        conv2d_dgrad_taps(taps_, tap_values_.data(),
                          gd + i0 * out_channels_ * ohw, i1 - i0,
                          dx.data() + i0 * in_plane);
      },
      [&](const ConvKernelOpts& opts) {
        conv2d_dgrad(wd, out_channels_, gd, n, in_channels_, h, w, geom_,
                     dx.data(), opts);
      });
  const bool want_dw = weight_.trainable;
  const bool want_db = has_bias_ && bias_.trainable;
  if (!want_dw && !want_db) return dx;
  Scheduler& sched = Scheduler::current();

  // Weight-gradient accumulation: each slot owns a contiguous sample range
  // and a private partial, then the partials are combined with an
  // atomic-free pairwise tree — no mutex serializes the workers. The slot
  // count is fixed by the batch size (not by the scheduler width or by
  // which worker ran what), so the tree's summation order — and the
  // resulting bits — are the same on every host and under any stealing.
  const std::int64_t slots =
      (n + kWgradSamplesPerSlot - 1) / kWgradSamplesPerSlot;
  std::vector<std::vector<float>> dw_part(static_cast<std::size_t>(slots));
  std::vector<std::vector<float>> db_part(
      want_db ? static_cast<std::size_t>(slots) : 0u);
  // Each slot's dW is one batched wgrad call. With fewer slots than lanes a
  // slot also splits its output tiles across lanes; a tile's arithmetic
  // does not depend on the split.
  const std::int64_t tiles =
      conv_wgrad_tiles(in_channels_, out_channels_, geom_);
  const std::int64_t parts = std::min<std::int64_t>(
      tiles, (sched.num_threads() + slots - 1) / slots);

  sched.parallel_for(slots, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t s = s0; s < s1; ++s) {
      const std::int64_t begin = s * n / slots;
      const std::int64_t end = (s + 1) * n / slots;
      if (want_dw) {
        std::vector<float>& dw_local = dw_part[static_cast<std::size_t>(s)];
        dw_local.assign(static_cast<std::size_t>(out_channels_ * ckk), 0.0f);
        // dW += gout * col(x)^T over the slot, fused — no im2col.
        sched.parallel_for(
            parts,
            [&](std::int64_t p0, std::int64_t p1) {
              ConvKernelOpts leaf;
              leaf.sliver_begin = p0 * tiles / parts;
              leaf.sliver_end = p1 * tiles / parts;
              leaf.scratch = &thread_scratch();
              conv2d_wgrad(gd + begin * out_channels_ * ohw,
                           xd + begin * in_plane, end - begin,
                           in_channels_, h, w, geom_, out_channels_,
                           dw_local.data(), leaf);
            },
            /*grain=*/1);
      }
      if (want_db) {
        std::vector<float>& db_local = db_part[static_cast<std::size_t>(s)];
        db_local.assign(static_cast<std::size_t>(out_channels_), 0.0f);
        for (std::int64_t i = begin; i < end; ++i) {
          const float* gi = gd + i * out_channels_ * ohw;
          for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
            const float* grow = gi + oc * ohw;
            float acc = 0.0f;
            for (std::int64_t j = 0; j < ohw; ++j) acc += grow[j];
            db_local[static_cast<std::size_t>(oc)] += acc;
          }
        }
      }
    }
  });

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

bool Conv2d::prepare(std::int64_t h, std::int64_t w, bool dgrad) {
  const float* wd = weight_.value.data();
  const std::int64_t ckk = in_channels_ * geom_.kernel * geom_.kernel;
  const std::int64_t ohw = geom_.out_extent(h) * geom_.out_extent(w);
  if (conv_prefers_taps(count_nonzeros(wd, weight_.value.numel()),
                        out_channels_, ckk, ohw)) {
    taps_.resolve(wd, out_channels_, in_channels_, h, w, geom_, tap_values_);
    return true;
  }
  packed_weights_.pack(wd, out_channels_, in_channels_, geom_, !dgrad, dgrad);
  return false;
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
