// Conformance tests for the implicit-GEMM convolution kernels in
// linalg/conv.hpp: forward, input-gradient, and weight-gradient parity
// against a naive reference (im2col_plane / col2im_plane_add around triple
// loops) across kernel x stride x padding x odd-extent geometries, batched
// forward/dgrad calls bitwise equal to per-sample ones, batched weight
// gradients over uneven sample counts and tile splits, the masked-weight
// tap path against the same oracle, and a finite-difference gradcheck on a
// masked Conv2d layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "linalg/conv.hpp"
#include "nn/conv.hpp"

namespace rt {
namespace {

struct Case {
  std::int64_t c_in, out_ch, h, w;
  ConvGeometry g;
};

std::vector<float> random_vec(std::int64_t count, Rng& rng,
                              float zero_fraction) {
  std::vector<float> out(static_cast<std::size_t>(count));
  for (float& v : out) {
    v = rng.uniform(0.0f, 1.0f) < zero_fraction ? 0.0f
                                                : rng.uniform(-1.0f, 1.0f);
  }
  return out;
}

void expect_near(const std::vector<float>& got, const std::vector<float>& want,
                 const char* what, const Case& c) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], 1e-4f * scale)
        << what << " k=" << c.g.kernel << " s=" << c.g.stride
        << " p=" << c.g.padding << " c_in=" << c.c_in << " out=" << c.out_ch
        << " h=" << c.h << " w=" << c.w << " index=" << i;
  }
}

void expect_bitwise(const float* got, const float* want, std::int64_t count,
                    const char* what, std::int64_t n, const Case& c) {
  ASSERT_EQ(std::memcmp(got, want, static_cast<std::size_t>(count) *
                                       sizeof(float)),
            0)
      << what << " batch " << n << " differs from per-sample calls: k="
      << c.g.kernel << " s=" << c.g.stride << " p=" << c.g.padding
      << " c_in=" << c.c_in << " out=" << c.out_ch << " h=" << c.h
      << " w=" << c.w;
}

// The parity oracle: each sample's plane expanded into a full
// (C*k*k, OH*OW) column buffer by im2col_plane, multiplied in a triple loop
// with double accumulators, and dgrad's columns scattered back by
// col2im_plane_add. It shares no code with the kernels under test.

/// y_i = W * col(x_i) (+ bias, then ReLU when `relu`) for n samples.
void ref_forward(const Case& c, std::int64_t n, const float* x,
                 const float* w, const float* bias, bool relu, float* y) {
  const std::int64_t ohw = c.g.out_extent(c.h) * c.g.out_extent(c.w);
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  std::vector<float> col(static_cast<std::size_t>(ckk * ohw));
  for (std::int64_t i = 0; i < n; ++i) {
    im2col_plane(x + i * c.c_in * c.h * c.w, c.c_in, c.h, c.w, c.g,
                 col.data());
    float* yi = y + i * c.out_ch * ohw;
    for (std::int64_t oc = 0; oc < c.out_ch; ++oc) {
      for (std::int64_t p = 0; p < ohw; ++p) {
        double acc = bias != nullptr ? bias[oc] : 0.0;
        for (std::int64_t k = 0; k < ckk; ++k) {
          acc += static_cast<double>(w[oc * ckk + k]) *
                 col[static_cast<std::size_t>(k * ohw + p)];
        }
        yi[oc * ohw + p] =
            relu ? std::max(static_cast<float>(acc), 0.0f)
                 : static_cast<float>(acc);
      }
    }
  }
}

/// dx_i += col2im(W^T * gout_i) for n samples.
void ref_dgrad(const Case& c, std::int64_t n, const float* w,
               const float* gout, float* dx) {
  const std::int64_t ohw = c.g.out_extent(c.h) * c.g.out_extent(c.w);
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  std::vector<float> dcol(static_cast<std::size_t>(ckk * ohw));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* gi = gout + i * c.out_ch * ohw;
    for (std::int64_t k = 0; k < ckk; ++k) {
      for (std::int64_t p = 0; p < ohw; ++p) {
        double acc = 0.0;
        for (std::int64_t oc = 0; oc < c.out_ch; ++oc) {
          acc += static_cast<double>(w[oc * ckk + k]) * gi[oc * ohw + p];
        }
        dcol[static_cast<std::size_t>(k * ohw + p)] = static_cast<float>(acc);
      }
    }
    col2im_plane_add(dcol.data(), c.c_in, c.h, c.w, c.g,
                     dx + i * c.c_in * c.h * c.w);
  }
}

/// dw += sum over n samples of gout_i * col(x_i)^T.
void ref_wgrad(const Case& c, std::int64_t n, const float* gout,
               const float* x, float* dw) {
  const std::int64_t ohw = c.g.out_extent(c.h) * c.g.out_extent(c.w);
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  std::vector<float> col(static_cast<std::size_t>(n * ckk * ohw));
  for (std::int64_t i = 0; i < n; ++i) {
    im2col_plane(x + i * c.c_in * c.h * c.w, c.c_in, c.h, c.w, c.g,
                 col.data() + i * ckk * ohw);
  }
  for (std::int64_t oc = 0; oc < c.out_ch; ++oc) {
    for (std::int64_t k = 0; k < ckk; ++k) {
      double acc = dw[oc * ckk + k];
      for (std::int64_t i = 0; i < n; ++i) {
        const float* gi = gout + (i * c.out_ch + oc) * ohw;
        const float* ci = col.data() + (i * ckk + k) * ohw;
        for (std::int64_t p = 0; p < ohw; ++p) {
          acc += static_cast<double>(gi[p]) * ci[p];
        }
      }
      dw[oc * ckk + k] = static_cast<float>(acc);
    }
  }
}

/// Runs the batched weight gradient over the first n samples of x / gout
/// through `opts` and through the reference, both accumulating into
/// the same nonzero prior, and demands agreement at <= 1e-4. Running the
/// output tiles as two ranges (at three cut points) must give the whole
/// call's bits.
void check_wgrad(const Case& c, const std::vector<float>& x,
                 const std::vector<float>& gout, std::int64_t n,
                 const ConvKernelOpts& opts, Rng& rng) {
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  const std::vector<float> prior = random_vec(c.out_ch * ckk, rng, 0.0f);
  std::vector<float> dw = prior;
  std::vector<float> dw_ref = prior;
  conv2d_wgrad(gout.data(), x.data(), n, c.c_in, c.h, c.w, c.g, c.out_ch,
               dw.data(), opts);
  ref_wgrad(c, n, gout.data(), x.data(), dw_ref.data());
  expect_near(dw, dw_ref, "wgrad", c);
  const std::int64_t tiles = conv_wgrad_tiles(c.c_in, c.out_ch, c.g);
  for (const std::int64_t cut : {std::int64_t{1}, tiles / 2, tiles - 1}) {
    std::vector<float> dw_split = prior;
    ConvKernelOpts part = opts;
    part.sliver_end = cut;
    conv2d_wgrad(gout.data(), x.data(), n, c.c_in, c.h, c.w, c.g, c.out_ch,
                 dw_split.data(), part);
    part.sliver_begin = cut;
    part.sliver_end = -1;
    conv2d_wgrad(gout.data(), x.data(), n, c.c_in, c.h, c.w, c.g, c.out_ch,
                 dw_split.data(), part);
    expect_bitwise(dw_split.data(), dw.data(), c.out_ch * ckk,
                   "wgrad tile split", n, c);
  }
}

/// Runs forward/dgrad through the packed kernels, or through the tap table
/// when `taps`, and wgrad, and through the reference on the same random
/// problem and demands agreement at <= 1e-4. Forward and dgrad also run
/// batched (n = 1, 3, 5 samples in one call, forward once more into a
/// strided output), and every sample of a batch must equal its own
/// single-sample call bitwise; wgrad runs the five samples as one call. A
/// taps case must be a shape conv_prefers_taps routes to taps, so a refit of
/// the rule cannot leave the tap table tested only where no layer runs it.
void check_case(const Case& c, float weight_zero_fraction, bool taps,
                Rng& rng) {
  constexpr std::int64_t kBatch = 5;
  const std::int64_t oh = c.g.out_extent(c.h);
  const std::int64_t ow = c.g.out_extent(c.w);
  ASSERT_GT(oh, 0);
  ASSERT_GT(ow, 0);
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  const std::int64_t in_plane = c.c_in * c.h * c.w;
  const std::int64_t out_plane = c.out_ch * oh * ow;
  const std::vector<float> x = random_vec(kBatch * in_plane, rng, 0.0f);
  const std::vector<float> w =
      random_vec(c.out_ch * ckk, rng, weight_zero_fraction);
  const std::vector<float> gout = random_vec(kBatch * out_plane, rng, 0.0f);
  const std::vector<float> bias = random_vec(c.out_ch, rng, 0.0f);
  ConvTapTable table;
  std::vector<float> values;
  if (taps) {
    ASSERT_TRUE(conv_prefers_taps(count_nonzeros(w.data(), c.out_ch * ckk),
                                  c.out_ch, ckk, oh * ow))
        << "not a taps-routed shape: c_in=" << c.c_in << " out=" << c.out_ch
        << " h=" << c.h << " w=" << c.w << " s=" << c.g.stride;
    table.resolve(w.data(), c.out_ch, c.c_in, c.h, c.w, c.g, values);
  }
  const auto forward = [&](const float* xs, std::int64_t n, float* y,
                           std::int64_t y_stride, bool relu) {
    if (taps) {
      conv2d_forward_taps(table, values.data(), xs, n, y, y_stride,
                          bias.data(), relu);
      return;
    }
    ConvKernelOpts opts;
    opts.y_stride = y_stride;
    conv2d_forward(xs, n, c.c_in, c.h, c.w, c.g, w.data(), c.out_ch, y,
                   bias.data(), relu, opts);
  };
  const auto dgrad = [&](const float* g, std::int64_t n, float* dx) {
    if (taps) {
      conv2d_dgrad_taps(table, values.data(), g, n, dx);
    } else {
      conv2d_dgrad(w.data(), c.out_ch, g, n, c.c_in, c.h, c.w, c.g, dx);
    }
  };

  for (const bool relu : {false, true}) {
    const char* what = relu ? "forward+relu" : "forward";
    std::vector<float> y_one(static_cast<std::size_t>(kBatch * out_plane));
    std::vector<float> y_ref = y_one;
    for (std::int64_t i = 0; i < kBatch; ++i) {
      forward(x.data() + i * in_plane, 1, y_one.data() + i * out_plane, 0,
              relu);
    }
    ref_forward(c, kBatch, x.data(), w.data(), bias.data(), relu,
                y_ref.data());
    expect_near(y_one, y_ref, what, c);
    for (const std::int64_t n : {1, 3, 5}) {
      std::vector<float> y(static_cast<std::size_t>(n * out_plane), -3.0f);
      forward(x.data(), n, y.data(), 0, relu);
      expect_bitwise(y.data(), y_one.data(), n * out_plane, what, n, c);
    }
    // Strided output: sample i at i * (out_plane + 3); the gaps stay as is.
    const std::int64_t stride = out_plane + 3;
    std::vector<float> y(static_cast<std::size_t>(kBatch * stride), -3.0f);
    forward(x.data(), kBatch, y.data(), stride, relu);
    for (std::int64_t i = 0; i < kBatch; ++i) {
      expect_bitwise(y.data() + i * stride, y_one.data() + i * out_plane,
                     out_plane, what, kBatch, c);
      for (std::int64_t j = out_plane; j < stride; ++j) {
        ASSERT_EQ(y[static_cast<std::size_t>(i * stride + j)], -3.0f);
      }
    }
  }

  // dgrad accumulates: seed every side with the same nonzero prior.
  const std::vector<float> prior = random_vec(kBatch * in_plane, rng, 0.0f);
  std::vector<float> dx_one = prior;
  std::vector<float> dx_ref = prior;
  for (std::int64_t i = 0; i < kBatch; ++i) {
    dgrad(gout.data() + i * out_plane, 1, dx_one.data() + i * in_plane);
  }
  ref_dgrad(c, kBatch, w.data(), gout.data(), dx_ref.data());
  expect_near(dx_one, dx_ref, "dgrad", c);
  for (const std::int64_t n : {1, 3, 5}) {
    std::vector<float> dx(prior.begin(), prior.begin() + n * in_plane);
    dgrad(gout.data(), n, dx.data());
    expect_bitwise(dx.data(), dx_one.data(), n * in_plane, "dgrad", n, c);
  }

  check_wgrad(c, x, gout, kBatch, {}, rng);
}

TEST(ConvKernels, ImplicitMatchesIm2colAcrossGeometries) {
  Rng rng(0xC0DE);
  // kernel x stride x padding sweep at deliberately odd extents, plus
  // channel counts that leave panel tails in every blocking dimension.
  for (const std::int64_t kernel : {1, 3, 7}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t padding : {0, 1, 3}) {
        const Case c{5, 9, 13, 11, ConvGeometry{kernel, stride, padding}};
        if (c.g.out_extent(c.h) <= 0 || c.g.out_extent(c.w) <= 0) continue;
        check_case(c, 0.0f, /*taps=*/false, rng);
      }
    }
  }
}

TEST(ConvKernels, ImplicitMatchesAtMicroResNetShapes) {
  Rng rng(0xB16);
  // micro-r18 at 16x16: the stem, one 3x3 body conv per stage (16x16 and
  // 8x8 planes, whose rows hold whole slivers or a sliver spans rows
  // depending on the lane width, then 4x4 and 2x2 planes whose slivers
  // gather and cross samples), the stride-2 entries and the 1x1 stride-2
  // projections.
  check_case({3, 8, 16, 16, ConvGeometry{3, 1, 1}}, 0.0f, /*taps=*/false,
             rng);
  for (const std::int64_t ch : {8, 16, 32, 64}) {
    const std::int64_t side = 16 / (ch / 8);
    check_case({ch, ch, side, side, ConvGeometry{3, 1, 1}}, 0.0f,
               /*taps=*/false, rng);
    if (ch == 8) continue;
    check_case({ch / 2, ch, 2 * side, 2 * side, ConvGeometry{3, 2, 1}}, 0.0f,
               /*taps=*/false, rng);
    check_case({ch / 2, ch, 2 * side, 2 * side, ConvGeometry{1, 2, 0}}, 0.0f,
               /*taps=*/false, rng);
  }
  // Unpadded 1x1 stride-1 convs (micro-r50's bottlenecks) load every
  // sliver inside a sample directly, across its plane's rows; with one
  // input channel, across samples too.
  check_case({16, 24, 4, 4, ConvGeometry{1, 1, 0}}, 0.0f, /*taps=*/false,
             rng);
  check_case({1, 4, 2, 3, ConvGeometry{1, 1, 0}}, 0.0f, /*taps=*/false,
             rng);
  // Depth past one kKc chunk in both directions (forward c_in*9 = 1152,
  // dgrad out_ch = 136 > 128), and a 1x1 plane.
  check_case({128, 136, 3, 3, ConvGeometry{3, 1, 1}}, 0.0f, /*taps=*/false,
             rng);
  check_case({32, 32, 1, 1, ConvGeometry{1, 1, 0}}, 0.0f, /*taps=*/false,
             rng);
  // Wide-plane stem shape: rows of several slivers plus a ragged tail.
  check_case({3, 8, 33, 35, ConvGeometry{3, 1, 1}}, 0.0f, /*taps=*/false,
             rng);
  // Stride-1 rows 7, 15, 17 and 32 wide put every load/gather branch under
  // test at 8 and at 16 lanes: a row one lane short of a sliver (7 at 8
  // lanes, 15 at 16), a sliver that crosses into the next row (15 and 17 at
  // 8 lanes, 7 and 17 at 16), a direct sliver plus a one-column tail (17 at
  // either width) and rows of two or more direct slivers (32).
  for (const std::int64_t w : {7, 15, 17, 32}) {
    check_case({4, 8, 5, w, ConvGeometry{3, 1, 1}}, 0.0f, /*taps=*/false,
               rng);
  }
}

TEST(ConvKernels, BatchedWgradMatchesIm2colReference) {
  // One batched call per sample count: a single sample, and 7 and 17
  // samples (Conv2d's uneven slots), over the micro-r18 geometries — the
  // stem's 3 input channels, 3x3 stride 2, 1x1 stride 2 without padding,
  // 2x2 and 1x1 planes — with output channels short of a lane sliver at
  // either width (3), one past an 8-lane sliver (10) and one past a 16-lane
  // sliver (17).
  Rng rng(0x3D6);
  const Case cases[] = {
      {3, 10, 16, 16, ConvGeometry{3, 1, 1}},
      {8, 3, 16, 16, ConvGeometry{3, 2, 1}},
      {8, 10, 8, 8, ConvGeometry{1, 2, 0}},
      {16, 10, 2, 2, ConvGeometry{3, 1, 1}},
      {16, 3, 4, 4, ConvGeometry{3, 2, 1}},
      {32, 10, 1, 1, ConvGeometry{3, 1, 1}},
      {32, 3, 2, 2, ConvGeometry{1, 2, 0}},
      {16, 17, 4, 4, ConvGeometry{3, 1, 1}},
      {8, 17, 8, 8, ConvGeometry{1, 2, 0}},
  };
  for (const Case& c : cases) {
    const std::int64_t ohw = c.g.out_extent(c.h) * c.g.out_extent(c.w);
    for (const std::int64_t n : {1, 7, 17}) {
      const std::vector<float> x =
          random_vec(n * c.c_in * c.h * c.w, rng, 0.0f);
      const std::vector<float> gout =
          random_vec(n * c.out_ch * ohw, rng, 0.0f);
      check_wgrad(c, x, gout, n, {}, rng);
    }
  }
}

TEST(ConvKernels, TapPathMatchesReferenceOnMaskedWeights) {
  Rng rng(0x7A9);
  // 95% zeroed weights on wide planes, stride 1 and 2 and a 7x7 kernel:
  // shapes the rule routes onto the tap table (check_case asserts it),
  // which must agree with the reference bit-for-tolerance.
  for (const std::int64_t stride : {1, 2}) {
    const Case c{6, 10, 29, 27, ConvGeometry{3, stride, 1}};
    check_case(c, 0.95f, /*taps=*/true, rng);
  }
  check_case({4, 6, 19, 17, ConvGeometry{7, 1, 3}}, 0.95f, /*taps=*/true,
             rng);
}

TEST(ConvKernels, ExecutorChoiceDoesNotChangeResults) {
  // The executor is the caller's per-layer choice; it must change only the
  // path, never the result. On a shape the rule routes to taps, forward and
  // dgrad through the tap table and through packed (local and pre-packed
  // panels) all agree with the reference.
  Rng rng(0x11E);
  const Case c{4, 8, 23, 23, ConvGeometry{3, 1, 1}};
  const std::int64_t ckk = c.c_in * 9;
  const std::int64_t ohw = c.g.out_extent(c.h) * c.g.out_extent(c.w);
  const std::vector<float> x = random_vec(c.c_in * c.h * c.w, rng, 0.0f);
  const std::vector<float> w = random_vec(c.out_ch * ckk, rng, 0.95f);
  const std::vector<float> gout = random_vec(c.out_ch * ohw, rng, 0.0f);
  ASSERT_TRUE(conv_prefers_taps(count_nonzeros(w.data(), c.out_ch * ckk),
                                c.out_ch, ckk, ohw));
  std::vector<float> y_ref(static_cast<std::size_t>(c.out_ch * ohw));
  std::vector<float> dx_ref(static_cast<std::size_t>(c.c_in * c.h * c.w));
  ref_forward(c, 1, x.data(), w.data(), nullptr, false, y_ref.data());
  ref_dgrad(c, 1, w.data(), gout.data(), dx_ref.data());
  PackedWeights packed;
  packed.pack(w.data(), c.out_ch, c.c_in, c.g, /*forward=*/true,
              /*dgrad=*/true);
  ConvKernelOpts prepacked;
  prepacked.packed_weights = &packed;
  for (const ConvKernelOpts& opts : {ConvKernelOpts{}, prepacked}) {
    std::vector<float> y(y_ref.size());
    std::vector<float> dx(dx_ref.size());
    conv2d_forward(x.data(), 1, c.c_in, c.h, c.w, c.g, w.data(), c.out_ch,
                   y.data(), nullptr, false, opts);
    conv2d_dgrad(w.data(), c.out_ch, gout.data(), 1, c.c_in, c.h, c.w, c.g,
                 dx.data(), opts);
    expect_near(y, y_ref, "forward", c);
    expect_near(dx, dx_ref, "dgrad", c);
  }
  ConvTapTable table;
  std::vector<float> values;
  table.resolve(w.data(), c.out_ch, c.c_in, c.h, c.w, c.g, values);
  std::vector<float> y(y_ref.size());
  std::vector<float> dx(dx_ref.size());
  conv2d_forward_taps(table, values.data(), x.data(), 1, y.data(), 0, nullptr,
                      false);
  conv2d_dgrad_taps(table, values.data(), gout.data(), 1, dx.data());
  expect_near(y, y_ref, "tap forward", c);
  expect_near(dx, dx_ref, "tap dgrad", c);
}

TEST(ConvKernels, GradcheckMaskedConv2d) {
  // Finite-difference gradcheck of the full layer (batch 2, stride 2,
  // padding 1) with a 60%-masked weight: the analytic dX and dW from the
  // fused kernels must match central differences of the scalar loss
  // L = sum(y * probe).
  Rng rng(0x6AD);
  const std::int64_t n = 2, c_in = 3, h = 7, w = 5, out_ch = 4;
  Conv2d conv(c_in, out_ch, /*kernel=*/3, /*stride=*/2, /*padding=*/1,
              /*with_bias=*/true, rng, "gc");
  Tensor mask({out_ch, c_in * 9});
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.uniform(0.0f, 1.0f) < 0.6f ? 0.0f : 1.0f;
  }
  conv.weight().set_mask(mask);

  Tensor x = Tensor::randn({n, c_in, h, w}, rng);
  const Tensor y0 = conv.forward(x);
  Tensor probe = Tensor::randn({y0.dim(0), y0.dim(1), y0.dim(2), y0.dim(3)},
                               rng);
  conv.zero_grad();
  const Tensor dx = conv.backward(probe);

  const auto loss = [&](const Tensor& in) {
    Tensor y = conv.forward(in);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y[i]) * static_cast<double>(probe[i]);
    }
    return acc;
  };

  const float eps = 1e-2f;
  Rng pick(3);
  for (int trial = 0; trial < 24; ++trial) {
    const std::int64_t i = pick.uniform_int(
        0, static_cast<int>(x.numel()) - 1);
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const double want = (loss(xp) - loss(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], want, 1e-2 * std::max(1.0, std::fabs(want)))
        << "dX index " << i;
  }
  // Weight gradient: compare against central differences on unmasked
  // entries (masked entries' grads are zeroed by the optimizer contract,
  // not by backward).
  conv.forward(x);
  for (int trial = 0; trial < 24; ++trial) {
    const std::int64_t i = pick.uniform_int(
        0, static_cast<int>(conv.weight().value.numel()) - 1);
    if (mask[i] == 0.0f) continue;
    Tensor& wv = conv.weight().value;
    const float orig = wv[i];
    wv[i] = orig + eps;
    const double lp = loss(x);
    wv[i] = orig - eps;
    const double lm = loss(x);
    wv[i] = orig;
    const double want = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(conv.weight().grad[i], want,
                1e-2 * std::max(1.0, std::fabs(want)))
        << "dW index " << i;
  }
}

}  // namespace
}  // namespace rt
