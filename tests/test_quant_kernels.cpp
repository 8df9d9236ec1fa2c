// Accuracy guards for the true-int8 execution layer (linalg/gemm_s8,
// linalg/conv s8 paths, engine int8-native plans):
//
//  - kernel-level parity against exact integer references at awkward extents
//    (the int32 accumulator is exact, and the float requant is one fused
//    multiply-add per output on every ISA, so outputs must match the
//    std::fma reference EXACTLY), for both conv executors: the quad panels
//    and the tap table, the head's 1x1-conv-on-a-1x1-plane shape included,
//  - the channel-quad quantizer must equal quantize_u8 byte for byte, and a
//    conv batch must equal its samples run alone, whichever of the 64-byte
//    load and the gather forms a sliver's operand,
//  - end-to-end: native int8 vs the simulated-PTQ reference within a
//    documented tolerance, bitwise determinism across runs, <= 1% top-1
//    delta against fp32 serving for the dense and 90%-sparse micro-r18
//    tickets, and CSR and channel-compact plans (row-pruned heads included)
//    bitwise equal to the forced-dense plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "data/synth.hpp"
#include "engine/engine.hpp"
#include "linalg/conv.hpp"
#include "linalg/gemm_s8.hpp"
#include "models/resnet.hpp"
#include "prune/baselines.hpp"
#include "prune/omp.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

std::vector<std::int8_t> random_s8(std::int64_t count, Rng& rng,
                                   float zero_fraction) {
  std::vector<std::int8_t> out(static_cast<std::size_t>(count));
  for (auto& v : out) {
    v = rng.uniform(0.0f, 1.0f) < zero_fraction
            ? std::int8_t{0}
            : static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  return out;
}

std::vector<std::uint8_t> random_u8(std::int64_t count, Rng& rng) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(count));
  for (auto& v : out) {
    v = static_cast<std::uint8_t>(128 + rng.uniform_int(-127, 127));
  }
  return out;
}

/// The requant expression requant_rows implements, spelled exactly once
/// here: one rounding of the product and the bias sum.
float requant_ref(std::int32_t acc, std::int32_t corr, float sx, float sw,
                  float bias, bool relu) {
  float y = std::fma(static_cast<float>(acc - corr), sx * sw, bias);
  if (relu && y < 0.0f) y = 0.0f;
  return y;
}

TEST(QuantHelpers, RequantRowsIsOneFusedMultiplyAdd) {
  // Outputs where (acc - corr) * s and the bias sum round differently when
  // rounded twice: a mul-then-add epilogue misses about a third of them by
  // one ulp, so this pins the vector and scalar paths to the same bits.
  Rng rng(29);
  const std::int64_t rows = 8, cols = 37;
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * cols));
  for (auto& v : acc) v = rng.uniform_int(-200000, 200000);
  std::vector<std::int32_t> corr(static_cast<std::size_t>(rows));
  std::vector<float> scales(static_cast<std::size_t>(rows));
  std::vector<float> bias(static_cast<std::size_t>(rows));
  for (auto& c : corr) c = 128 * rng.uniform_int(-2000, 2000);
  for (auto& s : scales) s = rng.uniform(0.001f, 0.02f);
  for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
  const float sx = 0.0137f;
  for (const bool relu : {false, true}) {
    SCOPED_TRACE(testing::Message() << "relu=" << relu);
    S8Epilogue ep;
    ep.scales = scales.data();
    ep.act_scale = sx;
    ep.corr = corr.data();
    ep.bias = bias.data();
    ep.relu = relu;
    float amax = 0.0f;
    ep.amax = &amax;
    std::vector<float> y(static_cast<std::size_t>(rows * cols));
    requant_rows(acc.data(), cols, rows, cols, ep, y.data(), cols);
    float want_amax = 0.0f;
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = 0; j < cols; ++j) {
        const auto at = static_cast<std::size_t>(r * cols + j);
        const float want = requant_ref(
            acc[at], corr[static_cast<std::size_t>(r)], sx,
            scales[static_cast<std::size_t>(r)],
            bias[static_cast<std::size_t>(r)], relu);
        ASSERT_EQ(y[at], want) << "row=" << r << " col=" << j;
        want_amax = std::max(want_amax, std::fabs(want));
      }
    }
    EXPECT_EQ(amax, want_amax);
  }
}

TEST(QuantHelpers, HeadEpilogueIsOneFusedMultiplyAdd) {
  // The head runs as a 1x1 conv on a 1x1 plane, so its logits drain
  // through conv2d_forward_s8's register epilogue; it must round like
  // requant_rows (one fused multiply-add per output), or the head's bits
  // depend on whether the compiler contracts a multiply and an add. Large
  // accumulators and random biases make a two-rounding epilogue miss some
  // outputs by an ulp, which the teeth check below confirms. On a 1x1
  // unpadded plane a sample's channel quads are its offset-u8 row, so the
  // row-major inputs are the kernel's operand as they stand.
  Rng rng(31);
  const std::int64_t m = 7, n = 37, k = 96;
  const ConvGeometry g{.kernel = 1, .stride = 1, .padding = 0};
  const auto qw = random_s8(n * k, rng, 0.0f);
  const auto qx = random_u8(m * k, rng);
  PackedS8 packed;
  packed.pack(conv_s8_quad_weights(qw.data(), n, k, 1).data(), n, k);
  const std::vector<std::int32_t> offsets = conv_s8_quad_offsets(k, 1, 1, g);
  std::vector<float> scales(static_cast<std::size_t>(n));
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (auto& s : scales) s = rng.uniform(0.001f, 0.02f);
  for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
  const float sx = 0.0137f;
  for (const bool relu : {false, true}) {
    SCOPED_TRACE(testing::Message() << "relu=" << relu);
    S8Epilogue ep;
    ep.scales = scales.data();
    ep.act_scale = sx;
    ep.corr = packed.corr();
    ep.bias = bias.data();
    ep.relu = relu;
    float amax = 0.0f;
    ep.amax = &amax;
    std::vector<float> got(static_cast<std::size_t>(m * n));
    conv2d_forward_s8(qx.data(), m, k, 1, 1, g, packed.panels(),
                      offsets.data(), n, got.data(), n, ep);
    float want_amax = 0.0f;
    int unfused_misses = 0;
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        std::int32_t sum = 0;
        for (std::int64_t p = 0; p < k; ++p) {
          sum += static_cast<std::int32_t>(
                     qx[static_cast<std::size_t>(i * k + p)]) *
                 qw[static_cast<std::size_t>(j * k + p)];
        }
        const std::int32_t corr = packed.corr()[j];
        const auto jj = static_cast<std::size_t>(j);
        const float want =
            requant_ref(sum, corr, sx, scales[jj], bias[jj], relu);
        ASSERT_EQ(got[static_cast<std::size_t>(i * n + j)], want)
            << "i=" << i << " j=" << j;
        want_amax = std::max(want_amax, std::fabs(want));
        // The same output rounded twice (volatile blocks contraction).
        volatile float product =
            static_cast<float>(sum - corr) * (sx * scales[jj]);
        float twice = product + bias[jj];
        if (relu && twice < 0.0f) twice = 0.0f;
        if (twice != want) ++unfused_misses;
      }
    }
    EXPECT_EQ(amax, want_amax);
    EXPECT_GT(unfused_misses, 0) << "no output separates one rounding from two";
  }
}

TEST(QuantHelpers, AxpyMatchesScalarAtAllLengths) {
  Rng rng(13);
  for (std::int64_t n = 0; n <= 67; ++n) {
    const auto x = random_s8(std::max<std::int64_t>(n, 1), rng, 0.2f);
    std::vector<std::int32_t> y(static_cast<std::size_t>(n));
    std::vector<std::int32_t> want(static_cast<std::size_t>(n));
    for (std::int64_t j = 0; j < n; ++j) {
      y[static_cast<std::size_t>(j)] = want[static_cast<std::size_t>(j)] =
          rng.uniform_int(-1000, 1000);
    }
    const std::int32_t v = rng.uniform_int(-127, 127);
    axpy_s8_s32(x.data(), v, y.data(), n);
    for (std::int64_t j = 0; j < n; ++j) {
      want[static_cast<std::size_t>(j)] +=
          v * static_cast<std::int32_t>(x[static_cast<std::size_t>(j)]);
    }
    ASSERT_EQ(y, want) << "n=" << n;
  }
}

/// Integer im2col reference for the s8 conv over a plain (c_in, h, w)
/// offset-u8 plane: exact signed accumulation, then the shared requant
/// expression.
std::vector<float> conv_s8_reference(const std::uint8_t* xq,
                                     std::int64_t c_in, std::int64_t h,
                                     std::int64_t w, const ConvGeometry& g,
                                     const std::vector<std::int8_t>& qw,
                                     std::int64_t out_ch,
                                     const std::vector<float>& scales,
                                     float sx, const std::vector<float>& bias,
                                     bool relu) {
  const std::int64_t oh = g.out_extent(h), ow = g.out_extent(w);
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  std::vector<float> y(static_cast<std::size_t>(out_ch * oh * ow));
  for (std::int64_t r = 0; r < out_ch; ++r) {
    for (std::int64_t oi = 0; oi < oh; ++oi) {
      for (std::int64_t oj = 0; oj < ow; ++oj) {
        std::int64_t sum = 0;
        for (std::int64_t p = 0; p < ckk; ++p) {
          const std::int64_t c = p / (g.kernel * g.kernel);
          const std::int64_t ki = (p / g.kernel) % g.kernel;
          const std::int64_t kj = p % g.kernel;
          const std::int64_t ii = oi * g.stride - g.padding + ki;
          const std::int64_t jj = oj * g.stride - g.padding + kj;
          int xb = 0;  // out-of-image taps contribute exact zero
          if (ii >= 0 && ii < h && jj >= 0 && jj < w) {
            xb = static_cast<int>(xq[(c * h + ii) * w + jj]) - 128;
          }
          sum += static_cast<int>(qw[static_cast<std::size_t>(r * ckk + p)]) *
                 xb;
        }
        y[static_cast<std::size_t>((r * oh + oi) * ow + oj)] = requant_ref(
            static_cast<std::int32_t>(sum), 0, sx,
            scales[static_cast<std::size_t>(r)],
            bias[static_cast<std::size_t>(r)], relu);
      }
    }
  }
  return y;
}

/// One int8 conv layer and a batch of inputs for it: float samples, their
/// plain offset-u8 planes (quantize_u8, the reference's input) and their
/// channel-quad planes (quantize_u8_quads, the kernel's), plus the weight
/// packed in the kernel's quad order.
struct ConvS8Case {
  std::int64_t n, ci, h, w, co;
  ConvGeometry g;
  float sx = 0.009f;
  std::vector<std::uint8_t> plain, quads;
  std::vector<std::int8_t> qw;
  PackedS8 packed;
  std::vector<std::int32_t> offsets;
  std::vector<float> scales, bias;

  ConvS8Case(std::int64_t n_, std::int64_t ci_, std::int64_t h_,
             std::int64_t w_, std::int64_t co_, const ConvGeometry& g_,
             float zero_fraction, Rng& rng)
      : n(n_), ci(ci_), h(h_), w(w_), co(co_), g(g_) {
    std::vector<float> x(static_cast<std::size_t>(n * ci * h * w));
    for (auto& v : x) v = rng.uniform(-1.3f, 1.3f);  // some clamp at +-127
    plain.resize(x.size());
    quantize_u8(x.data(), n * ci * h * w, sx, plain.data());
    quads.resize(static_cast<std::size_t>(
        n * s8_quad_plane_bytes(ci, h, w, g.padding)));
    quantize_u8_quads(x.data(), n, ci, h, w, g.padding, sx, quads.data());
    const std::int64_t ckk = ci * g.kernel * g.kernel;
    qw = random_s8(co * ckk, rng, zero_fraction);
    const std::vector<std::int8_t> reordered =
        conv_s8_quad_weights(qw.data(), co, ci, g.kernel);
    packed.pack(reordered.data(), co,
                static_cast<std::int64_t>(reordered.size()) / co);
    offsets = conv_s8_quad_offsets(ci, h, w, g);
    scales.resize(static_cast<std::size_t>(co));
    bias.resize(static_cast<std::size_t>(co));
    for (auto& s : scales) s = rng.uniform(0.001f, 0.02f);
    for (auto& b : bias) b = rng.uniform(-0.5f, 0.5f);
  }

  std::int64_t ohw() const { return g.out_extent(h) * g.out_extent(w); }

  S8Epilogue epilogue(float* amax) const {
    S8Epilogue ep;
    ep.scales = scales.data();
    ep.act_scale = sx;
    ep.corr = packed.corr();
    ep.bias = bias.data();
    ep.relu = true;
    ep.amax = amax;
    return ep;
  }

  /// Runs conv2d_forward_s8 over samples [i0, i0 + count) with output
  /// sample stride y_stride (slack filled with -7).
  std::vector<float> run(std::int64_t i0, std::int64_t count,
                         std::int64_t y_stride, float* amax) const {
    std::vector<float> y(static_cast<std::size_t>(count * y_stride), -7.0f);
    conv2d_forward_s8(
        quads.data() + i0 * s8_quad_plane_bytes(ci, h, w, g.padding), count,
        ci, h, w, g, packed.panels(), offsets.data(), co, y.data(), y_stride,
        epilogue(amax));
    return y;
  }
};

/// Every sample of a batch against conv_s8_reference, exactly; also checks
/// that the u8 offset's packed correction cancels (the reference runs on
/// signed values with no correction) and that the epilogue's amax equals the
/// reference outputs' max |y|.
void check_conv_s8(std::int64_t n, std::int64_t ci, std::int64_t h,
                   std::int64_t w, std::int64_t co, const ConvGeometry& g,
                   Rng& rng) {
  const ConvS8Case c(n, ci, h, w, co, g, 0.0f, rng);
  const std::int64_t out_f = co * c.ohw();
  float amax = 0.0f;
  const std::vector<float> got = c.run(0, n, out_f, &amax);
  float want_amax = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::vector<float> want =
        conv_s8_reference(c.plain.data() + i * ci * h * w, ci, h, w, g, c.qw,
                          co, c.scales, c.sx, c.bias, true);
    for (std::int64_t j = 0; j < out_f; ++j) {
      ASSERT_EQ(got[static_cast<std::size_t>(i * out_f + j)],
                want[static_cast<std::size_t>(j)])
          << "sample=" << i << " index=" << j;
      want_amax =
          std::max(want_amax, std::fabs(want[static_cast<std::size_t>(j)]));
    }
  }
  EXPECT_EQ(amax, want_amax);
}

TEST(QuantConv, MatchesReference) {
  // Covers c_in of 3 and 5 (the last channel quad part padding), tail
  // slivers (n * OH*OW not a multiple of 16), slivers spanning 4 samples
  // (2x2 outputs), stride 2, 1x1 pad 0, 5x5 pad 2, and both operand forms:
  // 16-wide stride-1 output row runs load, everything else gathers (21-wide
  // rows mix the two; 17-wide stride-2 rows must gather). The 1x1 planes
  // are the head's shape, a 1x1 conv over the pooled features: one lane
  // per sample, c_in 64 and a 5-channel quad tail, at Session batch 1, 9
  // and 64.
  Rng rng(17);
  const struct { std::int64_t n, ci, h, w, co, k, s, p; } cases[] = {
      {1, 3, 16, 16, 8, 3, 1, 1},  {1, 8, 16, 16, 16, 3, 2, 1},
      {1, 16, 8, 8, 16, 3, 1, 1},  {1, 64, 2, 2, 64, 3, 1, 1},
      {1, 8, 16, 16, 16, 1, 2, 0}, {1, 5, 7, 9, 11, 3, 1, 1},
      {1, 4, 5, 5, 6, 5, 2, 2},    {1, 16, 8, 8, 12, 1, 1, 0},
      {5, 12, 2, 2, 20, 3, 1, 1},  {3, 5, 19, 21, 9, 3, 1, 1},
      {2, 3, 16, 16, 8, 3, 1, 1},  {1, 4, 33, 34, 8, 3, 2, 1},
      {1, 64, 1, 1, 10, 1, 1, 0},  {9, 64, 1, 1, 10, 1, 1, 0},
      {64, 64, 1, 1, 10, 1, 1, 0}, {1, 5, 1, 1, 10, 1, 1, 0},
      {9, 5, 1, 1, 10, 1, 1, 0},   {64, 5, 1, 1, 10, 1, 1, 0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " ci=" << c.ci
                                    << " h=" << c.h << " w=" << c.w
                                    << " k=" << c.k << " s=" << c.s);
    const ConvGeometry g{.kernel = c.k, .stride = c.s, .padding = c.p};
    check_conv_s8(c.n, c.ci, c.h, c.w, c.co, g, rng);
  }
}

TEST(QuantConv, WideChannelsMatchReference) {
  // round_up4(C*k*k) = 1152: the whole depth accumulates in registers, as
  // every layer does.
  Rng rng(23);
  for (const std::int64_t stride : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "stride=" << stride);
    ConvGeometry g;
    g.stride = stride;
    check_conv_s8(2, 128, 9, 9, 20, g, rng);
  }
}

TEST(QuantConv, BatchMatchesPerSampleBitwise) {
  // batch(n) must be memcmp-equal to n calls of batch(1): the bits may not
  // depend on which samples share a sliver, nor on whether a sliver's
  // operand came from the 64-byte load or the gather. 30-wide outputs mix
  // both forms; 2x2 outputs put 4 samples in every sliver and end on a
  // partial one.
  Rng rng(19);
  const struct { std::int64_t n, ci, h, w, co, s; } cases[] = {
      {17, 16, 30, 30, 11, 1},
      {12, 128, 9, 9, 20, 2},
      {9, 5, 2, 2, 12, 1},
  };
  for (const auto& k : cases) {
    SCOPED_TRACE(testing::Message() << "ci=" << k.ci << " h=" << k.h);
    ConvGeometry g;  // 3x3, pad 1
    g.stride = k.s;
    const ConvS8Case c(k.n, k.ci, k.h, k.w, k.co, g, 0.3f, rng);
    const std::int64_t y_stride = k.co * c.ohw() + 5;
    float amax_single = 0.0f;
    std::vector<float> want;
    for (std::int64_t i = 0; i < k.n; ++i) {
      const std::vector<float> yi = c.run(i, 1, y_stride, &amax_single);
      want.insert(want.end(), yi.begin(), yi.end());
    }
    float amax_batch = 0.0f;
    const std::vector<float> got = c.run(0, k.n, y_stride, &amax_batch);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << "batched conv diverged from per-sample calls";
    EXPECT_EQ(amax_batch, amax_single);
  }
}

TEST(QuantConv, TapTableMatchesReference) {
  // conv2d_forward_taps_s8, the int8 executor of tap-routed serving convs,
  // against the exact integer reference on every sample: stride 1 and 2,
  // full-width stride-1 folds and wide rows (the vectorized axpy), narrow
  // scalar rows, wide (requant_rows) and tiny (scalar) row drains, 4x4 down
  // to 1x1 inputs whose border taps read only padding and drop out of the
  // table, all-zero weights whose rows drain to relu(bias), and a dense
  // weight. The signed input holds the reference's offset-u8 integers minus
  // 128. The epilogue keeps the panels' offset correction, which the tap
  // executor must not read; the slack between output samples must stay
  // untouched.
  Rng rng(29);
  const struct {
    std::int64_t n, ci, h, w, co, k, s, p;
    float zeros;
  } cases[] = {
      {3, 8, 16, 16, 12, 3, 1, 1, 0.9f}, {2, 4, 20, 21, 6, 5, 1, 1, 0.8f},
      {2, 5, 19, 21, 9, 3, 1, 1, 0.9f},  {2, 4, 33, 34, 8, 3, 2, 1, 0.9f},
      {2, 4, 29, 27, 6, 7, 2, 3, 0.9f},  {3, 16, 4, 4, 16, 3, 1, 1, 0.9f},
      {3, 16, 4, 4, 16, 3, 2, 1, 0.9f},  {4, 16, 2, 2, 16, 3, 1, 1, 0.5f},
      {4, 32, 1, 1, 16, 3, 1, 1, 0.5f},  {4, 32, 1, 1, 16, 3, 2, 1, 0.5f},
      {2, 8, 8, 8, 8, 1, 2, 0, 0.9f},    {2, 4, 6, 6, 5, 3, 1, 1, 1.0f},
      {2, 4, 6, 6, 5, 3, 1, 1, 0.0f},
  };
  for (const auto& k : cases) {
    SCOPED_TRACE(testing::Message()
                 << "n=" << k.n << " ci=" << k.ci << " h=" << k.h << " w="
                 << k.w << " k=" << k.k << " s=" << k.s << " zeros="
                 << k.zeros);
    ConvGeometry g;
    g.kernel = k.k;
    g.stride = k.s;
    g.padding = k.p;
    const ConvS8Case c(k.n, k.ci, k.h, k.w, k.co, g, k.zeros, rng);
    std::vector<std::int8_t> xq(c.plain.size());
    for (std::size_t j = 0; j < xq.size(); ++j) {
      xq[j] = static_cast<std::int8_t>(static_cast<int>(c.plain[j]) - 128);
    }
    ConvTapTable table;
    std::vector<std::int8_t> values;
    table.resolve(c.qw.data(), k.co, k.ci, k.h, k.w, g, values);
    const auto nnz = static_cast<std::size_t>(
        std::count_if(c.qw.begin(), c.qw.end(),
                      [](std::int8_t v) { return v != 0; }));
    if (k.h == 1 && nnz > 0) EXPECT_LT(table.taps.size(), nnz);

    const std::int64_t out_f = k.co * c.ohw(), y_stride = out_f + 3;
    std::vector<std::int32_t> acc(static_cast<std::size_t>(k.n * c.ohw()));
    for (const bool relu : {false, true}) {
      SCOPED_TRACE(relu ? "relu" : "no relu");
      std::vector<float> y(static_cast<std::size_t>(k.n * y_stride), -7.0f);
      float amax = 0.0f;
      S8Epilogue ep = c.epilogue(&amax);
      ep.relu = relu;
      conv2d_forward_taps_s8(table, values.data(), xq.data(), k.n,
                             acc.data(), ep, y.data(), y_stride);
      float want_amax = 0.0f;
      for (std::int64_t i = 0; i < k.n; ++i) {
        const std::vector<float> want = conv_s8_reference(
            c.plain.data() + i * k.ci * k.h * k.w, k.ci, k.h, k.w, g, c.qw,
            k.co, c.scales, c.sx, c.bias, relu);
        for (std::int64_t j = 0; j < out_f; ++j) {
          ASSERT_EQ(y[static_cast<std::size_t>(i * y_stride + j)],
                    want[static_cast<std::size_t>(j)])
              << "sample=" << i << " index=" << j;
          want_amax = std::max(want_amax,
                               std::fabs(want[static_cast<std::size_t>(j)]));
        }
        for (std::int64_t j = out_f; j < y_stride; ++j) {
          ASSERT_EQ(y[static_cast<std::size_t>(i * y_stride + j)], -7.0f);
        }
      }
      EXPECT_EQ(amax, want_amax);
    }
  }
}

TEST(QuantHelpers, QuadPlanesMatchQuantizeU8) {
  // Byte t of quad (cq, y, x) must be quantize_u8's byte for channel
  // 4cq + t at pixel (y - pad, x - pad), and 128 on the border and for
  // channels past c. Inputs hit exact .5 ties (scales 1 and 0.25 make
  // x / scale exact), the +-127 clamp, and a 19-wide row (one full and one
  // partial 16-lane step); scale 0 stores the zero encoding everywhere. The
  // 1x1 pad-0 plane is the head's pooled features, quantized row by row.
  Rng rng(31);
  const std::int64_t n = 2, c = 5;
  const float ties[] = {0.5f, -0.5f, 1.5f, -2.5f, 126.5f, -126.5f, 127.5f};
  const struct { std::int64_t h, w; std::vector<std::int64_t> pads; } shapes[] =
      {{3, 19, {0, 1, 2}}, {1, 1, {0}}};
  for (const auto& shape : shapes) {
    const std::int64_t h = shape.h, w = shape.w;
    std::vector<float> x(static_cast<std::size_t>(n * c * h * w));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = i % 3 == 0 ? ties[i / 3 % 7]
                        : (i % 3 == 1 ? rng.uniform(-300.0f, 300.0f)
                                      : rng.uniform(-2.0f, 2.0f));
    }
    for (const float scale : {1.0f, 0.25f, 0.013f, 0.0f}) {
      std::vector<std::uint8_t> plain(x.size());
      quantize_u8(x.data(), static_cast<std::int64_t>(x.size()), scale,
                  plain.data());
      for (const std::int64_t pad : shape.pads) {
        SCOPED_TRACE(testing::Message() << "h=" << h << " w=" << w
                                        << " scale=" << scale
                                        << " pad=" << pad);
        const std::int64_t ph = h + 2 * pad, pw = w + 2 * pad;
        const std::int64_t bytes = s8_quad_plane_bytes(c, h, w, pad);
        ASSERT_EQ(bytes, 2 * ph * pw * 4);
        std::vector<std::uint8_t> q(static_cast<std::size_t>(n * bytes), 7);
        quantize_u8_quads(x.data(), n, c, h, w, pad, scale, q.data());
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t ch = 0; ch < 8; ++ch) {
            for (std::int64_t yy = 0; yy < ph; ++yy) {
              for (std::int64_t xx = 0; xx < pw; ++xx) {
                const std::int64_t iy = yy - pad, ix = xx - pad;
                const bool inside =
                    ch < c && iy >= 0 && iy < h && ix >= 0 && ix < w;
                const std::uint8_t want =
                    inside ? plain[static_cast<std::size_t>(
                                 ((i * c + ch) * h + iy) * w + ix)]
                           : std::uint8_t{128};
                const std::uint8_t got = q[static_cast<std::size_t>(
                    i * bytes + ((ch / 4 * ph + yy) * pw + xx) * 4 + ch % 4)];
                ASSERT_EQ(got, want) << "i=" << i << " ch=" << ch
                                     << " y=" << yy << " x=" << xx;
              }
            }
          }
        }
      }
    }
  }
}

std::unique_ptr<ResNet> trained_micro_r18(float sparsity, std::uint64_t seed) {
  Rng rng(seed);
  auto model = make_micro_resnet18(10, rng);
  const Dataset train = generate_dataset(source_task_spec(), 96, seed + 1);
  TrainLoopConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  Rng train_rng(seed ^ 0xABCDULL);
  train_classifier(*model, train, cfg, train_rng);
  if (sparsity > 0.0f) {
    OmpConfig prune_cfg;
    prune_cfg.sparsity = sparsity;
    omp_prune(*model, prune_cfg);
  }
  model->set_training(false);
  return model;
}

double top1(const Tensor& logits, const std::vector<int>& labels) {
  const std::int64_t n = logits.dim(0), classes = logits.dim(1);
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * classes;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (best == labels[static_cast<std::size_t>(i)]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

TEST(QuantEndToEnd, NativeTracksSimulatedReferenceAndIsDeterministic) {
  auto model = trained_micro_r18(0.5f, 61);
  const Dataset probe = generate_dataset(source_task_spec(), 32, 62);

  CompileOptions simulated;
  simulated.int8_weights = true;
  simulated.int8_native = false;
  const CompiledTicket sim_plan = Engine::compile(*model, simulated);
  Workspace sim_ws(sim_plan, 32);
  const Tensor sim = sim_plan.predict(probe.images, sim_ws);

  CompileOptions native;
  native.int8_weights = true;
  native.int8_native = true;
  const CompiledTicket nat_plan = Engine::compile(*model, native);
  EXPECT_TRUE(nat_plan.int8_native());
  Workspace nat_ws(nat_plan, 32);
  const Tensor nat = nat_plan.predict(probe.images, nat_ws);

  // Documented tolerance: the simulated reference fake-quantizes WEIGHTS
  // only and runs float activations; native execution additionally
  // quantizes activations to 8 bits per layer (dynamic per-batch scales).
  // Each layer therefore adds up to ~1/254 of its batch activation range on
  // top of the shared weight-quantization error, and the gap compounds
  // through the 18-conv depth (measured ~0.34 on raw logits here). 0.5
  // bounds it with margin while still catching any structural mistake
  // (wrong corr, scale, or gather) — those produce gaps orders of magnitude
  // larger. Prediction-level agreement is guarded by the top-1 test below.
  EXPECT_LE(nat.linf_distance(sim), 0.5f);

  // Bitwise determinism: same plan, same workspace shape, same bits.
  Workspace rerun_ws(nat_plan, 32);
  const Tensor rerun = nat_plan.predict(probe.images, rerun_ws);
  ASSERT_EQ(nat.dim(0), rerun.dim(0));
  const std::int64_t count = nat.dim(0) * nat.dim(1);
  for (std::int64_t i = 0; i < count; ++i) {
    ASSERT_EQ(nat.data()[i], rerun.data()[i]) << "nondeterministic at " << i;
  }
}

TEST(QuantEndToEnd, Top1DeltaWithinOnePercentOnEvalBattery) {
  const Dataset eval = generate_dataset(source_task_spec(), 256, 71);
  for (const float sparsity : {0.0f, 0.9f}) {
    auto model = trained_micro_r18(sparsity, 73);

    const CompiledTicket fp32_plan = Engine::compile(*model);
    Workspace fp32_ws(fp32_plan, 32);
    const double fp32_acc = top1(fp32_plan.predict(eval.images, fp32_ws),
                                 eval.labels);

    CompileOptions options;
    options.int8_weights = true;
    const CompiledTicket int8_plan = Engine::compile(*model, options);
    EXPECT_TRUE(int8_plan.int8_native());
    Workspace int8_ws(int8_plan, 32);
    const double int8_acc = top1(int8_plan.predict(eval.images, int8_ws),
                                 eval.labels);

    // The acceptance bar: quantized serving gives back at most 1% top-1
    // against fp32 serving of the same ticket (dense and 90%-sparse).
    EXPECT_LE(fp32_acc - int8_acc, 0.01 + 1e-9)
        << "sparsity=" << sparsity << " fp32=" << fp32_acc
        << " int8=" << int8_acc;
  }
}

TEST(QuantEndToEnd, CsrExecutorsAgreeBitwise) {
  // The shippable format must be invisible in the logits. conv_prefers_taps
  // picks each conv's executor from its executed matrix whatever the
  // format, so the CSR plan and the forced-dense plan run the same
  // executors (r18_omp90 every conv on panels, layerwise-98% every conv on
  // the tap table) and must agree bit for bit. Each executor's own exact
  // oracle is the integer reference in QuantConv.*.
  Rng omp_rng(9);  // the serving benchmark's r18_omp90 ticket
  auto omp90 = make_micro_resnet18(10, omp_rng);
  omp_prune(*omp90, OmpConfig{0.9f, Granularity::kElement,
                              /*include_head=*/false});
  omp90->set_training(false);
  Rng lw_rng(9);
  auto lw98 = make_micro_resnet18(10, lw_rng);
  layerwise_magnitude_prune(*lw98, 0.98f, Granularity::kElement);
  lw98->set_training(false);

  Rng rng(101);
  const Tensor x = Tensor::uniform({37, 3, 16, 16}, rng, 0.0f, 1.0f);
  for (const ResNet* model : {omp90.get(), lw98.get()}) {
    const bool is_omp90 = model == omp90.get();
    CompileOptions options;
    options.int8_weights = true;
    const CompiledTicket plan = Engine::compile(*model, options);
    ASSERT_TRUE(plan.int8_native());
    options.force_format = PackedFormat::kDense;
    const CompiledTicket dense = Engine::compile(*model, options);

    // prepacked_bytes is nonzero exactly when a conv carries panels. The
    // head, the last layer record, is left out: it is unpruned here.
    const std::vector<LayerPlan>& layers = plan.layers();
    int csr = 0, csr_taps = 0;
    for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
      const LayerPlan& l = layers[i];
      if (l.format != PackedFormat::kCsr) continue;
      ++csr;
      if (l.prepacked_bytes == 0) ++csr_taps;
      const std::int64_t ohw = l.dense_macs / (l.rows * l.cols);
      EXPECT_EQ(l.prepacked_bytes == 0,
                conv_prefers_taps(l.nnz, l.rows, l.cols, ohw))
          << l.name;
    }
    if (is_omp90) {
      EXPECT_GT(csr, 0);
      EXPECT_EQ(csr_taps, 0) << "every r18_omp90 CSR conv runs on panels";
    } else {
      EXPECT_GT(csr_taps, 0) << "layerwise-98% keeps tap-executed CSR convs";
    }

    // Uneven chunking (37 = 16 + 16 + 5) also covers partial tiles.
    Workspace ws(plan, 16), dense_ws(dense, 16);
    const Tensor got = plan.predict(x, ws);
    const Tensor want = dense.predict(x, dense_ws);
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0)
        << (is_omp90 ? "omp90" : "layerwise98") << " linf "
        << got.linf_distance(want);
  }
}

TEST(QuantEndToEnd, ChannelCompactMatchesDenseBitwise) {
  // A channel-compact layer runs the dense layer's kernel over its kept
  // rows with the same fused epilogue, and its pruned rows carry
  // relu(bias), exactly what a dense epilogue computes over an all-zero row.
  // So the compact plan must reproduce the forced-dense plan bit for bit,
  // int8 and fp32 alike. Perturbed BN affine parameters and head biases
  // give every channel and class its own nonzero bias, which is where a
  // separate bias add would round apart. The head is a 1x1 conv like the
  // rest: with 3 of its 10 rows zeroed, or all of them, it ships
  // channel-compact too, and its pruned classes' logits are their biases.
  Rng rng(9);
  auto model = make_micro_resnet18(10, rng);
  omp_prune(*model, OmpConfig{0.7f, Granularity::kChannel,
                              /*include_head=*/false});
  for (Parameter* p : model->parameters()) {
    if (p->kind != ParamKind::kBnGamma && p->kind != ParamKind::kBnBeta) {
      continue;
    }
    const bool gamma = p->kind == ParamKind::kBnGamma;
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      p->value.data()[i] =
          gamma ? rng.uniform(0.5f, 1.5f) : rng.uniform(-0.5f, 0.5f);
    }
  }
  Tensor& head_bias = model->head().bias()->value;
  for (std::int64_t j = 0; j < head_bias.numel(); ++j) {
    head_bias.data()[j] = rng.uniform(-0.5f, 0.5f);
  }
  model->set_training(false);

  const Tensor x = Tensor::uniform({67, 3, 16, 16}, rng, 0.0f, 1.0f);
  Tensor& head_w = model->head().weight().value;
  const std::int64_t classes = head_w.dim(0), features = head_w.dim(1);
  for (const std::int64_t zeroed_rows : {0, 3, 10}) {
    // Rows 1, 4 and 7 of the 10, then every row.
    for (std::int64_t r = 0; r < classes; ++r) {
      if (zeroed_rows == classes || (zeroed_rows == 3 && r % 3 == 1 && r < 9)) {
        std::fill_n(head_w.data() + r * features, features, 0.0f);
      }
    }
    for (const bool int8 : {true, false}) {
      SCOPED_TRACE(testing::Message() << "zeroed head rows=" << zeroed_rows
                                      << " int8=" << int8);
      CompileOptions options;
      options.int8_weights = int8;
      auto plan = std::make_shared<const CompiledTicket>(
          Engine::compile(*model, options));
      ASSERT_EQ(plan->int8_native(), int8);
      int compact = 0;
      for (const LayerPlan& l : plan->layers()) {
        if (l.format == PackedFormat::kChannelCompact) ++compact;
      }
      EXPECT_GT(compact, 0);
      const LayerPlan& head = plan->layers().back();
      if (zeroed_rows > 0) {
        EXPECT_EQ(head.format, PackedFormat::kChannelCompact);
        EXPECT_EQ(head.kept_rows, classes - zeroed_rows);
      }
      options.force_format = PackedFormat::kDense;
      auto dense = std::make_shared<const CompiledTicket>(
          Engine::compile(*model, options));

      for (const int batch : {1, 16, 64}) {
        Session session(plan, batch), dense_session(dense, batch);
        const Tensor got = session.predict(x);
        const Tensor want = dense_session.predict(x);
        ASSERT_EQ(got.numel(), want.numel());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              static_cast<std::size_t>(got.numel()) *
                                  sizeof(float)),
                  0)
            << "batch " << batch << " linf " << got.linf_distance(want);
        if (zeroed_rows == classes) {
          for (std::int64_t i = 0; i < got.dim(0); ++i) {
            for (std::int64_t j = 0; j < classes; ++j) {
              ASSERT_EQ(got.at(i, j), head_bias[j]) << "i=" << i;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rt
