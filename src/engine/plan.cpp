#include "engine/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/audit.hpp"
#include "linalg/conv.hpp"
#include "linalg/gemm.hpp"
#include "linalg/gemm_s8.hpp"

namespace rt {

namespace {

/// Shortcut add + ReLU. When `track_amax` (int8-native plans), returns the
/// batch max of the result — the ReLU output is non-negative, so the max
/// value IS the amax the next layer's activation quantization needs. The
/// arithmetic is identical either way, so fp32 plans pay nothing.
float add_relu_inplace(float* dst, const float* src, std::int64_t count,
                       bool track_amax) {
  if (!track_amax) {
    for (std::int64_t j = 0; j < count; ++j) {
      dst[j] = std::max(dst[j] + src[j], 0.0f);
    }
    return 0.0f;
  }
  float amax = 0.0f;
  for (std::int64_t j = 0; j < count; ++j) {
    const float v = std::max(dst[j] + src[j], 0.0f);
    dst[j] = v;
    amax = std::max(amax, v);
  }
  return amax;
}

}  // namespace

const char* packed_format_name(PackedFormat format) {
  switch (format) {
    case PackedFormat::kDense: return "dense";
    case PackedFormat::kChannelCompact: return "chan-compact";
    case PackedFormat::kCsr: return "csr";
  }
  return "unknown";
}

PackedFormat choose_packed_format(std::int64_t rows, std::int64_t cols,
                                  std::int64_t nnz, std::int64_t kept_rows,
                                  const CompileOptions& options) {
  if (options.force_format) return *options.force_format;
  if (rows <= 0 || cols <= 0) return PackedFormat::kDense;
  if (kept_rows == 0) return PackedFormat::kChannelCompact;
  const double density = static_cast<double>(nnz) /
                         static_cast<double>(rows * cols);
  const double kept_frac = static_cast<double>(kept_rows) /
                           static_cast<double>(rows);
  // Row-structured sparsity: the surviving rows are mostly dense, so compact
  // them and run the dense kernel at reduced height.
  if (kept_frac <= options.compact_max_row_fraction &&
      density / kept_frac >= 0.5) {
    return PackedFormat::kChannelCompact;
  }
  if (density <= options.csr_max_density) return PackedFormat::kCsr;
  return PackedFormat::kDense;
}

bool csr_runs_taps(std::int64_t nnz, std::int64_t rows, std::int64_t cols,
                   std::int64_t out_pixels) {
  if (rows <= 0 || cols <= 0 || out_pixels <= 0) return true;
  const double density = static_cast<double>(nnz) /
                         static_cast<double>(rows * cols);
  return density <= kCsrTapDensityPerOctave *
                        std::log2(static_cast<double>(out_pixels));
}

// ---- Workspace --------------------------------------------------------------

Workspace::Workspace(const CompiledTicket& plan, int max_batch)
    : max_batch_(std::max(1, max_batch)) {
  const std::int64_t act = plan.max_plane_floats() * max_batch_;
  arena_.assign(static_cast<std::size_t>(3 * act), 0.0f);
  act_[0] = arena_.data();
  act_[1] = arena_.data() + act;
  act_[2] = arena_.data() + 2 * act;
  if (plan.int8_native()) {
    // Quantized-activation staging: one batch of the largest plane (+4
    // bytes per sample so the head can quad-pad its feature rows in place)
    // or of the largest channel-quad conv input, whichever is larger.
    qin_.assign(static_cast<std::size_t>(
                    max_batch_ * std::max(plan.max_plane_floats() + 4,
                                          plan.s8_quad_bytes())),
                0);
    // int32 accumulator: a tap-executed CSR layer's whole-batch row plane
    // and the head's (n, num_classes) logits block drain through it.
    const std::int64_t acc =
        max_batch_ * std::max(plan.max_ohw(),
                              static_cast<std::int64_t>(plan.num_classes()));
    acc_.assign(static_cast<std::size_t>(acc), 0);
  }
}

// ---- PackedConv -------------------------------------------------------------

RT_HOT void PackedConv::run(const float* in, float* out, std::int64_t n,
                            Workspace& ws, float in_amax,
                            float* out_amax) const {
  const std::int64_t ohw = out_h * out_w;
  const std::int64_t stride_w = geom.stride * in_w;
  if (int8_exec) {
    run_s8(in, out, n, ws, in_amax, out_amax);
    return;
  }
  if (format == PackedFormat::kCsr && algo == ConvAlgo::kTaps) {
    // Implicit sparse conv: slide each nonzero tap over the input. All index
    // arithmetic was resolved into the tap at compile time; the batch loop
    // sits INSIDE the tap loop so per-nonzero setup amortizes over the batch
    // and the weight stream stays hot. Outputs start at the folded bias, so
    // no separate add pass is needed.
    const std::int64_t in_f = in_floats(), out_f = out_floats();
    for (std::int64_t r = 0; r < out_ch; ++r) {
      float* yrow = out + r * ohw;
      const float b = bias[static_cast<std::size_t>(r)];
      for (std::int64_t i = 0; i < n; ++i) {
        float* yr = yrow + i * out_f;
        for (std::int64_t j = 0; j < ohw; ++j) yr[j] = b;
      }
      const std::int32_t begin = csr.row_ptr[static_cast<std::size_t>(r)];
      const std::int32_t end = csr.row_ptr[static_cast<std::size_t>(r) + 1];
      for (std::int32_t t = begin; t < end; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        const float v = csr.values[ti];
        const SparseTap& tap = taps[ti];
        const float* __restrict xr = in + tap.x_start;
        float* __restrict yr = yrow + tap.y_start;
        for (std::int64_t i = 0; i < n; ++i, xr += in_f, yr += out_f) {
          const float* __restrict xw = xr;
          float* __restrict yw = yr;
          if (geom.stride == 1) {
            for (std::int32_t oi = 0; oi < tap.rows;
                 ++oi, xw += in_w, yw += out_w) {
              for (std::int32_t oj = 0; oj < tap.cols; ++oj) {
                yw[oj] += v * xw[oj];
              }
            }
          } else {
            for (std::int32_t oi = 0; oi < tap.rows;
                 ++oi, xw += stride_w, yw += out_w) {
              for (std::int32_t oj = 0; oj < tap.cols; ++oj) {
                yw[oj] += v * xw[oj * geom.stride];
              }
            }
          }
        }
      }
      if (relu) {
        for (std::int64_t i = 0; i < n; ++i) {
          float* yr = yrow + i * out_f;
          for (std::int64_t j = 0; j < ohw; ++j) {
            yr[j] = std::max(yr[j], 0.0f);
          }
        }
      }
    }
    return;
  }
  // Every other layer runs the whole batch as one conv2d_forward call: the
  // packed implicit GEMM over the compile-time panels (panel-executed CSR
  // layers included), staging in the Workspace, or the tap loop a
  // compile-time choice put masked dense-format layers on (planes large
  // enough for it). Channel-compact layers compute their kept rows, bias
  // and ReLU fused, into each sample's leading rows and expand them in
  // place.
  const bool compact = format == PackedFormat::kChannelCompact;
  ConvKernelOpts kopts;
  kopts.algo = algo;
  kopts.packed_weights = &prepacked;
  kopts.scratch = &ws.conv_scratch();
  kopts.y_stride = out_floats();
  conv2d_forward(in, n, in_ch, in_h, in_w, geom, weight.data(),
                 compact ? static_cast<std::int64_t>(kept.size()) : out_ch,
                 out, compact ? kept_bias.data() : bias.data(), relu, kopts);
  if (compact) expand_kept_rows(out, n, 0.0f);
}

float PackedConv::expand_kept_rows(float* out, std::int64_t n,
                                   float amax) const {
  // Kept row ki moves to channel kept[ki] >= ki, so walking the channels
  // downward never overwrites a row still to move.
  const std::int64_t ohw = out_h * out_w, out_f = out_floats();
  for (std::int64_t i = 0; i < n; ++i) {
    float* yi = out + i * out_f;
    auto ki = static_cast<std::int64_t>(kept.size()) - 1;
    for (std::int64_t oc = out_ch - 1; oc >= 0; --oc) {
      float* yrow = yi + oc * ohw;
      if (ki >= 0 && kept[static_cast<std::size_t>(ki)] == oc) {
        if (ki != oc) {
          std::memcpy(yrow, yi + ki * ohw,
                      static_cast<std::size_t>(ohw) * sizeof(float));
        }
        --ki;
        continue;
      }
      const float b = bias[static_cast<std::size_t>(oc)];
      const float v = relu ? std::max(b, 0.0f) : b;
      for (std::int64_t j = 0; j < ohw; ++j) yrow[j] = v;
      amax = std::max(amax, std::fabs(v));
    }
  }
  return amax;
}

RT_HOT void PackedConv::run_s8(const float* in, float* out, std::int64_t n,
                               Workspace& ws, float in_amax,
                               float* out_amax) const {
  const std::int64_t ohw = out_h * out_w;
  const std::int64_t in_f = in_floats(), out_f = out_floats();
  const float sx = act_scale_for(in_amax);
  if (out_amax != nullptr) *out_amax = 0.0f;
  if (algo == ConvAlgo::kTaps) {
    // No panels: a CSR layer compile left on the integer tap loop
    // (csr_runs_taps). SIGNED s8 activations: tap windows give border
    // pixels per-pixel tap subsets, so the u8 offset trick's per-row
    // constant correction does not apply here — signed input needs none.
    // Structure mirrors the float tap path (batch inside tap, fixed
    // accumulation order), with one (n, ohw) int32 plane per output row and
    // the requant fused into the row drain. Bitwise deterministic: integer
    // accumulation, one float expression per output.
    std::int8_t* qx = reinterpret_cast<std::int8_t*>(ws.qin());
    quantize_s8(in, n * in_f, sx, qx);
    std::int32_t* acc = ws.acc();
    const std::int64_t stride_w = geom.stride * in_w;
    float amax = out_amax != nullptr ? *out_amax : 0.0f;
    for (std::int64_t r = 0; r < out_ch; ++r) {
      std::memset(acc, 0,
                  static_cast<std::size_t>(n * ohw) * sizeof(std::int32_t));
      const std::int32_t begin = csr.row_ptr[static_cast<std::size_t>(r)];
      const std::int32_t end = csr.row_ptr[static_cast<std::size_t>(r) + 1];
      for (std::int32_t t = begin; t < end; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        const std::int32_t v = qvalues[ti];
        const SparseTap& tap = taps[ti];
        const std::int8_t* __restrict xr = qx + tap.x_start;
        std::int32_t* __restrict yr = acc + tap.y_start;
        for (std::int64_t i = 0; i < n; ++i, xr += in_f, yr += ohw) {
          const std::int8_t* __restrict xw = xr;
          std::int32_t* __restrict yw = yr;
          if (geom.stride == 1 && tap.cols >= 16) {
            // Wide rows amortize the vectorized axpy's call overhead;
            // narrow-plane taps (2-8 columns) stay in the scalar loop below.
            for (std::int32_t oi = 0; oi < tap.rows;
                 ++oi, xw += in_w, yw += out_w) {
              axpy_s8_s32(xw, v, yw, tap.cols);
            }
          } else if (geom.stride == 1) {
            for (std::int32_t oi = 0; oi < tap.rows;
                 ++oi, xw += in_w, yw += out_w) {
              for (std::int32_t oj = 0; oj < tap.cols; ++oj) {
                yw[oj] += v * static_cast<std::int32_t>(xw[oj]);
              }
            }
          } else {
            for (std::int32_t oi = 0; oi < tap.rows;
                 ++oi, xw += stride_w, yw += out_w) {
              for (std::int32_t oj = 0; oj < tap.cols; ++oj) {
                yw[oj] += v * static_cast<std::int32_t>(xw[oj * geom.stride]);
              }
            }
          }
        }
      }
      // Row drain. Wide planes go through the shared vectorized requant
      // epilogue (rows == 1 per call: the per-row fields are all channel
      // r's, no offset correction — the tap path runs signed activations);
      // tiny planes keep a scalar loop, which beats the epilogue's per-call
      // setup at 4-16 outputs.
      if (ohw >= 32) {
        S8Epilogue ep;
        ep.scales = qscales.data() + r;
        ep.act_scale = sx;
        ep.bias = bias.data() + r;
        ep.relu = relu;
        ep.amax = &amax;
        for (std::int64_t i = 0; i < n; ++i) {
          requant_rows(acc + i * ohw, ohw, 1, ohw, ep,
                       out + i * out_f + r * ohw, ohw);
        }
      } else {
        const float s = sx * qscales[static_cast<std::size_t>(r)];
        const float b = bias[static_cast<std::size_t>(r)];
        for (std::int64_t i = 0; i < n; ++i) {
          const std::int32_t* arow = acc + i * ohw;
          float* yrow = out + i * out_f + r * ohw;
          for (std::int64_t j = 0; j < ohw; ++j) {
            float y = std::fma(static_cast<float>(arow[j]), s, b);
            if (relu) y = std::max(y, 0.0f);
            yrow[j] = y;
            amax = std::max(amax, std::fabs(y));
          }
        }
      }
    }
    if (out_amax != nullptr) *out_amax = amax;
    return;
  }
  // Panels: the whole batch as one quantized implicit GEMM over the
  // batch's channel-quad planes, with (sample, pixel) columns amortizing the
  // tile fixed costs that dominate the network's tiny planes. The fused
  // requant epilogue writes straight into the activation buffer: every
  // output row for dense and panel-executed CSR layers, the leading kept
  // rows of each sample for channel-compact ones.
  quantize_u8_quads(in, n, in_ch, in_h, in_w, geom.padding, sx, ws.qin());
  const bool compact = format == PackedFormat::kChannelCompact;
  S8Epilogue ep;
  ep.scales = qexec_scales.data();
  ep.act_scale = sx;
  ep.corr = qpacked.corr();
  ep.bias = compact ? kept_bias.data() : bias.data();
  ep.relu = relu;
  ep.amax = out_amax;
  conv2d_forward_s8(ws.qin(), n, in_ch, in_h, in_w, geom, qpacked.panels(),
                    qoffsets.data(), qpacked.rows(), out, out_f, ep);
  if (!compact) return;
  const float amax =
      expand_kept_rows(out, n, out_amax != nullptr ? *out_amax : 0.0f);
  if (out_amax != nullptr) *out_amax = amax;
}

// ---- PackedLinear -----------------------------------------------------------

RT_HOT void PackedLinear::run(const float* in, float* out, std::int64_t n,
                              Workspace& ws, float in_amax) const {
  if (int8_exec) {
    // Offset-u8 feature rows (quad-padded with the zero encoding) against
    // the prepacked weight slivers; bias fuses into the requant epilogue.
    const std::int64_t k4 = round_up4(in_features);
    const float sx = act_scale_for(in_amax);
    std::uint8_t* qx = ws.qin();
    for (std::int64_t i = 0; i < n; ++i) {
      quantize_u8(in + i * in_features, in_features, sx, qx + i * k4);
      for (std::int64_t p = in_features; p < k4; ++p) qx[i * k4 + p] = 128;
    }
    S8Epilogue ep;
    ep.scales = qscales.data();
    ep.act_scale = sx;
    ep.corr = qcorr.data();
    ep.bias = bias.data();
    gemm_s8_nt(n, out_features, in_features, qx, k4, qslivers.data(),
               ws.acc(), out, ep);
    return;
  }
  if (format == PackedFormat::kCsr) {
    spmm_csr_rhs_t(csr, n, in, out);
  } else {
    gemm_nt(n, out_features, in_features, in, weight.data(), out,
            {.accumulate = false, .parallel = false});
  }
  for (std::int64_t i = 0; i < n; ++i) {
    float* yrow = out + i * out_features;
    for (std::int64_t j = 0; j < out_features; ++j) {
      yrow[j] += bias[static_cast<std::size_t>(j)];
    }
  }
}

// ---- CompiledTicket ---------------------------------------------------------

RT_HOT void CompiledTicket::run(const float* x, std::int64_t n, float* logits,
                                Workspace& ws) const {
  if (n <= 0) return;
  if (n > ws.max_batch()) {
    throw std::invalid_argument("CompiledTicket::run: batch > workspace");
  }
  // int8-native plans thread a per-batch activation amax between layers:
  // each layer's epilogue tracks the max it produced, and the next layer
  // derives its dynamic activation scale from it. Only amaxes a quantized
  // consumer reads are tracked — shortcut branches feed the float add+ReLU,
  // which computes the merged amax itself.
  const bool q8 = int8_native_;
  float a_cur = q8 ? amax_abs(x, n * in_channels_ * height_ * width_) : 0.0f;
  float* const track = q8 ? &a_cur : nullptr;
  stem_.run(x, ws.act(0), n, ws, a_cur, track);
  int cur = 0;
  for (const CompiledBlock& b : blocks_) {
    const int ia = (cur + 1) % 3;
    const int ib = (cur + 2) % 3;
    const float* block_in = ws.act(cur);
    if (!b.c3) {
      // Basic: in -> c1 -> c2; shortcut = in or projection; add + ReLU.
      float a1 = 0.0f;
      b.c1.run(block_in, ws.act(ia), n, ws, a_cur, q8 ? &a1 : nullptr);
      b.c2.run(ws.act(ia), ws.act(ib), n, ws, a1, nullptr);
      const float* shortcut = block_in;
      if (b.down) {
        b.down->run(block_in, ws.act(ia), n, ws, a_cur, nullptr);
        shortcut = ws.act(ia);
      }
      a_cur = add_relu_inplace(ws.act(ib), shortcut, n * b.c2.out_floats(),
                               q8);
      cur = ib;
    } else {
      // Bottleneck: in -> c1 -> c2 -> c3; buffer ia is free again once c2
      // has consumed it, and ib once c3 has.
      float a1 = 0.0f, a2 = 0.0f;
      b.c1.run(block_in, ws.act(ia), n, ws, a_cur, q8 ? &a1 : nullptr);
      b.c2.run(ws.act(ia), ws.act(ib), n, ws, a1, q8 ? &a2 : nullptr);
      b.c3->run(ws.act(ib), ws.act(ia), n, ws, a2, nullptr);
      const float* shortcut = block_in;
      if (b.down) {
        b.down->run(block_in, ws.act(ib), n, ws, a_cur, nullptr);
        shortcut = ws.act(ib);
      }
      a_cur = add_relu_inplace(ws.act(ia), shortcut, n * b.c3->out_floats(),
                               q8);
      cur = ia;
    }
  }
  // Global average pooling into a free buffer, then the head. The pooled
  // features' amax falls out of the same pass for the quantized head.
  const int fi = (cur + 1) % 3;
  const std::int64_t plane = feat_h_ * feat_w_;
  const float inv = 1.0f / static_cast<float>(plane);
  float* feat = ws.act(fi);
  const float* act = ws.act(cur);
  float a_feat = 0.0f;
  for (std::int64_t p = 0; p < n * feature_dim_; ++p) {
    const float* src = act + p * plane;
    float acc = 0.0f;
    for (std::int64_t j = 0; j < plane; ++j) acc += src[j];
    const float v = acc * inv;
    feat[p] = v;
    const float a = std::fabs(v);
    if (a > a_feat) a_feat = a;
  }
  head_.run(feat, logits, n, ws, a_feat);
}

void CompiledTicket::check_input(const Tensor& x) const {
  if (x.ndim() != 4 || x.dim(1) != in_channels_ || x.dim(2) != height_ ||
      x.dim(3) != width_) {
    throw std::invalid_argument(
        "CompiledTicket::predict: input " + x.shape_str() +
        " does not match the compiled geometry");
  }
}

Tensor CompiledTicket::predict(const Tensor& x, Workspace& ws) const {
  check_input(x);
  const std::int64_t n = x.dim(0);
  const std::int64_t plane = in_channels_ * height_ * width_;
  Tensor logits({n, num_classes_});
  for (std::int64_t i = 0; i < n; i += ws.max_batch()) {
    const std::int64_t chunk = std::min<std::int64_t>(ws.max_batch(), n - i);
    run(x.data() + i * plane, chunk, logits.data() + i * num_classes_, ws);
  }
  return logits;
}

std::int64_t CompiledTicket::packed_bytes() const {
  std::int64_t total = 0;
  for (const LayerPlan& l : layers_) total += l.packed_bytes;
  return total;
}

std::int64_t CompiledTicket::prepacked_bytes() const {
  std::int64_t total = 0;
  for (const LayerPlan& l : layers_) total += l.prepacked_bytes;
  return total;
}

std::int64_t CompiledTicket::dense_macs() const {
  std::int64_t total = 0;
  for (const LayerPlan& l : layers_) total += l.dense_macs;
  return total;
}

std::int64_t CompiledTicket::effective_macs() const {
  std::int64_t total = 0;
  for (const LayerPlan& l : layers_) total += l.effective_macs;
  return total;
}

}  // namespace rt
