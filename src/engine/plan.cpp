#include "engine/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/audit.hpp"
#include "linalg/conv.hpp"
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
  // Unstructured density at or below which a layer ships CSR (~80%
  // sparsity, matching hw/storage), and the kept-row fraction at or below
  // which a row-structured layer ships channel-compact.
  constexpr float kCsrMaxDensity = 0.2f;
  constexpr float kCompactMaxRowFraction = 0.95f;
  if (kept_rows == 0) return PackedFormat::kChannelCompact;
  const double density = static_cast<double>(nnz) /
                         static_cast<double>(rows * cols);
  const double kept_frac = static_cast<double>(kept_rows) /
                           static_cast<double>(rows);
  // Row-structured sparsity: the surviving rows are mostly dense, so compact
  // them and run the dense kernel at reduced height.
  if (kept_frac <= kCompactMaxRowFraction &&
      density / kept_frac >= 0.5) {
    return PackedFormat::kChannelCompact;
  }
  if (density <= kCsrMaxDensity) return PackedFormat::kCsr;
  return PackedFormat::kDense;
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
    // Quantized-activation staging: one batch of the largest plane or of
    // the largest channel-quad layer input, whichever is larger.
    qin_.assign(static_cast<std::size_t>(
                    max_batch_ * std::max(plan.max_plane_floats(),
                                          plan.s8_quad_bytes())),
                0);
    // int32 accumulator: a tap-executed layer's whole-batch row plane
    // drains through it.
    acc_.assign(static_cast<std::size_t>(max_batch_ * plan.max_ohw()), 0);
  }
}

// ---- PackedConv -------------------------------------------------------------

RT_HOT void PackedConv::run(const float* in, float* out, std::int64_t n,
                            Workspace& ws, float in_amax,
                            float* out_amax) const {
  if (int8_exec) {
    run_s8(in, out, n, ws, in_amax, out_amax);
    return;
  }
  // The whole batch in one call: the tap table, or the packed implicit GEMM
  // over the compile-time panels with staging in the Workspace. Channel-
  // compact layers compute their kept rows, bias and ReLU fused, into each
  // sample's leading rows and expand them in place.
  const bool compact = format == PackedFormat::kChannelCompact;
  const float* b = compact ? kept_bias.data() : bias.data();
  if (tap_executed()) {
    conv2d_forward_taps(taps, weight.data(), in, n, out, out_floats(), b,
                        relu);
  } else {
    ConvKernelOpts kopts;
    kopts.packed_weights = &prepacked;
    kopts.scratch = &ws.conv_scratch();
    kopts.y_stride = out_floats();
    conv2d_forward(in, n, in_ch, in_h, in_w, geom, weight.data(),
                   compact ? static_cast<std::int64_t>(kept.size()) : out_ch,
                   out, b, relu, kopts);
  }
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
  const float sx = act_scale_for(in_amax);
  const bool compact = format == PackedFormat::kChannelCompact;
  const float* b = compact ? kept_bias.data() : bias.data();
  float amax = 0.0f;
  S8Epilogue ep;
  ep.scales = qexec_scales.data();
  ep.act_scale = sx;
  ep.bias = b;
  ep.relu = relu;
  ep.amax = out_amax != nullptr ? &amax : nullptr;
  if (tap_executed()) {
    // The integer tap executor over the layer's table, qvalues in table
    // order, on signed s8 activations.
    auto* qx = reinterpret_cast<std::int8_t*>(ws.qin());
    quantize_s8(in, n * in_floats(), sx, qx);
    conv2d_forward_taps_s8(taps, qvalues.data(), qx, n, ws.acc(), ep, out,
                           out_floats());
  } else {
    // Panels: the whole batch as one quantized implicit GEMM over the
    // batch's channel-quad planes, with (sample, pixel) columns amortizing
    // the tile fixed costs that dominate the network's tiny planes. The
    // fused requant epilogue writes straight into the activation buffer:
    // every output row, or the leading kept rows of each sample for
    // channel-compact layers.
    quantize_u8_quads(in, n, in_ch, in_h, in_w, geom.padding, sx, ws.qin());
    ep.corr = qpacked.corr();
    conv2d_forward_s8(ws.qin(), n, in_ch, in_h, in_w, geom, qpacked.panels(),
                      qoffsets.data(), qpacked.rows(), out, out_floats(), ep);
  }
  if (compact) amax = expand_kept_rows(out, n, amax);
  if (out_amax != nullptr) *out_amax = amax;
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
  // Global average pooling into a free buffer, then the head: a 1x1 conv
  // over the (n, feature_dim, 1, 1) features whose (n, num_classes, 1, 1)
  // output is the logits. The pooled features' amax falls out of the same
  // pass for the quantized head.
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
  head_.run(feat, logits, n, ws, a_feat, nullptr);
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
