#pragma once
// 2-D convolution (NCHW) with full backward, running on the kernels in
// linalg/conv.hpp, so all convolution arithmetic (including the sparse tap
// executors) lives in the linalg kernel layer.
//
// Each forward and backward counts the weight's nonzeros once and picks the
// executor for the whole batch with the one tap rule the engine applies
// (conv_prefers_taps). Sparse weights resolve their tap table once per call
// (linalg::ConvTapTable) and run it split by samples. Otherwise the weight
// panels are packed once per call (linalg::PackedWeights) and forward and
// dgrad run as one implicit GEMM over the batch, its slivers split across
// the scheduler's lanes, each lane staging into its own ConvScratch. The
// weight gradient runs one batched GEMM per fixed slot of up to 8 samples
// into per-slot partials, and splits a slot's output tiles across lanes
// when there are fewer slots than lanes. None of the splits changes a bit
// of the result.

#include <cstdint>
#include <memory>
#include <string>

#include "linalg/conv.hpp"
#include "nn/module.hpp"

namespace rt {

/// Convolution layer. Weight layout is (out_ch, in_ch*k*k); column index c
/// decodes as in_ch = c/(k*k), kernel row = (c%(k*k))/k, kernel col = c%k.
/// He-normal initialized. Bias optional (ResNet convs are bias-free).
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         bool with_bias, Rng& rng, std::string name);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }
  const Parameter* bias() const { return has_bias_ ? &bias_ : nullptr; }
  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  const ConvGeometry& geometry() const { return geom_; }

  /// Multiply-accumulate count for one sample at the given input size.
  std::int64_t flops_per_sample(std::int64_t h, std::int64_t w) const;

 private:
  /// Chooses this call's executor for (h, w) inputs and readies it: resolves
  /// taps_ and returns true, or packs the forward (dgrad: per-phase) panels
  /// and returns false.
  bool prepare(std::int64_t h, std::int64_t w, bool dgrad);

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  ConvGeometry geom_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
  /// Batch-shared weight panels (forward, or dgrad's per-phase panels),
  /// re-packed per forward/backward call (the weights change every
  /// optimizer step). Member rather than local so the buffers persist
  /// between steps instead of reallocating.
  PackedWeights packed_weights_;
  /// The tap table and its values, resolved per call the same way.
  ConvTapTable taps_;
  std::vector<float> tap_values_;
};

}  // namespace rt
