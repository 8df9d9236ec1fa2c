#pragma once
// The compiled execution plan behind rt::Engine: an immutable, inference-only
// representation of a finished ticket.
//
// Engine::compile (engine/engine.hpp) freezes a ResNet into a CompiledTicket:
//   - conv + batch-norm (+ ReLU) folding: each conv's weights are rescaled by
//     gamma / sqrt(var + eps) and the normalization collapses into a per-
//     channel bias, so inference never touches BatchNorm2d again;
//   - the classifier head compiled as what it is on the pooled features: a
//     1x1 conv on a 1x1 plane, so every plan layer is a PackedConv and runs
//     the same executors;
//   - per-layer weight packing into a shippable encoding chosen from the
//     hw/storage taxonomy: dense row-major, channel-compact (kept rows
//     stored contiguously — the right shape for row/channel-pruned tickets),
//     or CSR for unstructured high sparsity. The encoding is priced, not
//     executed: linalg's one tap rule (conv_prefers_taps) runs each layer on
//     a compile-resolved tap table at O(nonzeros) cost where it says taps
//     win, on weight panels otherwise;
//   - optional int8 weight quantization via hw/quant (symmetric per-channel):
//     the plan carries the int8 values + scales it ships, and by default
//     EXECUTES them natively — weights packed into the int8 kernel layer's
//     quad panels (linalg/gemm_s8, linalg/microkernel_s8), activations
//     quantized per batch from the amax the preceding epilogue tracked,
//     int32 accumulation with fused requant/bias/ReLU epilogues. Setting
//     CompileOptions::int8_native = false keeps the legacy simulated-PTQ
//     float execution (the accuracy reference the parity tests compare
//     against);
//   - frozen input geometry, so every activation extent is known at compile
//     time and a Workspace can pre-allocate all scratch in one arena.
//
// CompiledTicket is strictly read-only after compile: concurrent predictions
// only need a Workspace each (see engine/engine.hpp's Session).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "linalg/gemm_s8.hpp"
#include "nn/conv.hpp"
#include "tensor/tensor.hpp"

namespace rt {

/// Executable weight encodings. These mirror the storage-cost taxonomy in
/// hw/storage.hpp (dense / channel-compact / CSR), but hold fp32 values
/// because that is what the CPU kernels consume; int8 quantization is an
/// orthogonal flag (see CompileOptions::int8_weights).
enum class PackedFormat { kDense, kChannelCompact, kCsr };

const char* packed_format_name(PackedFormat format);

struct CompileOptions {
  /// Frozen input geometry. Serving engines trade shape flexibility for
  /// exact buffer planning; predict() rejects other extents.
  std::int64_t height = 16;
  std::int64_t width = 16;

  /// Per-layer packing override; unset selects per layer from the weight's
  /// zero structure (see choose_packed_format). The encoding is what ships:
  /// a layer of any encoding runs taps or panels (conv_prefers_taps).
  std::optional<PackedFormat> force_format;

  /// Quantize folded weights to 8 bits (symmetric per output channel)
  /// before packing; the plan's byte accounting prices the int8 encoding.
  bool int8_weights = false;
  /// Execute int8 plans natively on the quantized kernel layer (int32
  /// accumulation, dynamic per-batch activation scales) instead of the
  /// legacy simulated-PTQ float path.
  bool int8_native = true;
};

/// Chooses the packed encoding for a folded (rows, cols) weight matrix with
/// the given nonzero count and surviving-row count: channel-compact when at
/// most 95% of the rows survive and they are mostly dense, CSR at density
/// 0.2 or below (~80% sparsity, matching hw/storage), dense otherwise.
PackedFormat choose_packed_format(std::int64_t rows, std::int64_t cols,
                                  std::int64_t nnz, std::int64_t kept_rows,
                                  const CompileOptions& options);

/// Per-layer compilation record, for reporting and format tables.
struct LayerPlan {
  std::string name;
  PackedFormat format = PackedFormat::kDense;
  bool quantized = false;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nnz = 0;
  std::int64_t kept_rows = 0;
  std::int64_t packed_bytes = 0;     ///< executable weights + bias (+ scales)
  /// Host-side micro-kernel panel cache (PackedConv::prepacked): resident
  /// serving memory on top of packed_bytes, but not part of the shippable
  /// encoding — an edge target ships packed_bytes and repacks on device.
  std::int64_t prepacked_bytes = 0;
  std::int64_t dense_macs = 0;       ///< per sample, before sparsity
  std::int64_t effective_macs = 0;   ///< per sample, proportional to nnz
};

class CompiledTicket;

/// Scratch for one in-flight prediction: three rotating full-batch
/// activation buffers carved from one contiguous arena and, for int8-native
/// plans, the quantized-activation and int32 buffers, all sized from the
/// compiled extents, plus the fp32 convs' staging (padded input planes and
/// gathered slivers), which the first predict() grows to the plan's layers.
/// Steady-state predict() calls perform no heap allocation.
class Workspace {
 public:
  Workspace(const CompiledTicket& plan, int max_batch);

  float* act(int i) { return act_[static_cast<std::size_t>(i)]; }
  ConvScratch& conv_scratch() { return conv_; }
  int max_batch() const { return max_batch_; }

  /// int8-native plans only (empty otherwise): the quantized-activation
  /// staging buffer — each layer quantizes its float input batch here in the
  /// flavor its kernel consumes (offset-u8 channel-quad planes for the
  /// implicit-GEMM layers, signed s8 for tap-executed ones).
  std::uint8_t* qin() { return qin_.data(); }
  /// int8-native plans only: the int32 accumulation plane the tap-executed
  /// layers drain through their requant epilogues.
  std::int32_t* acc() { return acc_.data(); }

 private:
  std::vector<float> arena_;
  ConvScratch conv_;
  std::vector<std::uint8_t> qin_;
  std::vector<std::int32_t> acc_;
  float* act_[3] = {nullptr, nullptr, nullptr};
  int max_batch_ = 0;
};

/// A conv with its batch norm folded in, weights packed, and an optional
/// fused ReLU epilogue. The classifier head is one too: a 1x1 conv with
/// stride 1 and no padding on the pooled features' 1x1 plane, its bias the
/// linear layer's.
struct PackedConv {
  std::string name;
  PackedFormat format = PackedFormat::kDense;
  ConvGeometry geom;
  std::int64_t in_ch = 0, out_ch = 0;
  std::int64_t in_h = 0, in_w = 0, out_h = 0, out_w = 0;
  bool relu = false;

  /// The executor, frozen at compile time by linalg's one tap rule
  /// (conv_prefers_taps) on the executed matrix — the kept rows of a
  /// channel-compact layer, all out_ch rows otherwise — whatever the format
  /// or precision. A tap-executed layer carries this table, resolved from
  /// the frozen geometry, and its values in table order: `weight` (fp32) or
  /// `qvalues` (int8-native). A panel-executed layer carries only its
  /// panels: `prepacked` (fp32) or `qpacked` (int8-native).
  ConvTapTable taps;
  /// The executed matrix, row-major, until compile freezes the executor;
  /// then the fp32 tap values in table order, or empty.
  std::vector<float> weight;
  /// fp32 micro-kernel weight panels, packed once at Engine::compile time,
  /// so serve-time calls skip the per-call panel re-pack entirely.
  PackedWeights prepacked;
  std::vector<std::int32_t> kept;  ///< kChannelCompact: surviving channels
  /// kChannelCompact: the folded bias of the kept rows, so the bias fuses
  /// into the kernel epilogue (fp32 or requant) exactly as for a dense layer.
  std::vector<float> kept_bias;
  std::vector<float> bias;         ///< per out_ch, from BN folding

  // Shippable int8 sidecar (populated when CompileOptions::int8_weights):
  // the quantized executed matrix plus a per-output-channel scale. Native
  // tap layers keep their values in table order instead; native panel
  // layers and simulated-int8 layers, which run the fake-quantized floats,
  // keep none.
  std::vector<std::int8_t> qvalues;
  std::vector<float> qscales;

  // True int8 execution (CompileOptions::int8_native): the sidecar packed
  // into executable operands at compile time. Panel layers carry quad
  // panels + offset corrections (qpacked); every native layer carries the
  // per-executed-row scale vector its requant epilogue indexes. Native
  // layers drop the dequantized float weights — the integers ARE the
  // executable.
  bool int8_exec = false;
  PackedS8 qpacked;
  std::vector<float> qexec_scales;
  /// Panel layers: the per-quad byte offsets into the channel-quad input
  /// planes (conv_s8_quad_offsets); qpacked holds the weight in the
  /// matching (ki, kj, channel quad) k order. Empty otherwise.
  std::vector<std::int32_t> qoffsets;

  bool tap_executed() const { return !taps.row_ptr.empty(); }
  std::int64_t in_floats() const { return in_ch * in_h * in_w; }
  std::int64_t out_floats() const { return out_ch * out_h * out_w; }

  /// Runs the folded conv over a batch: in/out are full-batch activation
  /// buffers laid out (n, ch, h, w). Serial by design — Session concurrency
  /// comes from independent predict() calls, not intra-op threading.
  /// int8-native layers additionally take the batch amax of `in` (their
  /// dynamic activation scale) and, when `out_amax` is non-null, report the
  /// batch amax of `out` for the next layer's scale.
  void run(const float* in, float* out, std::int64_t n, Workspace& ws,
           float in_amax = 0.0f, float* out_amax = nullptr) const;

 private:
  /// The int8-native executor behind run(): quantizes the input batch into
  /// the workspace staging buffer and runs the integer tap executor over
  /// the tap table, or the quantized implicit GEMM over channel-quad planes.
  void run_s8(const float* in, float* out, std::int64_t n, Workspace& ws,
              float in_amax, float* out_amax) const;
  /// Channel-compact layers: moves each sample's leading kept rows (final
  /// values) to their channels in place and fills the pruned channels with
  /// relu(bias), a dense layer's output for an all-zero weight row. Returns
  /// the max of `amax` and the fills' magnitudes.
  float expand_kept_rows(float* out, std::int64_t n, float amax) const;
};

/// One residual block: convs fused with their BNs; the shortcut add and
/// final ReLU are applied by the executor.
struct CompiledBlock {
  PackedConv c1, c2;
  std::optional<PackedConv> c3;    ///< bottleneck only
  std::optional<PackedConv> down;  ///< projection shortcut
};

/// The frozen execution plan. Immutable after Engine::compile; safe to share
/// across threads by const reference.
class CompiledTicket {
 public:
  /// Runs n samples (n <= ws.max_batch()) from `x` (n, in_ch, h, w planes,
  /// row-major) writing (n, num_classes) logits to `logits`.
  void run(const float* x, std::int64_t n, float* logits,
           Workspace& ws) const;

  /// Convenience single-shot predict allocating the result tensor; batches
  /// larger than ws.max_batch() are processed in chunks.
  Tensor predict(const Tensor& x, Workspace& ws) const;

  /// Throws unless x is an (n, in_ch, height, width) batch matching the
  /// compiled geometry — the validation predict() applies, exposed for
  /// callers that chunk a batch themselves (Session's scheduler mode).
  void check_input(const Tensor& x) const;

  std::int64_t height() const { return height_; }
  std::int64_t width() const { return width_; }
  std::int64_t in_channels() const { return in_channels_; }
  int num_classes() const { return num_classes_; }
  int feature_dim() const { return feature_dim_; }

  const std::vector<LayerPlan>& layers() const { return layers_; }
  /// Executable (shippable) bytes of all packed weights and biases.
  std::int64_t packed_bytes() const;
  /// Host-resident pre-packed panel bytes on top of packed_bytes().
  std::int64_t prepacked_bytes() const;
  /// Per-sample multiply-accumulate counts summed over all layers.
  std::int64_t dense_macs() const;
  std::int64_t effective_macs() const;

  /// Largest per-sample activation plane across the plan, the pooled
  /// features included (Workspace sizing).
  std::int64_t max_plane_floats() const { return max_plane_floats_; }
  /// Largest layer output spatial plane (Workspace int8 accumulator sizing).
  std::int64_t max_ohw() const { return max_ohw_; }
  /// Per-sample bytes of the largest channel-quad input an int8 panel layer
  /// quantizes into (Workspace::qin sizing); 0 when none does.
  std::int64_t s8_quad_bytes() const { return s8_quad_bytes_; }
  /// True when this plan executes the int8 kernel layer natively (the
  /// Workspace then carves the quantized-activation and int32 arenas).
  bool int8_native() const { return int8_native_; }

 private:
  friend class Engine;

  PackedConv stem_;
  std::vector<CompiledBlock> blocks_;
  PackedConv head_;

  std::int64_t height_ = 0, width_ = 0, in_channels_ = 0;
  std::int64_t feat_h_ = 0, feat_w_ = 0;  ///< spatial extent entering GAP
  int num_classes_ = 0, feature_dim_ = 0;
  std::int64_t max_plane_floats_ = 0, max_ohw_ = 0;
  std::int64_t s8_quad_bytes_ = 0;
  bool int8_native_ = false;
  std::vector<LayerPlan> layers_;
};

}  // namespace rt
