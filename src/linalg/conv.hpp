#pragma once
// Convolution kernel layer: fp32 implicit-GEMM forward, input gradient and
// weight gradient over a batch, the sparse tap executors (fp32, and int8
// for serving), the int8 serving forward, and the im2col/col2im reference
// kernels they are verified against.
//
//   forward:  Y (out_ch, n*OH*OW) = W (out_ch, C*k*k) * col(X)
//   dgrad:    per stride phase (py, px) in [0, s)^2, the dx pixels
//             (py + s*u, px + s*v) = W_phase (C, taps*out_ch) * col(dY)
//   wgrad:    dW^T (C*k*k, out_ch) += col(X) * dY^T, depth n*OH*OW
//
// col() is never materialized. Forward and dgrad read B from zero-padded
// sample planes, where row k of a column is the float at a fixed offset
// roff[k] from the column's origin: a kNr-column sliver that is one
// stride-1 row run loads each B row with one vector load, any other sliver
// is gathered once for all weight panels (linalg/microkernel.hpp). dgrad is
// a direct conv of dY with the transposed weight, one per phase: a phase's
// taps are the (ki, kj) with py + pad - ki and px + pad - kj divisible by
// s, reading dY at ((py + pad - ki) / s, (px + pad - kj) / s) from (u, v),
// so every dx pixel is one column and nothing is scattered. wgrad's lanes
// are output channels, B rows dY transposed once; its A values are
// broadcast in place from the same padded planes, one float per (c, ki, kj)
// row and (sample, pixel) depth step, so it gathers nothing either.
//
// Bits: a forward output is the sum of its kKc-deep FMA chunks in ascending
// k order; a dx element adds its taps in ascending (ki, kj) order to its
// prior value, each tap the sum of its kKc-deep chunks over oc (a tap in
// dY's padding adds an exact +0). Neither depends on the batch, the sliver
// split or the load/gather branch. A dW element adds the sum of its
// per-sample kKc-deep chunks over the call's samples to its prior value: it
// depends on which samples share a call, never on the tile split. Nor does
// any of them depend on the lane width kNr, 16 on AVX-512 builds and 8
// otherwise (linalg/microkernel.hpp): a column, or a wgrad output channel,
// runs the same FMA chains in whichever lane of whichever sliver holds it.
// The width changes only which slivers load directly: with 16 lanes an 8x8
// plane's slivers span two rows and gather, and wgrad layers with out_ch
// <= 8 fill half a lane sliver.
//
// Sparse tickets run forward and dgrad on a tap table instead
// (ConvTapTable): one entry per nonzero weight, its valid output window
// resolved once from the weight and the input extent, slid directly over
// the input so zero weights cost nothing. One rule, conv_prefers_taps,
// picks the table or the panels per conv, for Conv2d's training calls and
// Engine::compile's serving layers, fp32 and int8 alike.
//
// The kernels are serial. Callers split the packed forward and dgrad by
// whole slivers and wgrad by its output tiles (ConvKernelOpts::sliver_begin/
// end, one ConvScratch per thread), and the tap executors by samples; no
// split changes a bit.

#include <cstdint>
#include <vector>

#include "linalg/gemm_s8.hpp"

namespace rt {

/// Geometry of a convolution: output size given input size.
struct ConvGeometry {
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 1;
  std::int64_t out_extent(std::int64_t in_extent) const {
    return (in_extent + 2 * padding - kernel) / stride + 1;
  }
};

/// Tap-table crossover, the one constant of the one tap rule. The tap
/// executors cost ~ nnz * OH*OW, scalar on narrow planes; panels cost
/// ~ rows * C*k*k * OH*OW at full SIMD width. Taps win while the density is
/// at or below a crossover that grows with the output plane, which
/// density <= kTapDensityPerOctave * log2(OH*OW) fits (DESIGN.md "The tap
/// rule"). Every conv of the serving benchmark's OMP-90% ticket must keep
/// panels and every conv of a layerwise-98% ticket taps, which bounds it to
/// [0.0100, 0.0184).
inline constexpr double kTapDensityPerOctave = 0.012;

/// True when a conv whose executed (rows, cols) = (output rows, C*k*k)
/// weight holds `nnz` nonzeros and whose output plane has `out_pixels` =
/// OH*OW positions runs the tap table; false when it runs panels. The one
/// definition behind Conv2d's per-call choice and Engine::compile's frozen
/// per-layer choice, for every format and precision. An empty matrix runs
/// taps: there is nothing to pack.
bool conv_prefers_taps(std::int64_t nnz, std::int64_t rows, std::int64_t cols,
                       std::int64_t out_pixels);

/// A conv weight's nonzeros resolved for one input extent: per output row r,
/// taps [row_ptr[r], row_ptr[r + 1]) in ascending weight-column order, and
/// per tap the valid output window of its (c, ki, kj) input tap (a nonzero
/// whose window is empty, reading only padding, gets none). Tap t pairs
/// with value t of a value array in the same order, which resolve() writes
/// (fp32 or int8 for the executors below).
struct ConvTapTable {
  struct Tap {
    std::int32_t x_start;  ///< first in-bounds input, in a sample's planes
    std::int32_t y_start;  ///< first output, in its row's OH*OW plane
    /// Extent of the valid output window. Full-width stride-1 windows over
    /// equal-width planes fold into rows == 1 with cols == rows * width:
    /// input and output are both contiguous there, so the window runs as
    /// one long axpy.
    std::int32_t rows, cols;
  };
  std::vector<std::int32_t> row_ptr;
  std::vector<Tap> taps;
  std::int64_t rows = 0, stride = 1;
  std::int64_t in_w = 0, out_w = 0;
  std::int64_t in_plane = 0;   ///< c_in * h * w
  std::int64_t out_pixels = 0;  ///< OH * OW

  /// Resolves the (out_rows, c_in*k*k) row-major `weight` for (c_in, h, w)
  /// inputs: one O(out_rows * c_in*k*k) scan, one tap and value per nonzero
  /// with a window. Reuses the buffers. Instantiated for float and
  /// std::int8_t.
  template <typename T>
  void resolve(const T* weight, std::int64_t out_rows, std::int64_t c_in,
               std::int64_t h, std::int64_t w, const ConvGeometry& g,
               std::vector<T>& values);
};

/// Weight panels in the packed micro-kernel layout, packed once per weight:
/// per batch in Conv2d, at Engine::compile time in the engine.
class PackedWeights {
 public:
  /// Packs W (out_ch x c_in*k*k) for geometry `g`: `forward` the kMr row
  /// panels of W, `dgrad` each phase's panels of rows c_in and k = (tap,
  /// oc). Either may be skipped to save the memory.
  void pack(const float* weight, std::int64_t out_ch, std::int64_t c_in,
            const ConvGeometry& g, bool forward, bool dgrad);

  bool matches(std::int64_t out_ch, std::int64_t c_in,
               const ConvGeometry& g) const {
    return out_ch == out_ch_ && c_in == c_in_ && g.kernel == g_.kernel &&
           g.stride == g_.stride && g.padding == g_.padding;
  }
  bool has_forward() const { return !fwd_.empty(); }
  bool has_dgrad() const { return !dgrad_.empty(); }
  /// Resident bytes of the packed panels — the memory a plan that retains
  /// this handle pays on top of the raw weights.
  std::int64_t bytes() const {
    return static_cast<std::int64_t>((fwd_.size() + dgrad_.size()) *
                                     sizeof(float));
  }
  /// round_up(out_ch, kMr) row panels of width c_in*k*k.
  const float* forward_panels() const { return fwd_.data(); }
  /// Per stride phase (py, px) with taps, in row-major phase order:
  /// round_up(c_in, kMr) row panels of width taps * out_ch.
  const float* dgrad_panels() const { return dgrad_.data(); }

 private:
  std::vector<float> fwd_;
  std::vector<float> dgrad_;
  std::int64_t out_ch_ = 0;
  std::int64_t c_in_ = 0;
  ConvGeometry g_;
};

/// Staging for the packed kernels. Forward and dgrad: a chunk of
/// zero-padded sample planes (at most 64 KiB, or the samples one sliver
/// spans), one gathered full-depth B sliver and the per-k plane offsets.
/// wgrad: the call's padded planes, its transposed dY slivers and its
/// per-depth and per-row plane offsets. The kernels grow it to each shape
/// they run and it never shrinks, so a reused scratch runs them
/// allocation-free after the first call per shape.
struct ConvScratch {
  std::vector<float> stage, sliver;
  std::vector<std::int32_t> offsets;
  /// Grows each buffer to at least the given size.
  void fit(std::int64_t stage_floats, std::int64_t offset_count,
           std::int64_t sliver_floats);
};

struct ConvKernelOpts {
  /// Pre-packed panels, used when the shape matches, and the staging to run
  /// out of; null or mismatched means call-local ones.
  const PackedWeights* packed_weights = nullptr;
  ConvScratch* scratch = nullptr;
  /// Run only slivers [sliver_begin, sliver_end) of the call's column space
  /// (conv_forward_slivers / conv_dgrad_slivers; for conv2d_wgrad, output
  /// tiles of conv_wgrad_tiles); a negative end runs them all.
  std::int64_t sliver_begin = 0;
  std::int64_t sliver_end = -1;
  /// conv2d_forward: floats between consecutive samples' outputs; 0 means
  /// out_ch * OH * OW.
  std::int64_t y_stride = 0;
};

/// Forward over a batch: y_i (out_ch, OH, OW) = weight (out_ch, C*k*k)
/// applied to x_i (c_in, h, w) for the n samples at x + i * c_in*h*w; y_i
/// starts at y + i * opts.y_stride and is fully overwritten. When `bias` is
/// non-null a per-channel bias is fused into the epilogue, and `relu`
/// additionally clamps at zero — the serving engine's folded conv+BN(+ReLU)
/// epilogue. The column space is (sample, output pixel).
void conv2d_forward(const float* x, std::int64_t n, std::int64_t c_in,
                    std::int64_t h, std::int64_t w, const ConvGeometry& g,
                    const float* weight, std::int64_t out_ch, float* y,
                    const float* bias = nullptr, bool relu = false,
                    const ConvKernelOpts& opts = {});

/// Input gradient over a batch: dx_i (c_in, h, w) += weight^T applied to
/// gout_i (out_ch, OH, OW). Accumulates (callers zero-initialize dx). The
/// column space is each phase's (sample, u, v) in turn.
void conv2d_dgrad(const float* weight, std::int64_t out_ch,
                  const float* gout, std::int64_t n, std::int64_t c_in,
                  std::int64_t h, std::int64_t w, const ConvGeometry& g,
                  float* dx, const ConvKernelOpts& opts = {});

/// Tap-table forward over a batch: y_i (t.rows, OH, OW) for the n samples
/// at x + i * t.in_plane, y_i at y + i * y_stride (0 means t.rows * OH*OW),
/// fully overwritten. Each output row starts at its bias (+0 without one),
/// adds its taps in table order with the batch loop inside the tap loop,
/// and is clamped at zero when `relu`. Serial; a sample's bits do not depend
/// on n.
void conv2d_forward_taps(const ConvTapTable& t, const float* values,
                         const float* x, std::int64_t n, float* y,
                         std::int64_t y_stride, const float* bias, bool relu);

/// Tap-table input gradient over a batch: dx_i (c_in, h, w) += weight^T
/// applied to gout_i (t.rows, OH, OW), the forward's taps with x and y
/// swapped. Accumulates; a dx element adds its taps in table order to its
/// prior value, whatever n is.
void conv2d_dgrad_taps(const ConvTapTable& t, const float* values,
                       const float* gout, std::int64_t n, float* dx);

/// Integer tap-table forward over a batch (serving only): y_i (t.rows, OH,
/// OW) = requant(sum of each row's taps) for the n signed s8 samples at
/// xq + i * t.in_plane, y_i at y + i * y_stride, fully overwritten. Signed
/// activations: a border pixel sums its own subset of taps, so no offset
/// correction applies and `ep.corr` is not read; `ep.scales` and `ep.bias`
/// index table rows. Each row accumulates exactly in int32 into `acc`
/// (caller scratch of n * OH*OW) with the batch loop inside the tap loop,
/// then drains through requant_rows' one fused multiply-add, so the bits
/// depend on neither the ISA nor n.
void conv2d_forward_taps_s8(const ConvTapTable& t, const std::int8_t* values,
                            const std::int8_t* xq, std::int64_t n,
                            std::int32_t* acc, const S8Epilogue& ep, float* y,
                            std::int64_t y_stride);

/// kNr-column slivers in conv2d_forward's / conv2d_dgrad's column space
/// over n samples (dgrad: each phase rounded up to whole slivers).
std::int64_t conv_forward_slivers(std::int64_t n, std::int64_t h,
                                  std::int64_t w, const ConvGeometry& g);
std::int64_t conv_dgrad_slivers(std::int64_t n, std::int64_t h,
                                std::int64_t w, const ConvGeometry& g);

/// True int8 forward (serving only), the one int8 conv entry point: runs a
/// batch of n samples as one implicit GEMM whose column space is (sample,
/// output pixel), with y = requant(W_q (out_ch, C*k*k) * col(X_q)). Sample
/// i's float output (out_ch, OH, OW) starts at y + i * y_stride.
///
/// The input is the batch's channel-quad planes (quantize_u8_quads with
/// pad = g.padding; sample i's start at xq + i * s8_quad_plane_bytes), a
/// layout the VNNI operand reads straight from: each output pixel's four
/// channels at one kernel tap are one dword, so there is no im2col staging.
/// `w_panels` are quad panels (PackedS8) of the weight reordered by
/// conv_s8_quad_weights, and `quad_offsets` the per-quad byte offsets from
/// conv_s8_quad_offsets, both frozen at compile time; the epilogue's per-row
/// fields index output channels. Each 16-column sliver computes its lanes'
/// byte offsets once; every 8-row panel then forms each k quad's operand
/// with one 64-byte load when the sliver is one stride-1 output row run,
/// else with one gather, and accumulates the full depth in registers.
///
/// Serial, allocation-free, bitwise deterministic: integer accumulation and
/// one fused multiply-add per output, so the bits do not depend on n, on the
/// load/gather branch, or on the ISA.
void conv2d_forward_s8(const std::uint8_t* xq, std::int64_t n,
                       std::int64_t c_in, std::int64_t h, std::int64_t w,
                       const ConvGeometry& g, const std::int8_t* w_panels,
                       const std::int32_t* quad_offsets, std::int64_t out_ch,
                       float* y, std::int64_t y_stride, const S8Epilogue& ep);

/// Reorders a row-major s8 conv weight (rows, c_in * k * k), columns in
/// im2col order (c, ki, kj), into the (rows, k * k * ceil(c_in / 4) * 4)
/// matrix conv2d_forward_s8's panels hold: columns (ki, kj, c / 4, c % 4),
/// with zero weights for the channels past c_in that fill the last quad.
/// Compile-time only.
std::vector<std::int8_t> conv_s8_quad_weights(const std::int8_t* q,
                                              std::int64_t rows,
                                              std::int64_t c_in,
                                              std::int64_t kernel);

/// Byte offset of k quad (ki, kj, cq) within one sample's channel-quad
/// planes, relative to an output pixel's top-left tap:
/// ((cq * (h + 2p) + ki) * (w + 2p) + kj) * 4. Compile-time only.
std::vector<std::int32_t> conv_s8_quad_offsets(std::int64_t c_in,
                                               std::int64_t h, std::int64_t w,
                                               const ConvGeometry& g);

/// Weight gradient over a batch: dw (out_ch, C*k*k) += sum over the n
/// samples of gout_i (out_ch, OH, OW) * col(x_i)^T. Gradients are dense
/// regardless of weight masks (masked entries are re-zeroed by the
/// optimizer), so masked layers run it too.
///
/// The packed path computes dW^T as one GEMM of depth n*OH*OW: its kMr x kNr
/// output tiles (8 x 16 on AVX-512 builds, 8 x 8 otherwise) have im2col
/// columns (c, ki, kj) as rows and output channels as lanes. B rows are dY
/// transposed once to (sample, pixel) x out_ch, in kNr-lane slivers. A
/// values are broadcast in place from the samples' zero-padded planes
/// (staged all at once, so callers bound n; unpadded planes are read where
/// they are): row (c, ki, kj) at depth step (i, oi, oj) is the float at
/// (c*ph + ki)*pw + kj + i*plane + (oi*pw + oj)*stride, so nothing is
/// gathered at any plane size or stride. opts.sliver_begin /
/// sliver_end select tiles [begin, end) of conv_wgrad_tiles, ordered by
/// lane sliver, then row panel.
///
/// Bits: each sample's OH*OW depth steps split into kKc-deep FMA chunks
/// (a chunk never spans two samples); a dw element adds, to its prior
/// value, the sum of the call's chunks in ascending (sample, pixel) order.
/// Into a zeroed dw that is the order of per-sample accumulation, chunk by
/// chunk. The bits depend on which samples share a call, never on the tile
/// split.
void conv2d_wgrad(const float* gout, const float* x, std::int64_t n,
                  std::int64_t c_in, std::int64_t h, std::int64_t w,
                  const ConvGeometry& g, std::int64_t out_ch, float* dw,
                  const ConvKernelOpts& opts = {});

/// kMr x kNr output tiles of conv2d_wgrad's dW^T: ceil(c_in*k*k / kMr) row
/// panels times ceil(out_ch / kNr) lane slivers.
std::int64_t conv_wgrad_tiles(std::int64_t c_in, std::int64_t out_ch,
                              const ConvGeometry& g);

/// Reference: expands one (C, H, W) plane at `x` into a full (C*k*k, OH*OW)
/// column buffer, out-of-image taps reading as zero — the parity oracle for
/// the implicit kernels; no hot path calls it.
void im2col_plane(const float* x, std::int64_t c_in, std::int64_t h,
                  std::int64_t w, const ConvGeometry& g, float* col);

/// Reference adjoint of im2col_plane: scatter-adds a full (C*k*k, OH*OW)
/// column gradient into the (c_in, h, w) plane at `dx`.
void col2im_plane_add(const float* col, std::int64_t c_in, std::int64_t h,
                      std::int64_t w, const ConvGeometry& g, float* dx);

/// Number of nonzero entries in `weight` — the `nnz` Conv2d passes to
/// conv_prefers_taps, counted once per call (the weight is shared by every
/// sample).
std::int64_t count_nonzeros(const float* weight, std::int64_t count);

/// Output positions whose input tap at kernel offset `kpos` stays in
/// bounds: the half-open range [o0, o1) (empty => o0 == o1). The boundary
/// math behind ConvTapTable::resolve's windows.
struct TapWindow {
  std::int64_t o0 = 0, o1 = 0;
};
TapWindow tap_window(std::int64_t out_extent, std::int64_t in_extent,
                     std::int64_t kpos, std::int64_t stride, std::int64_t pad);

}  // namespace rt
