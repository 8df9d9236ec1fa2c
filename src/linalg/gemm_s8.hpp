#pragma once
// True int8 GEMM: s8 weights x offset-u8 activations with int32 accumulation
// and fused requantization epilogues. This is the execution layer behind the
// engine's int8-native plans (engine/plan.cpp) — the hw/quant values+scales
// sidecar defines the wire format, these kernels execute it without
// dequantizing to float first.
//
// Quantization scheme (matches hw/quant's symmetric fake-quant exactly):
//   weights      q_w = clamp(round(w / s_w), -127, 127)   stored s8
//   activations  q_x = clamp(round(x / s_x), -127, 127)   stored u8 = q_x+128
// The +128 offset exists because the fast path (AVX512-VNNI vpdpbusd)
// multiplies unsigned by signed bytes. The raw accumulator then carries a
// per-output-row constant 128 * sum_k(q_w) — precomputed at pack time and
// subtracted in the epilogue — so the corrected int32 equals the exact
// signed dot product and the whole pipeline is bitwise deterministic: same
// inputs, same plan, same bits, on the VNNI and portable fallback paths
// alike.
//
// Requant epilogue (float fused multiply-add, no shift rounding — exact and
// UBSan-clean): y = fma(acc - corr, s_x * s_w[row], bias[row]), optional
// ReLU, optional running amax tracking (feeds the NEXT layer's dynamic
// activation scale).

#include <cstdint>
#include <vector>

namespace rt {

/// Per-output-row requantization parameters for the fused epilogue. For the
/// nt (head) shape the "row" index runs over C's COLUMNS (output features);
/// the field meanings are otherwise identical.
struct S8Epilogue {
  const float* scales = nullptr;      ///< per-row weight scales s_w
  float act_scale = 0.0f;             ///< activation scale s_x
  const std::int32_t* corr = nullptr; ///< per-row 128 * sum_k(q_w) offset
  const float* bias = nullptr;        ///< optional per-row bias
  bool relu = false;
  /// Optional running max|y| across calls sharing the epilogue (the caller
  /// zero-initializes once per batch); feeds dynamic activation quantization
  /// of the next layer.
  float* amax = nullptr;
};

/// max |x| over n floats (0 for n == 0). The producer side of dynamic
/// per-batch activation quantization.
float amax_abs(const float* x, std::int64_t n);

/// The activation scale for a given batch amax: amax / 127, or 0 when the
/// batch is entirely zero (quantize_* then emit exact zeros and the requant
/// product vanishes, so math stays exact).
float act_scale_for(float amax);

/// Quantizes n floats to offset-u8: clamp(round(x / scale), -127, 127) + 128.
/// scale <= 0 stores the zero encoding (128) everywhere.
void quantize_u8(const float* x, std::int64_t n, float scale,
                 std::uint8_t* q);

/// Quantizes n samples of (c, h, w) float planes into the channel-quad
/// planes the int8 conv kernel reads its operand from (conv2d_forward_s8):
/// per sample, ceil(c / 4) planes of (h + 2 pad) x (w + 2 pad) four-byte
/// quads, where byte t of quad (cq, y, x) is channel 4 * cq + t at pixel
/// (y - pad, x - pad) in quantize_u8's encoding. Border quads and the bytes
/// of channels >= c hold 128, the zero encoding. Writes n *
/// s8_quad_plane_bytes(c, h, w, pad) bytes.
void quantize_u8_quads(const float* x, std::int64_t n, std::int64_t c,
                       std::int64_t h, std::int64_t w, std::int64_t pad,
                       float scale, std::uint8_t* q);

/// Bytes of one sample's channel-quad planes (quantize_u8_quads).
inline std::int64_t s8_quad_plane_bytes(std::int64_t c, std::int64_t h,
                                        std::int64_t w, std::int64_t pad) {
  return (c + 3) / 4 * (h + 2 * pad) * (w + 2 * pad) * 4;
}

/// Quantizes n floats to signed s8 (no offset): the CSR/tap path uses this
/// flavor because border pixels see per-pixel tap subsets, which would make
/// a u8 offset correction non-uniform.
void quantize_s8(const float* x, std::int64_t n, float scale, std::int8_t* q);

/// Applies the requant epilogue to an int32 accumulator block: for each of
/// `rows` rows (leading dimension `lda`) and `cols` columns,
/// y = fma(acc - corr[row], act_scale * scales[row], bias[row]) (one
/// rounding of the product and sum, on every ISA), ReLU, amax. Output rows
/// have leading dimension `ldy`.
void requant_rows(const std::int32_t* acc, std::int64_t lda,
                  std::int64_t rows, std::int64_t cols, const S8Epilogue& ep,
                  float* y, std::int64_t ldy);

/// y[i] += v * x[i] over n signed s8 activations — the quantized CSR tap
/// loop's inner axpy (vectorized where the build allows; exact int32 either
/// way, so results are bitwise identical across paths).
void axpy_s8_s32(const std::int8_t* x, std::int32_t v, std::int32_t* y,
                 std::int64_t n);

/// Prepacked s8 left-hand operand: quad panels (see linalg/microkernel_s8)
/// plus the per-row offset correction. Rows are weight output channels.
class PackedS8 {
 public:
  PackedS8() = default;

  /// Packs a row-major s8 matrix (rows x cols). Allocates; pack at compile
  /// time, never on the serving path.
  void pack(const std::int8_t* q, std::int64_t rows, std::int64_t cols);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }
  const std::int8_t* panels() const { return panels_.data(); }
  const std::int32_t* corr() const { return corr_.data(); }
  /// Resident bytes (panels + corrections) for memory accounting.
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(panels_.size()) +
           static_cast<std::int64_t>(corr_.size()) * 4;
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int8_t> panels_;
  std::vector<std::int32_t> corr_;
};

/// Rounds a k extent up to whole quads.
inline constexpr std::int64_t round_up4(std::int64_t v) {
  return (v + 3) & ~std::int64_t{3};
}

/// The per-row offset correction the requant epilogue subtracts: activations
/// are stored as q + 128, so the raw accumulator carries an extra
/// 128 * sum_k(w_q) per output row. Computed over the SAME padded extent the
/// panels cover (pad weights are zero, so padding never shifts the sum).
inline std::int32_t quad_row_offset_sum(const std::int8_t* row,
                                        std::int64_t cols) {
  std::int32_t s = 0;
  for (std::int64_t k = 0; k < cols; ++k) s += row[k];
  return 128 * s;
}

/// Bytes of the full-depth quad slivers pack_b_quads_s8_nt writes for an
/// (nrows, cols) weight: nrows rounded up to whole 16-lane slivers times
/// round_up4(cols).
std::int64_t s8_nt_sliver_bytes(std::int64_t nrows, std::int64_t cols);

/// Packs a row-major s8 weight (nrows x cols, one source row per output
/// lane: the nt layout) into full-depth 16-lane quad slivers at `bp`
/// (s8_nt_sliver_bytes of them). Edge lanes and the k tail pack as zeros.
/// Compile-time only.
void pack_b_quads_s8_nt(const std::int8_t* b, std::int64_t nrows,
                        std::int64_t cols, std::int8_t* bp);

/// The head shape: C(m,n) float = requant(X_q(m,k) * W_q(n,k)^T). X is
/// offset-u8 row-major with leading dimension ldx >= round_up4(k) (rows
/// quad-padded with the zero encoding 128); W is prepacked full-depth quad
/// slivers (pack_b_quads_s8_nt). Epilogue fields index C's columns (output
/// features), and each output is requant_rows' one fused multiply-add, so
/// the bits do not depend on the ISA. `acc` is caller scratch of at least
/// m * n int32.
void gemm_s8_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::uint8_t* x, std::int64_t ldx,
                const std::int8_t* w_slivers, std::int32_t* acc, float* c,
                const S8Epilogue& ep);

}  // namespace rt
