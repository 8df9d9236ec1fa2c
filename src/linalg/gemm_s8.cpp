// True int8 GEMM implementation: see gemm_s8.hpp for the quantization scheme
// and determinism contract, microkernel_s8.hpp for the packed layouts.

#include "linalg/gemm_s8.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/audit.hpp"
#include "linalg/microkernel_s8.hpp"

#if defined(__AVX512F__)
#define RT_S8_AVX512 1
#include <immintrin.h>
// GCC's masked-load intrinsics expand through an undef pass-through operand
// that trips -Wmaybe-uninitialized false positives at -O3 (GCC PR105593).
// The maskz_* forms used here zero the masked lanes by definition.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#endif

namespace rt {

namespace {

/// round + clamp a float to [-127, 127]. The clamp precedes the float→int
/// cast: an out-of-range float→int conversion is UB, which is exactly what
/// the UBSan gate would flag.
inline std::int32_t quantize_clamp(float x, float inv_scale) {
  const float r = std::nearbyintf(x * inv_scale);
  const float c = r < -127.0f ? -127.0f : (r > 127.0f ? 127.0f : r);
  return static_cast<std::int32_t>(c);
}

}  // namespace

float amax_abs(const float* x, std::int64_t n) {
#ifdef RT_S8_AVX512
  const __m512 sign_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  __m512 vm = _mm512_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_max_ps(vm, _mm512_and_ps(sign_mask, _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 k = static_cast<__mmask16>((1u << (n - i)) - 1u);
    vm = _mm512_max_ps(
        vm, _mm512_and_ps(sign_mask, _mm512_maskz_loadu_ps(k, x + i)));
  }
  return _mm512_reduce_max_ps(vm);
#else
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(x[i]));
  }
  return m;
#endif
}

float act_scale_for(float amax) {
  return amax > 0.0f ? amax / 127.0f : 0.0f;
}

RT_HOT void quantize_u8(const float* x, std::int64_t n, float scale,
                        std::uint8_t* q) {
  if (scale <= 0.0f) {
    std::memset(q, 128, static_cast<std::size_t>(n));
    return;
  }
  const float inv = 1.0f / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    q[i] = static_cast<std::uint8_t>(quantize_clamp(x[i], inv) + 128);
  }
}

namespace {

/// Writes one image row of channel-quad planes: `w` quads at `dst`, byte t
/// of quad x quantized from rows[t][x]; a null row is a channel past c and
/// stores the zero encoding.
inline void quantize_quad_row(const float* const rows[4], std::int64_t w,
                              float inv, std::uint8_t* dst) {
#ifdef RT_S8_AVX512
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512 lo = _mm512_set1_ps(-127.0f), hi = _mm512_set1_ps(127.0f);
  const __m512i v128 = _mm512_set1_epi32(128);
  for (std::int64_t x = 0; x < w; x += 16) {
    const __mmask16 k = w - x >= 16
                            ? static_cast<__mmask16>(0xffff)
                            : static_cast<__mmask16>((1u << (w - x)) - 1u);
    __m512i quad = _mm512_setzero_si512();
    for (int t = 0; t < 4; ++t) {
      __m512i b = v128;
      if (rows[t] != nullptr) {
        // quantize_clamp, 16 lanes at a time: the same product, the same
        // round-half-even, and the clamp commutes with rounding because
        // +-127 are integers.
        const __m512 r = _mm512_roundscale_ps(
            _mm512_mul_ps(_mm512_maskz_loadu_ps(k, rows[t] + x), vinv),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        b = _mm512_add_epi32(
            _mm512_cvtps_epi32(_mm512_min_ps(_mm512_max_ps(r, lo), hi)),
            v128);
      }
      quad = _mm512_or_si512(quad, _mm512_slli_epi32(b, 8 * t));
    }
    _mm512_mask_storeu_epi32(dst + x * 4, k, quad);
  }
#else
  for (std::int64_t x = 0; x < w; ++x) {
    for (int t = 0; t < 4; ++t) {
      dst[x * 4 + t] =
          rows[t] == nullptr
              ? std::uint8_t{128}
              : static_cast<std::uint8_t>(quantize_clamp(rows[t][x], inv) +
                                          128);
    }
  }
#endif
}

}  // namespace

RT_HOT void quantize_u8_quads(const float* x, std::int64_t n, std::int64_t c,
                              std::int64_t h, std::int64_t w, std::int64_t pad,
                              float scale, std::uint8_t* q) {
  const std::int64_t cq = (c + 3) / 4, pw = w + 2 * pad;
  if (scale <= 0.0f) {
    std::memset(q, 128, static_cast<std::size_t>(
                            n * s8_quad_plane_bytes(c, h, w, pad)));
    return;
  }
  if (h * w == 1 && pad == 0) {
    // A 1x1 unpadded plane (the head's pooled features): a sample's quads
    // are its channels in order, quantized as one run and padded to whole
    // quads with the zero encoding.
    for (std::int64_t i = 0; i < n; ++i, x += c, q += 4 * cq) {
      quantize_u8(x, c, scale, q);
      std::memset(q + c, 128, static_cast<std::size_t>(4 * cq - c));
    }
    return;
  }
  const float inv = 1.0f / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t g = 0; g < cq; ++g) {
      const float* src = x + (i * c + 4 * g) * h * w;
      // Border runs between two image rows are one memset: the right border
      // of a row and the left border of the next are adjacent.
      std::memset(q, 128, static_cast<std::size_t>((pad * pw + pad) * 4));
      q += (pad * pw + pad) * 4;
      for (std::int64_t y = 0; y < h; ++y) {
        const float* rows[4];
        for (std::int64_t t = 0; t < 4; ++t) {
          rows[t] = 4 * g + t < c ? src + t * h * w + y * w : nullptr;
        }
        quantize_quad_row(rows, w, inv, q);
        q += w * 4;
        const std::int64_t gap = y + 1 < h ? 2 * pad : pad * pw + pad;
        std::memset(q, 128, static_cast<std::size_t>(gap * 4));
        q += gap * 4;
      }
    }
  }
}

RT_HOT void quantize_s8(const float* x, std::int64_t n, float scale,
                        std::int8_t* q) {
  if (scale <= 0.0f) {
    std::memset(q, 0, static_cast<std::size_t>(n));
    return;
  }
  const float inv = 1.0f / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    q[i] = static_cast<std::int8_t>(quantize_clamp(x[i], inv));
  }
}

RT_HOT void requant_rows(const std::int32_t* acc, std::int64_t lda,
                         std::int64_t rows, std::int64_t cols,
                         const S8Epilogue& ep, float* y, std::int64_t ldy) {
  float amax = ep.amax ? *ep.amax : 0.0f;
#ifdef RT_S8_AVX512
  const __m512 sign_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  const __m512 vzero = _mm512_setzero_ps();
  __m512 vamax = vzero;
  for (std::int64_t r = 0; r < rows; ++r) {
    const __m512i vcorr = _mm512_set1_epi32(ep.corr ? ep.corr[r] : 0);
    const __m512 vs = _mm512_set1_ps(ep.act_scale * ep.scales[r]);
    const __m512 vb = _mm512_set1_ps(ep.bias ? ep.bias[r] : 0.0f);
    const std::int32_t* arow = acc + r * lda;
    float* yrow = y + r * ldy;
    std::int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      const __m512i a = _mm512_sub_epi32(
          _mm512_loadu_si512(arow + j), vcorr);
      __m512 v = _mm512_fmadd_ps(_mm512_cvtepi32_ps(a), vs, vb);
      if (ep.relu) v = _mm512_max_ps(v, vzero);
      _mm512_storeu_ps(yrow + j, v);
      vamax = _mm512_max_ps(vamax, _mm512_and_ps(sign_mask, v));
    }
    if (j < cols) {
      const __mmask16 k = static_cast<__mmask16>((1u << (cols - j)) - 1u);
      const __m512i a = _mm512_sub_epi32(
          _mm512_maskz_loadu_epi32(k, arow + j), vcorr);
      __m512 v = _mm512_fmadd_ps(_mm512_cvtepi32_ps(a), vs, vb);
      if (ep.relu) v = _mm512_max_ps(v, vzero);
      _mm512_mask_storeu_ps(yrow + j, k, v);
      // Zero the masked-out lanes before they enter the amax fold: their
      // accumulators were loaded as zero, so v holds bias-only garbage.
      vamax = _mm512_max_ps(
          vamax, _mm512_and_ps(sign_mask, _mm512_maskz_mov_ps(k, v)));
    }
  }
  amax = std::max(amax, _mm512_reduce_max_ps(vamax));
#else
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t corr = ep.corr ? ep.corr[r] : 0;
    const float s = ep.act_scale * ep.scales[r];
    const float b = ep.bias ? ep.bias[r] : 0.0f;
    const std::int32_t* arow = acc + r * lda;
    float* yrow = y + r * ldy;
    for (std::int64_t j = 0; j < cols; ++j) {
      float v = std::fma(static_cast<float>(arow[j] - corr), s, b);
      if (ep.relu && v < 0.0f) v = 0.0f;
      yrow[j] = v;
      amax = std::max(amax, std::fabs(v));
    }
  }
#endif
  if (ep.amax) *ep.amax = amax;
}

RT_HOT void axpy_s8_s32(const std::int8_t* x, std::int32_t v, std::int32_t* y,
                        std::int64_t n) {
#ifdef RT_S8_AVX512
  const __m512i vv = _mm512_set1_epi32(v);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i xi = _mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    const __m512i yi = _mm512_loadu_si512(y + i);
    _mm512_storeu_si512(y + i, _mm512_add_epi32(yi, _mm512_mullo_epi32(xi, vv)));
  }
  if (i < n) {
    const __mmask16 k = static_cast<__mmask16>((1u << (n - i)) - 1u);
    std::int8_t tail[16] = {0};
    std::memcpy(tail, x + i, static_cast<std::size_t>(n - i));
    const __m512i xi = _mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tail)));
    const __m512i yi = _mm512_maskz_loadu_epi32(k, y + i);
    _mm512_mask_storeu_epi32(
        y + i, k, _mm512_add_epi32(yi, _mm512_mullo_epi32(xi, vv)));
  }
#else
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] += v * static_cast<std::int32_t>(x[i]);
  }
#endif
}

void PackedS8::pack(const std::int8_t* q, std::int64_t rows,
                    std::int64_t cols) {
  rows_ = rows;
  cols_ = cols;
  const std::int64_t rows8 = (rows + kMrS8 - 1) / kMrS8 * kMrS8;
  panels_.assign(static_cast<std::size_t>(rows8 * round_up4(cols)), 0);
  pack_a_quads_s8(q, rows, cols, panels_.data());
  corr_.resize(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    corr_[static_cast<std::size_t>(r)] = quad_row_offset_sum(q + r * cols, cols);
  }
}

}  // namespace rt
