#pragma once
// The int8 register-tiled micro-kernels and quad packing primitives behind
// the quantized conv/head layer (linalg/gemm_s8.hpp, linalg/conv.cpp). One
// 8 x 16 int32 accumulator block stays in registers while a packed A panel
// and the B operand stream through it.
//
// Layout contract (the "quad" is the unit: 4 consecutive k bytes):
//   - A is packed into row panels of kMrS8 rows, quad-major: within one
//     panel, quad q holds rows' bytes a(row0 + i, 4q + t) at
//     ap[q * kMrS8 * 4 + i * 4 + t]. Rows past the matrix edge and k bytes
//     past the matrix depth pack as zeros, so the kernel needs no m/k tail.
//   - The conv's B operand is never packed: quad q of lane j is the four
//     bytes at base + lane[j] + qoff[q] of the channel-quad activation planes
//     (quantize_u8_quads), i.e. one dword per lane — exactly the shape one
//     vpdpbusd consumes. A lane whose 16 quads are consecutive (one stride-1
//     output row run) loads them with one 64-byte load, otherwise one gather.
//   - The kernels compute acc(i, j) = sum_q sum_t a_quad(i, q, t) *
//     b_quad(j, q, t) with exact int32 arithmetic: results are bitwise
//     identical across the VNNI and generic paths, which is what lets
//     sanitizer builds (no -march=native) verify the serving path's bits.
//
// Operand signedness: the AVX512-VNNI vpdpbusd instruction multiplies
// UNSIGNED bytes by SIGNED bytes. Weights stay signed s8; activations are
// quantized to u8 with a +128 offset (stored = q + 128, q in [-127, 127]).
// The offset contributes 128 * sum_k(w_q) per output channel — a constant
// per row, precomputed at pack time and subtracted in the requant epilogue —
// so the corrected accumulator equals the exact signed product.
//
// Two call shapes share the arithmetic:
//   - micro_s8_quads: conv shape — broadcast side is the SIGNED weight
//     panel, vector side 16 lanes of unsigned activation quads.
//   - micro_u8x_block: the head's nt shape — broadcast side is the UNSIGNED
//     activation rows (read row-major, no packing needed: quads are
//     contiguous), vector side the signed weight sliver.

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "linalg/gemm_s8.hpp"

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#define RT_MICROKERNEL_S8_VNNI 1
#include <immintrin.h>
#endif

namespace rt {

// Micro-tile extents for the int8 kernel: 8 rows x 16 int32 lanes (one
// 512-bit accumulator per row), k consumed 4 bytes (one quad) per step.
inline constexpr std::int64_t kMrS8 = 8;
inline constexpr std::int64_t kNrS8 = 16;

namespace detail {

#ifdef RT_MICROKERNEL_S8_VNNI

/// Conv shape: acc(i, j) = sum over kq quads of s8 A quad (row i) dot the
/// u8 quad at base + lane[j] + qoff[q], requantized straight from the
/// registers: rows [0, mr) x lanes [0, nr) of y (leading dimension ldy)
/// receive requant_rows' exact arithmetic, with `ep`'s per-row fields at
/// the panel's first row, and ep.amax (if set) takes their max |y|.
/// vpdpbusd takes the unsigned operand first: the 16 lanes' quads are the
/// vector, each A quad broadcasts as one 32-bit lane. When `run` is set the
/// lanes are one stride-1 row run (lane[j] = lane[0] + 4j), and each quad
/// step is one 64-byte load instead of a gather.
inline void micro_s8_quads(std::int64_t kq, const std::int8_t* __restrict ap,
                           const std::uint8_t* base,
                           const std::int32_t* __restrict qoff,
                           const std::int32_t* __restrict lane, bool run,
                           const S8Epilogue& ep, std::int64_t mr,
                           std::int64_t nr, float* __restrict y,
                           std::int64_t ldy) {
  __m512i c0 = _mm512_setzero_si512(), c1 = c0, c2 = c0, c3 = c0, c4 = c0,
          c5 = c0, c6 = c0, c7 = c0;
  // Each A quad is its own 32-bit load, so the broadcast folds into the
  // vpdpbusd memory operand ({1to16}) instead of costing a shuffle uop.
  const auto aq = [](const std::int8_t* a) {
    std::int32_t v;
    std::memcpy(&v, a, sizeof(v));
    return _mm512_set1_epi32(v);
  };
  const auto step = [&](const __m512i bv, const std::int8_t* a) {
    c0 = _mm512_dpbusd_epi32(c0, bv, aq(a));
    c1 = _mm512_dpbusd_epi32(c1, bv, aq(a + 4));
    c2 = _mm512_dpbusd_epi32(c2, bv, aq(a + 8));
    c3 = _mm512_dpbusd_epi32(c3, bv, aq(a + 12));
    c4 = _mm512_dpbusd_epi32(c4, bv, aq(a + 16));
    c5 = _mm512_dpbusd_epi32(c5, bv, aq(a + 20));
    c6 = _mm512_dpbusd_epi32(c6, bv, aq(a + 24));
    c7 = _mm512_dpbusd_epi32(c7, bv, aq(a + 28));
  };
  if (run) {
    const std::uint8_t* b = base + lane[0];
    for (std::int64_t q = 0; q < kq; ++q) {
      step(_mm512_loadu_si512(b + qoff[q]), ap + q * kMrS8 * 4);
    }
  } else {
    const __m512i vlane = _mm512_loadu_si512(lane);
    for (std::int64_t q = 0; q < kq; ++q) {
      step(_mm512_i32gather_epi32(vlane, base + qoff[q], 1),
           ap + q * kMrS8 * 4);
    }
  }
  // The epilogue of requant_rows' vector path, one register per row.
  const __mmask16 k = static_cast<__mmask16>((1u << nr) - 1u);
  const __m512 vzero = _mm512_setzero_ps();
  const __m512 sign_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  __m512 vamax = vzero;
  const auto requant = [&](std::int64_t r, const __m512i acc) {
    const __m512i a =
        _mm512_sub_epi32(acc, _mm512_set1_epi32(ep.corr ? ep.corr[r] : 0));
    __m512 v = _mm512_fmadd_ps(_mm512_cvtepi32_ps(a),
                               _mm512_set1_ps(ep.act_scale * ep.scales[r]),
                               _mm512_set1_ps(ep.bias ? ep.bias[r] : 0.0f));
    if (ep.relu) v = _mm512_max_ps(v, vzero);
    _mm512_mask_storeu_ps(y + r * ldy, k, v);
    vamax = _mm512_max_ps(vamax,
                          _mm512_and_ps(sign_mask, _mm512_maskz_mov_ps(k, v)));
  };
  const __m512i rows[kMrS8] = {c0, c1, c2, c3, c4, c5, c6, c7};
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < kMrS8; ++r) {
    if (r < mr) requant(r, rows[r]);
  }
  if (ep.amax) *ep.amax = std::max(*ep.amax, _mm512_reduce_max_ps(vamax));
}

/// Head (nt) shape: the broadcast side is unsigned activation rows read
/// row-major (stride ldx; a quad is 4 contiguous bytes, so no A packing),
/// the vector side a signed weight sliver. Rows past mr clamp to the last
/// valid row — their lanes compute garbage the caller discards, without
/// reading out of bounds.
inline void micro_u8x_block(std::int64_t kq, const std::uint8_t* __restrict x,
                            std::int64_t ldx, std::int64_t mr,
                            const std::int8_t* __restrict bp,
                            std::int32_t* __restrict acc) {
  const std::uint8_t* rows[kMrS8];
  for (std::int64_t i = 0; i < kMrS8; ++i) {
    rows[i] = x + (i < mr ? i : mr - 1) * ldx;
  }
  __m512i c0 = _mm512_setzero_si512(), c1 = c0, c2 = c0, c3 = c0, c4 = c0,
          c5 = c0, c6 = c0, c7 = c0;
  for (std::int64_t q = 0; q < kq; ++q) {
    const __m512i wv = _mm512_loadu_si512(bp + q * kNrS8 * 4);
    std::int32_t xq[kMrS8];
    for (int i = 0; i < kMrS8; ++i) {
      std::memcpy(&xq[i], rows[i] + q * 4, 4);
    }
    c0 = _mm512_dpbusd_epi32(c0, _mm512_set1_epi32(xq[0]), wv);
    c1 = _mm512_dpbusd_epi32(c1, _mm512_set1_epi32(xq[1]), wv);
    c2 = _mm512_dpbusd_epi32(c2, _mm512_set1_epi32(xq[2]), wv);
    c3 = _mm512_dpbusd_epi32(c3, _mm512_set1_epi32(xq[3]), wv);
    c4 = _mm512_dpbusd_epi32(c4, _mm512_set1_epi32(xq[4]), wv);
    c5 = _mm512_dpbusd_epi32(c5, _mm512_set1_epi32(xq[5]), wv);
    c6 = _mm512_dpbusd_epi32(c6, _mm512_set1_epi32(xq[6]), wv);
    c7 = _mm512_dpbusd_epi32(c7, _mm512_set1_epi32(xq[7]), wv);
  }
  const __m512i out[kMrS8] = {c0, c1, c2, c3, c4, c5, c6, c7};
  for (int i = 0; i < kMrS8; ++i) {
    _mm512_storeu_si512(acc + i * kNrS8, out[i]);
  }
}

#else  // generic fallback: identical integer semantics, portable ISA

inline void micro_s8_quads(std::int64_t kq, const std::int8_t* __restrict ap,
                           const std::uint8_t* base,
                           const std::int32_t* __restrict qoff,
                           const std::int32_t* __restrict lane, bool /*run*/,
                           const S8Epilogue& ep, std::int64_t mr,
                           std::int64_t nr, float* __restrict y,
                           std::int64_t ldy) {
  std::int32_t acc[kMrS8 * kNrS8] = {};
  for (std::int64_t q = 0; q < kq; ++q) {
    const std::int8_t* a = ap + q * kMrS8 * 4;
    const std::uint8_t* bq = base + qoff[q];
    for (int j = 0; j < kNrS8; ++j) {
      const std::uint8_t* b = bq + lane[j];
      for (int i = 0; i < kMrS8; ++i) {
        acc[i * kNrS8 + j] += a[i * 4] * static_cast<std::int32_t>(b[0]) +
                              a[i * 4 + 1] * static_cast<std::int32_t>(b[1]) +
                              a[i * 4 + 2] * static_cast<std::int32_t>(b[2]) +
                              a[i * 4 + 3] * static_cast<std::int32_t>(b[3]);
      }
    }
  }
  requant_rows(acc, kNrS8, mr, nr, ep, y, ldy);
}

inline void micro_u8x_block(std::int64_t kq, const std::uint8_t* __restrict x,
                            std::int64_t ldx, std::int64_t mr,
                            const std::int8_t* __restrict bp,
                            std::int32_t* __restrict acc) {
  std::memset(acc, 0, static_cast<std::size_t>(kMrS8 * kNrS8) *
                          sizeof(std::int32_t));
  for (std::int64_t q = 0; q < kq; ++q) {
    const std::int8_t* b = bp + q * kNrS8 * 4;
    for (std::int64_t i = 0; i < kMrS8; ++i) {
      const std::uint8_t* xrow = x + (i < mr ? i : mr - 1) * ldx + q * 4;
      std::int32_t* arow = acc + i * kNrS8;
      for (int t = 0; t < 4; ++t) {
        const std::int32_t xv = xrow[t];
        for (int j = 0; j < kNrS8; ++j) {
          arow[j] += xv * static_cast<std::int32_t>(b[j * 4 + t]);
        }
      }
    }
  }
}

#endif  // RT_MICROKERNEL_S8_VNNI

}  // namespace detail

/// Packs a row-major s8 matrix (rows x cols) into consecutive kMrS8 row
/// panels at `ap` (size round_up(rows, kMrS8) * round_up4(cols) bytes).
/// Edge rows and the k tail pack as zeros.
inline void pack_a_quads_s8(const std::int8_t* a, std::int64_t rows,
                            std::int64_t cols, std::int8_t* ap) {
  const std::int64_t cols4 = round_up4(cols);
  for (std::int64_t ir = 0; ir < rows; ir += kMrS8) {
    const std::int64_t m_eff = std::min(kMrS8, rows - ir);
    std::int8_t* panel = ap + ir * cols4;
    for (std::int64_t q = 0; q < cols4 / 4; ++q) {
      std::int8_t* dst = panel + q * kMrS8 * 4;
      for (std::int64_t i = 0; i < kMrS8; ++i) {
        for (std::int64_t t = 0; t < 4; ++t) {
          const std::int64_t k = 4 * q + t;
          dst[i * 4 + t] = (i < m_eff && k < cols)
                               ? a[(ir + i) * cols + k]
                               : std::int8_t{0};
        }
      }
    }
  }
}

}  // namespace rt
