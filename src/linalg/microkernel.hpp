#pragma once
// The register-tiled micro-kernel and panel-packing primitives shared by the
// dense GEMM variants (linalg/gemm.cpp) and the fused implicit-GEMM
// convolution kernels (linalg/conv.cpp).
//
// Layout contract (BLIS-style):
//   - A is packed into row panels of kMr rows: within one panel the layout is
//     k-major, ap[p * kMr + i] = op(A)(row0 + i, k0 + p). Rows past the
//     matrix edge are packed as zeros, so the micro-kernel never needs an
//     m-tail; writes for those rows are simply discarded by the caller.
//   - B is packed into column slivers of kNr columns: bp[p * kNr + j] =
//     op(B)(k0 + p, col0 + j), edge columns zero-padded likewise. The conv
//     kernels may instead hand the accumulator a row accessor brow(p) that
//     reads each kNr-float B row in place, or (the weight gradient) a column
//     accessor acol(p) whose kMr A values they read in place (micro_chunk).
//   - The micro-kernel keeps a full kMr x kNr accumulator block in registers,
//     streams one packed A column + one packed B row per k step, and adds the
//     block into C at the end — C traffic is O(mr*nr) per kc panel instead of
//     the O(mr*nr*kc) a row-streaming axpy loop pays.
//
// On GCC/Clang the accumulator block is held in eight named vector-extension
// registers (one kNr-float vector per row), so the k loop is eight
// broadcast-FMAs plus one B load per step with zero C traffic — writing the
// same loop over a float[8][8] array makes GCC spill the block to the stack
// and shuffle it every iteration, which is ~4x slower. Other compilers get a
// scalar fallback with identical semantics (detail::micro_block).
//
// Lane width: kNr is 16 (one zmm register per row) where the translation
// unit is compiled with AVX-512F and 8 otherwise (one ymm register on AVX2).
// 16 lanes on an AVX2 build would split every row over two ymm registers:
// sixteen accumulators plus the B row and a broadcast overflow the 16 ymm
// registers and spill, and the 20 micro-r18 conv shapes' forward, dgrad and
// wgrad ran 4-5x slower that way (DESIGN.md "fp32 micro-tile width"). The
// width never enters the arithmetic: every output element is one FMA chain
// per kKc chunk, summed in ascending k, whichever lane of whichever sliver
// holds it, so 8- and 16-lane builds with FMA give the same bits (a build
// without FMA rounds each product on its own and differs at any width).
// Because kNr depends on the ISA, only translation units compiled with the
// library's flags may include this header (or microkernel_s8.hpp); a test
// or tool compiled otherwise would see another kNr and other inline vector
// helpers.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rt {

// Micro-tile extents (accumulator block is kMr x kNr) and the cache-blocking
// panel sizes shared by every packed kernel: a kKc x kNc B panel (128 KiB)
// stays L2-resident while all A row-panels stream over it.
inline constexpr std::int64_t kMr = 8;
#ifdef __AVX512F__
inline constexpr std::int64_t kNr = 16;
#else
inline constexpr std::int64_t kNr = 8;
#endif
inline constexpr std::int64_t kKc = 128;
inline constexpr std::int64_t kNc = 256;
static_assert(kNc % kNr == 0, "B panels hold whole slivers");

/// Alignment of a kNr-float tile row: one full vector register.
inline constexpr std::size_t kTileAlign = kNr * sizeof(float);

namespace detail {

#if defined(__GNUC__) || defined(__clang__)
#define RT_MICROKERNEL_VECTOR_EXT 1
using VecNr __attribute__((vector_size(kNr * sizeof(float)))) = float;
#endif

/// Computes one k chunk's kMr x kNr block of FMA chains, each from +0, into
/// the row-major `acc` (leading dimension kNr). Step p multiplies A column
/// acol(p) — indexable by row, a packed panel column or values the conv
/// kernels read in place — by B row brow(p), the kNr floats of a packed
/// sliver row or a row the conv kernels read in place. The eight
/// accumulators are separate named values so the register allocator keeps
/// the whole block resident across the k loop.
template <typename ACol, typename BRow>
inline void micro_block(std::int64_t kc, const ACol& acol, const BRow& brow,
                        float* __restrict acc) {
#ifdef RT_MICROKERNEL_VECTOR_EXT
  VecNr c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const auto a = acol(p);
    VecNr bv;
    std::memcpy(&bv, brow(p), sizeof(VecNr));  // unaligned-safe; one load
    c0 += a[0] * bv;
    c1 += a[1] * bv;
    c2 += a[2] * bv;
    c3 += a[3] * bv;
    c4 += a[4] * bv;
    c5 += a[5] * bv;
    c6 += a[6] * bv;
    c7 += a[7] * bv;
  }
  const VecNr rows[kMr] = {c0, c1, c2, c3, c4, c5, c6, c7};
  std::memcpy(acc, rows, sizeof(rows));
#else
  for (std::int64_t t = 0; t < kMr * kNr; ++t) acc[t] = 0.0f;
  for (std::int64_t p = 0; p < kc; ++p) {
    const auto a = acol(p);
    const float* b = brow(p);
    for (int i = 0; i < kMr; ++i) {
      for (int j = 0; j < kNr; ++j) acc[i * kNr + j] += a[i] * b[j];
    }
  }
#endif
}

}  // namespace detail

/// A column of a packed kMr-row panel: acol(p) for micro_block.
struct PanelCol {
  const float* __restrict ap;
  const float* operator()(std::int64_t p) const { return ap + p * kMr; }
};

/// One k chunk of a block with A columns acol(p) and B rows the kNr floats
/// at brow(p) (see micro_block), folded into the row-major block `sum`
/// (leading dimension kNr): sum = +0 + chunk when `first`, else sum +=
/// chunk. A run of chunks over packed panels reproduces, bit for bit,
/// packed_block_multiply's accumulation into a zeroed C.
template <typename ACol, typename BRow>
inline void micro_chunk(std::int64_t kc, const ACol& acol, const BRow& brow,
                        float* __restrict sum, bool first) {
  alignas(kTileAlign) float acc[kMr * kNr];
  detail::micro_block(kc, acol, brow, acc);
  for (std::int64_t t = 0; t < kMr * kNr; ++t) {
    sum[t] = (first ? 0.0f : sum[t]) + acc[t];
  }
}

/// Rounds a count up to whole micro-tiles.
inline constexpr std::int64_t round_up(std::int64_t v, std::int64_t unit) {
  return (v + unit - 1) / unit * unit;
}

/// Packs rows [i0, i0+mb) x cols [k0, k0+kb) of a row-major A (lda == stored
/// column count) into consecutive kMr row panels at `ap` (mb rounded up, zero
/// padded). One panel occupies kb * kMr floats.
inline void pack_a_rows(const float* a, std::int64_t lda, std::int64_t i0,
                        std::int64_t mb, std::int64_t k0, std::int64_t kb,
                        float* ap) {
  for (std::int64_t ir = 0; ir < mb; ir += kMr) {
    const std::int64_t m_eff = (mb - ir) < kMr ? (mb - ir) : kMr;
    float* panel = ap + ir * kb;
    for (std::int64_t p = 0; p < kb; ++p) {
      const float* acol = a + (i0 + ir) * lda + k0 + p;
      float* dst = panel + p * kMr;
      std::int64_t i = 0;
      for (; i < m_eff; ++i) dst[i] = acol[i * lda];
      for (; i < kMr; ++i) dst[i] = 0.0f;
    }
  }
}

/// Same, but op(A) = stored^T: the source is (k, m) row-major and panel rows
/// walk its columns. Packing is where the transpose cost is paid once, after
/// which the micro-kernel is storage-agnostic.
inline void pack_a_rows_trans(const float* a, std::int64_t lda, std::int64_t i0,
                              std::int64_t mb, std::int64_t k0, std::int64_t kb,
                              float* ap) {
  for (std::int64_t ir = 0; ir < mb; ir += kMr) {
    const std::int64_t m_eff = (mb - ir) < kMr ? (mb - ir) : kMr;
    float* panel = ap + ir * kb;
    for (std::int64_t p = 0; p < kb; ++p) {
      const float* arow = a + (k0 + p) * lda + i0 + ir;
      float* dst = panel + p * kMr;
      std::int64_t i = 0;
      for (; i < m_eff; ++i) dst[i] = arow[i];
      for (; i < kMr; ++i) dst[i] = 0.0f;
    }
  }
}

/// Packs rows [k0, k0+kb) x cols [j0, j0+nb) of a row-major B (ldb == stored
/// column count) into consecutive kNr column slivers at `bp` (nb rounded up,
/// zero padded). One sliver occupies kb * kNr floats.
inline void pack_b_cols(const float* b, std::int64_t ldb, std::int64_t k0,
                        std::int64_t kb, std::int64_t j0, std::int64_t nb,
                        float* bp) {
  for (std::int64_t jr = 0; jr < nb; jr += kNr) {
    const std::int64_t n_eff = (nb - jr) < kNr ? (nb - jr) : kNr;
    float* sliver = bp + jr * kb;
    for (std::int64_t p = 0; p < kb; ++p) {
      const float* brow = b + (k0 + p) * ldb + j0 + jr;
      float* dst = sliver + p * kNr;
      if (n_eff == kNr) {
        std::memcpy(dst, brow, kNr * sizeof(float));
      } else {
        std::int64_t j = 0;
        for (; j < n_eff; ++j) dst[j] = brow[j];
        for (; j < kNr; ++j) dst[j] = 0.0f;
      }
    }
  }
}

/// Same, but op(B) = stored^T: the source is (n, k) row-major — the nt/tt
/// weight layout — and slivers gather strided columns. The packed sliver
/// pays the gather exactly once, so nt runs at nn's throughput.
inline void pack_b_cols_trans(const float* b, std::int64_t ldb, std::int64_t k0,
                              std::int64_t kb, std::int64_t j0, std::int64_t nb,
                              float* bp) {
  for (std::int64_t jr = 0; jr < nb; jr += kNr) {
    const std::int64_t n_eff = (nb - jr) < kNr ? (nb - jr) : kNr;
    float* sliver = bp + jr * kb;
    for (std::int64_t j = 0; j < n_eff; ++j) {
      const float* bcol = b + (j0 + jr + j) * ldb + k0;
      float* dst = sliver + j;
      for (std::int64_t p = 0; p < kb; ++p) dst[p * kNr] = bcol[p];
    }
    if (n_eff < kNr) {
      for (std::int64_t j = n_eff; j < kNr; ++j) {
        float* dst = sliver + j;
        for (std::int64_t p = 0; p < kb; ++p) dst[p * kNr] = 0.0f;
      }
    }
  }
}

/// Runs the packed micro-kernel over one (mb x nb) C block given fully
/// packed operands: `ap` holds ceil(mb/kMr) row panels of width kb, `bp`
/// holds ceil(nb/kNr) slivers of depth kb. Each kMr x kNr product block is
/// added into C at its top-left element (leading dimension ldc); the panels
/// are zero-padded, so edge blocks only clip the writeback.
inline void packed_block_multiply(std::int64_t mb, std::int64_t nb,
                                  std::int64_t kb, const float* ap,
                                  const float* bp, float* c,
                                  std::int64_t ldc) {
  alignas(kTileAlign) float acc[kMr * kNr];
  for (std::int64_t ir = 0; ir < mb; ir += kMr) {
    const std::int64_t mr = (mb - ir) < kMr ? (mb - ir) : kMr;
    for (std::int64_t jr = 0; jr < nb; jr += kNr) {
      const std::int64_t nr = (nb - jr) < kNr ? (nb - jr) : kNr;
      const float* bs = bp + jr * kb;
      detail::micro_block(kb, PanelCol{ap + ir * kb},
                          [bs](std::int64_t p) { return bs + p * kNr; }, acc);
      float* cblk = c + ir * ldc + jr;
      if (mr == kMr && nr == kNr) {
        for (int i = 0; i < kMr; ++i) {
          for (int j = 0; j < kNr; ++j) cblk[i * ldc + j] += acc[i * kNr + j];
        }
      } else {
        for (std::int64_t i = 0; i < mr; ++i) {
          for (std::int64_t j = 0; j < nr; ++j) {
            cblk[i * ldc + j] += acc[i * kNr + j];
          }
        }
      }
    }
  }
}

}  // namespace rt
