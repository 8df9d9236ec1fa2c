#include "linalg/conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/audit.hpp"
#include "linalg/microkernel.hpp"
#include "linalg/microkernel_s8.hpp"

namespace rt {

namespace {

// Floats in one staging chunk of zero-padded sample planes (64 KiB).
constexpr std::int64_t kStageFloats = 64 * 1024 / sizeof(float);

// ---- packed implicit GEMM (forward and every dgrad phase) -------------------

/// The B operand's source: n samples of `channels` (h, w) planes, read as
/// (ph, pw) planes with the image at (pad, pad) and zeros around it.
struct PaddedSource {
  const float* x;
  std::int64_t n, channels, h, w;
  std::int64_t pad, ph, pw;

  bool staged() const { return ph != h || pw != w; }
  std::int64_t plane() const { return channels * ph * pw; }

  /// Copies samples [s0, s1) into zero-padded planes at `dst`: padded rows
  /// [y0, ph) of the first sample, [0, y1) of the last, all of the others.
  void stage(std::int64_t s0, std::int64_t s1, std::int64_t y0,
             std::int64_t y1, float* dst) const {
    for (std::int64_t i = s0; i < s1; ++i) {
      const std::int64_t lo = i == s0 ? y0 : 0;
      const std::int64_t hi = i == s1 - 1 ? std::min(y1, ph) : ph;
      for (std::int64_t c = 0; c < channels; ++c) {
        float* d = dst + ((i - s0) * channels + c) * ph * pw;
        const float* from = x + (i * channels + c) * h * w;
        std::memset(d + lo * pw, 0,
                    static_cast<std::size_t>((hi - lo) * pw) * sizeof(float));
        for (std::int64_t r = std::max(lo, pad); r < std::min(hi, pad + h);
             ++r) {
          std::memcpy(d + r * pw + pad, from + (r - pad) * w,
                      static_cast<std::size_t>(w) * sizeof(float));
        }
      }
    }
  }
};

/// Column space: per sample a rows x cols grid. Column (i, r, c) reads B at
/// r * src_row + c * src_col (+ roff[k]) in sample i's padded planes, within
/// the `reach` padded rows from its first, and writes output row m at
/// m * ldo + i * dst_sample + r * dst_row + c * dst_col.
struct ColumnGrid {
  std::int64_t rows, cols;
  std::int64_t src_row, src_col, reach;
  std::int64_t dst_sample, dst_row, dst_col;
};

/// The weight side and the epilogue: m rows in kMr panels of depth k
/// (panel ir at panels + ir * k), whose k splits into equal `group`-deep
/// sums added in ascending order, each the sum of its kKc-deep chunks.
struct PanelOperand {
  const float* panels;
  std::int64_t m, k, group;
  const std::int32_t* roff;
  std::int64_t ldo;
  const float* bias;
  bool relu;
  bool accumulate;  ///< start from the output's value instead of +0
};

/// One sliver: the lanes' source offsets `lane` (from `src`) and output
/// offsets `dst_off`, nr of them real (the rest repeat the last). `direct`
/// lanes are one contiguous run, so B row k is one vector load at
/// src + lane[0] + roff[k]; other slivers gather their full depth into
/// `buf` once for all panels.
RT_HOT void run_sliver(const PanelOperand& op, const float* src,
                       const std::int64_t* lane, bool direct, std::int64_t nr,
                       const std::int64_t* dst_off, float* dst, float* buf) {
  const float* b = src + lane[0];
  if (!direct) {
    for (std::int64_t p = 0; p < op.k; ++p) {
      const float* row = src + op.roff[p];
      float* d = buf + p * kNr;
      for (std::int64_t j = 0; j < kNr; ++j) d[j] = row[lane[j]];
    }
  }
  const bool contiguous =
      nr == kNr && dst_off[kNr - 1] - dst_off[0] == kNr - 1;
  alignas(kTileAlign) float total[kMr * kNr];
  alignas(kTileAlign) float part[kMr * kNr];
  for (std::int64_t ir = 0; ir < op.m; ir += kMr) {
    const std::int64_t mr = std::min(kMr, op.m - ir);
    const float* ap = op.panels + ir * op.k;
    float* out = dst + ir * op.ldo;
    for (std::int64_t i = 0; i < kMr; ++i) {
      for (std::int64_t j = 0; j < kNr; ++j) {
        total[i * kNr + j] =
            op.accumulate && i < mr ? out[i * op.ldo + dst_off[j]] : 0.0f;
      }
    }
    for (std::int64_t g0 = 0; g0 < op.k; g0 += op.group) {
      for (std::int64_t k0 = g0; k0 < g0 + op.group; k0 += kKc) {
        const std::int64_t kb = std::min(kKc, g0 + op.group - k0);
        if (direct) {
          const std::int32_t* ro = op.roff + k0;
          micro_chunk(kb, PanelCol{ap + k0 * kMr},
                      [b, ro](std::int64_t p) { return b + ro[p]; }, part,
                      k0 == g0);
        } else {
          const float* bk = buf + k0 * kNr;
          micro_chunk(kb, PanelCol{ap + k0 * kMr},
                      [bk](std::int64_t p) { return bk + p * kNr; }, part,
                      k0 == g0);
        }
      }
      for (std::int64_t t = 0; t < kMr * kNr; ++t) total[t] += part[t];
    }
    for (std::int64_t i = 0; i < mr; ++i) {
      // total is never -0, so a missing bias adds an exact +0.
      float* v = total + i * kNr;
      const float bi = op.bias != nullptr ? op.bias[ir + i] : 0.0f;
      for (std::int64_t j = 0; j < kNr; ++j) {
        v[j] = op.relu ? std::max(v[j] + bi, 0.0f) : v[j] + bi;
      }
      float* row = out + i * op.ldo;
      if (contiguous) {
        std::memcpy(row + dst_off[0], v, kNr * sizeof(float));
      } else {
        for (std::int64_t j = 0; j < nr; ++j) row[dst_off[j]] = v[j];
      }
    }
  }
}

/// Runs slivers [sl0, sl1) of the grid's column space over `src`'s samples,
/// with op.roff the k offsets fill(roff) writes into the scratch, staging
/// the padded planes chunk by chunk. A chunk ends on a sliver boundary, so
/// every sliver's samples are staged together.
template <typename Fill>
RT_HOT void run_grid(PanelOperand op, const ColumnGrid& grid,
                     const PaddedSource& src, std::int64_t sl0,
                     std::int64_t sl1, float* dst, ConvScratch& scratch,
                     const Fill& fill) {
  const std::int64_t cps = grid.rows * grid.cols;
  const std::int64_t end = std::min(sl1 * kNr, src.n * cps);
  std::int64_t col = sl0 * kNr;
  if (col >= end) return;
  // Samples per staging chunk: as many padded planes as fit kStageFloats,
  // at least one, and never fewer than one sliver spans.
  const std::int64_t plane = src.plane();
  const std::int64_t cap =
      std::min(src.n, std::max(std::max<std::int64_t>(1, kStageFloats / plane),
                               (kNr - 2 + cps) / cps + 1));
  scratch.fit(src.staged() ? cap * plane : 0, op.k, op.k * kNr);
  fill(scratch.offsets.data());
  op.roff = scratch.offsets.data();
  // The next column's sample, grid row and grid column, advanced lane by
  // lane so no lane needs a division.
  std::int64_t i = col / cps, r = col % cps / grid.cols, c = col % grid.cols;
  std::int64_t lane[kNr], dst_off[kNr];
  while (col < end) {
    const std::int64_t s0 = i;
    const std::int64_t lim = std::min(end, std::min(src.n, s0 + cap) * cps);
    const std::int64_t stop = lim == end ? end : col + (lim - col) / kNr * kNr;
    const float* base = src.x + s0 * plane;
    if (src.staged()) {
      // Only the padded rows the chunk's columns read: a split that gives a
      // thread part of a sample stages only that part.
      const std::int64_t step = grid.src_row / src.pw;
      src.stage(s0, (stop - 1) / cps + 1, r * step,
                (stop - 1) % cps / grid.cols * step + grid.reach,
                scratch.stage.data());
      base = scratch.stage.data();
    }
    for (; col < stop; col += kNr) {
      const std::int64_t nr = std::min(kNr, stop - col);
      for (std::int64_t j = 0; j < nr; ++j) {
        lane[j] = (i - s0) * plane + r * grid.src_row + c * grid.src_col;
        dst_off[j] =
            i * grid.dst_sample + r * grid.dst_row + c * grid.dst_col;
        if (++c == grid.cols) {
          c = 0;
          if (++r == grid.rows) {
            r = 0;
            ++i;
          }
        }
      }
      for (std::int64_t j = nr; j < kNr; ++j) {
        lane[j] = lane[nr - 1];
        dst_off[j] = dst_off[nr - 1];
      }
      // Real lanes' offsets strictly increase, so this holds exactly when
      // the lanes are kNr consecutive floats: a stride-1 output-row run, or
      // any run within a sample of an unpadded 1x1 stride-1 conv.
      const bool direct = nr == kNr && lane[kNr - 1] - lane[0] == kNr - 1;
      run_sliver(op, base, lane, direct, nr, dst_off, dst,
                 scratch.sliver.data());
    }
  }
}

/// One stride phase (py, px) of the input gradient with its taps: kernel
/// rows ki0, ki0 + s, ... (nki of them) by columns kj0, kj0 + s, ...
struct Phase {
  std::int64_t py, px, ki0, kj0, nki, nkj;
  std::int64_t taps() const { return nki * nkj; }
};

/// Calls fn(phase) for every phase that has taps, in row-major order — the
/// order of the dgrad panels and of the dgrad sliver space.
template <typename Fn>
void for_each_phase(const ConvGeometry& g, const Fn& fn) {
  const std::int64_t s = g.stride, k = g.kernel;
  const auto count = [&](std::int64_t k0) {
    return k0 < k ? (k - 1 - k0) / s + 1 : 0;
  };
  for (std::int64_t py = 0; py < s; ++py) {
    for (std::int64_t px = 0; px < s; ++px) {
      Phase ph{py, px, (py + g.padding) % s, (px + g.padding) % s, 0, 0};
      ph.nki = count(ph.ki0);
      ph.nkj = count(ph.kj0);
      if (ph.taps() > 0) fn(ph);
    }
  }
}

/// Outputs of a phase along one axis: positions p0, p0 + s, ... < extent.
std::int64_t phase_extent(std::int64_t extent, std::int64_t p0,
                          std::int64_t s) {
  return p0 < extent ? (extent - p0 + s - 1) / s : 0;
}

// ---- weight gradient --------------------------------------------------------

/// A column of dW^T's A operand, read in place: row i's value at this depth
/// step is the float at row[i] + off in the padded planes.
struct PlaneCol {
  const float* const* row;
  std::int32_t off;
  float operator[](std::int64_t i) const { return row[i][off]; }
};

/// The packed path's panels: the caller's when they match, else packed into
/// `local` (allocates).
const PackedWeights& panels_for(const ConvKernelOpts& opts,
                                const float* weight, std::int64_t out_ch,
                                std::int64_t c_in, const ConvGeometry& g,
                                bool dgrad, PackedWeights& local) {
  const PackedWeights* pw = opts.packed_weights;
  if (pw != nullptr && pw->matches(out_ch, c_in, g) &&
      (dgrad ? pw->has_dgrad() : pw->has_forward())) {
    return *pw;
  }
  local.pack(weight, out_ch, c_in, g, !dgrad, dgrad);
  return local;
}

/// Walks one plane's im2col matrix in row-major (c, ki, kj, oi, oj) order,
/// calling fn(entry, input index), the index -1 for out-of-image taps.
template <typename Fn>
void for_each_col(std::int64_t c_in, std::int64_t h, std::int64_t w,
                  const ConvGeometry& g, const Fn& fn) {
  const std::int64_t oh = g.out_extent(h), ow = g.out_extent(w);
  std::int64_t e = 0;
  for (std::int64_t c = 0; c < c_in; ++c) {
    for (std::int64_t ki = 0; ki < g.kernel; ++ki) {
      for (std::int64_t kj = 0; kj < g.kernel; ++kj) {
        for (std::int64_t oi = 0; oi < oh; ++oi) {
          const std::int64_t ii = oi * g.stride - g.padding + ki;
          for (std::int64_t oj = 0; oj < ow; ++oj, ++e) {
            const std::int64_t jj = oj * g.stride - g.padding + kj;
            fn(e, ii >= 0 && ii < h && jj >= 0 && jj < w ? (c * h + ii) * w + jj
                                                         : -1);
          }
        }
      }
    }
  }
}

}  // namespace

// ---- public entry points ----------------------------------------------------

// GCC's AVX512 gather, masked-move and reduction intrinsics expand through
// an undef pass-through operand that trips -Wmaybe-uninitialized false
// positives at -O3 (GCC PR105593). Scoped to the int8 kernel.
#if defined(RT_MICROKERNEL_S8_VNNI) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#define RT_S8_DIAG_PUSHED 1
#endif

RT_HOT void conv2d_forward_s8(
    const std::uint8_t* xq, std::int64_t n, std::int64_t c_in, std::int64_t h,
    std::int64_t w, const ConvGeometry& g, const std::int8_t* w_panels,
    const std::int32_t* quad_offsets, std::int64_t out_ch, float* y,
    std::int64_t y_stride, const S8Epilogue& ep) {
  const std::int64_t oh = g.out_extent(h), ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  if (out_ch <= 0 || ohw <= 0 || n <= 0) return;
  const std::int64_t sample = s8_quad_plane_bytes(c_in, h, w, g.padding);
  const std::int64_t kq = (c_in + 3) / 4 * g.kernel * g.kernel;
  const std::int64_t row_step = g.stride * (w + 2 * g.padding) * 4;
  const std::int64_t col_step = g.stride * 4;
  std::int32_t lane[kNrS8];
  float ytile[kMrS8 * kNrS8];

  // Column = sample * OH*OW + output pixel, in slivers of kNrS8 lanes. The
  // next column's sample, output row and column advance lane by lane, so no
  // lane needs a division.
  const std::int64_t nj = n * ohw;
  std::int64_t i = 0, oi = 0, oj = 0;
  for (std::int64_t j0 = 0; j0 < nj; j0 += kNrS8) {
    const std::int64_t nr = std::min(kNrS8, nj - j0);
    const std::int64_t i0 = i, pix0 = oi * ow + oj;
    // One stride-1 row run: the 16 lanes' quads are consecutive bytes.
    const bool run = g.stride == 1 && oj + kNrS8 <= ow;
    // Lane byte offsets from sample i0's planes (a sliver spans at most 16
    // samples). Tail lanes re-read the last column; the store drops them.
    for (std::int64_t j = 0; j < kNrS8; ++j) {
      if (j >= nr) {
        lane[j] = lane[nr - 1];
        continue;
      }
      lane[j] = static_cast<std::int32_t>((i - i0) * sample + oi * row_step +
                                          oj * col_step);
      if (++oj == ow) {
        oj = 0;
        if (++oi == oh) {
          oi = 0;
          ++i;
        }
      }
    }
    const std::uint8_t* base = xq + i0 * sample;
    // A sliver inside one sample requantizes straight into its activation
    // rows; one that crosses samples goes through a register-sized scratch
    // scattered per sample run.
    const bool inside = pix0 + nr <= ohw;
    for (std::int64_t ir = 0; ir < out_ch; ir += kMrS8) {
      const std::int64_t mr = std::min(kMrS8, out_ch - ir);
      S8Epilogue es = ep;  // per-row fields advanced to channel ir
      es.scales = ep.scales + ir;
      if (ep.corr) es.corr = ep.corr + ir;
      if (ep.bias) es.bias = ep.bias + ir;
      float* yb = y + i0 * y_stride + ir * ohw + pix0;
      detail::micro_s8_quads(kq, w_panels + ir * kq * 4, base, quad_offsets,
                             lane, run, es, mr, nr, inside ? yb : ytile,
                             inside ? ohw : kNrS8);
      if (inside) continue;
      std::int64_t si = i0, pix = pix0;
      for (std::int64_t toff = 0; toff < nr; ++si, pix = 0) {
        const std::int64_t seg = std::min(nr - toff, ohw - pix);
        yb = y + si * y_stride + ir * ohw + pix;
        for (std::int64_t r = 0; r < mr; ++r) {
          std::memcpy(yb + r * ohw, ytile + r * kNrS8 + toff,
                      static_cast<std::size_t>(seg) * sizeof(float));
        }
        toff += seg;
      }
    }
  }
}

#ifdef RT_S8_DIAG_PUSHED
#pragma GCC diagnostic pop
#undef RT_S8_DIAG_PUSHED
#endif

std::vector<std::int8_t> conv_s8_quad_weights(const std::int8_t* q,
                                              std::int64_t rows,
                                              std::int64_t c_in,
                                              std::int64_t kernel) {
  const std::int64_t cq = (c_in + 3) / 4, kk = kernel * kernel;
  const std::int64_t cols = kk * cq * 4;
  std::vector<std::int8_t> out(static_cast<std::size_t>(rows * cols), 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < c_in; ++c) {
      for (std::int64_t p = 0; p < kk; ++p) {
        // Source column (c, ki, kj); destination (ki, kj, c / 4, c % 4).
        out[static_cast<std::size_t>(r * cols + (p * cq + c / 4) * 4 + c % 4)] =
            q[(r * c_in + c) * kk + p];
      }
    }
  }
  return out;
}

std::vector<std::int32_t> conv_s8_quad_offsets(std::int64_t c_in,
                                               std::int64_t h, std::int64_t w,
                                               const ConvGeometry& g) {
  const std::int64_t cq = (c_in + 3) / 4;
  const std::int64_t ph = h + 2 * g.padding, pw = w + 2 * g.padding;
  std::vector<std::int32_t> off;
  off.reserve(static_cast<std::size_t>(g.kernel * g.kernel * cq));
  for (std::int64_t ki = 0; ki < g.kernel; ++ki) {
    for (std::int64_t kj = 0; kj < g.kernel; ++kj) {
      for (std::int64_t c = 0; c < cq; ++c) {
        off.push_back(static_cast<std::int32_t>(((c * ph + ki) * pw + kj) * 4));
      }
    }
  }
  return off;
}

void conv2d_forward(const float* x, std::int64_t n, std::int64_t c_in,
                    std::int64_t h, std::int64_t w, const ConvGeometry& g,
                    const float* weight, std::int64_t out_ch, float* y,
                    const float* bias, bool relu, const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h), ow = g.out_extent(w);
  if (n <= 0 || out_ch <= 0 || oh <= 0 || ow <= 0) return;
  const std::int64_t ohw = oh * ow;
  const std::int64_t y_stride = opts.y_stride > 0 ? opts.y_stride
                                                  : out_ch * ohw;
  PackedWeights local;
  ConvScratch own;
  ConvScratch& scratch = opts.scratch != nullptr ? *opts.scratch : own;
  const std::int64_t ph = h + 2 * g.padding, pw = w + 2 * g.padding;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const PaddedSource src{x, n, c_in, h, w, g.padding, ph, pw};
  const PanelOperand op{
      panels_for(opts, weight, out_ch, c_in, g, false, local).forward_panels(),
      out_ch, ckk, ckk, nullptr, ohw, bias, relu, /*accumulate=*/false};
  const ColumnGrid grid{oh,       ow, g.stride * pw, g.stride, g.kernel,
                        y_stride, ow, 1};
  run_grid(op, grid, src, opts.sliver_begin,
           opts.sliver_end < 0 ? conv_forward_slivers(n, h, w, g)
                               : opts.sliver_end,
           y, scratch, [&](std::int32_t* roff) {
             for (std::int64_t c = 0; c < c_in; ++c) {
               for (std::int64_t ki = 0; ki < g.kernel; ++ki) {
                 for (std::int64_t kj = 0; kj < g.kernel; ++kj) {
                   *roff++ = static_cast<std::int32_t>((c * ph + ki) * pw + kj);
                 }
               }
             }
           });
}

void conv2d_dgrad(const float* weight, std::int64_t out_ch,
                  const float* gout, std::int64_t n, std::int64_t c_in,
                  std::int64_t h, std::int64_t w, const ConvGeometry& g,
                  float* dx, const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h), ow = g.out_extent(w);
  if (n <= 0 || out_ch <= 0 || oh <= 0 || ow <= 0) return;
  PackedWeights local;
  ConvScratch own;
  ConvScratch& scratch = opts.scratch != nullptr ? *opts.scratch : own;
  const std::int64_t s = g.stride;
  const std::int64_t sl0 = opts.sliver_begin;
  const std::int64_t sl1 =
      opts.sliver_end < 0 ? conv_dgrad_slivers(n, h, w, g) : opts.sliver_end;
  // The padded dY every phase reads in place: a phase's outputs u <
  // ceil(h / s) read dY rows u + di with -lo <= di <= hi (likewise columns).
  const std::int64_t lo =
      std::max<std::int64_t>(0, g.kernel - 1 - g.padding + s - 1) / s;
  const std::int64_t hi = (s - 1 + g.padding) / s;
  const PaddedSource src{gout, n, out_ch, oh, ow, lo,
                         lo + std::max(oh, (h + s - 1) / s + hi),
                         lo + std::max(ow, (w + s - 1) / s + hi)};
  const float* ap =
      panels_for(opts, weight, out_ch, c_in, g, true, local).dgrad_panels();
  std::int64_t first = 0;  // the phase's first sliver in the call's space
  for_each_phase(g, [&](const Phase& p) {
    const std::int64_t kp = p.taps() * out_ch;
    const float* panels = ap;
    ap += round_up(c_in, kMr) * kp;
    const std::int64_t rows = phase_extent(h, p.py, s);
    const std::int64_t cols = phase_extent(w, p.px, s);
    if (rows <= 0 || cols <= 0) return;
    const std::int64_t slivers = (n * rows * cols + kNr - 1) / kNr;
    const std::int64_t b0 = std::max<std::int64_t>(sl0 - first, 0);
    const std::int64_t b1 = std::min(sl1 - first, slivers);
    first += slivers;
    if (b0 >= b1) return;
    const PanelOperand op{panels, c_in,  kp,    out_ch, nullptr,
                          h * w,  nullptr, false, /*accumulate=*/true};
    const ColumnGrid grid{rows,         cols,  src.pw, 1, lo + hi + 1,
                          c_in * h * w, s * w, s};
    run_grid(op, grid, src, b0, b1, dx + p.py * w + p.px, scratch,
             [&](std::int32_t* roff) {
               for (std::int64_t a = 0; a < p.nki; ++a) {
                 const std::int64_t di = (p.py + g.padding - p.ki0) / s - a;
                 for (std::int64_t b = 0; b < p.nkj; ++b) {
                   const std::int64_t dj = (p.px + g.padding - p.kj0) / s - b;
                   for (std::int64_t oc = 0; oc < out_ch; ++oc) {
                     *roff++ = static_cast<std::int32_t>(
                         (oc * src.ph + lo + di) * src.pw + lo + dj);
                   }
                 }
               }
             });
  });
}

// ---- tap table --------------------------------------------------------------

template <typename T>
void ConvTapTable::resolve(const T* weight, std::int64_t out_rows,
                           std::int64_t c_in, std::int64_t h, std::int64_t w,
                           const ConvGeometry& g, std::vector<T>& values) {
  const std::int64_t k = g.kernel, s = g.stride, pad = g.padding;
  const std::int64_t oh = g.out_extent(h), ckk = c_in * k * k;
  rows = out_rows;
  stride = s;
  in_w = w;
  out_w = g.out_extent(w);
  in_plane = c_in * h * w;
  out_pixels = oh * out_w;
  row_ptr.assign(1, 0);
  taps.clear();
  values.clear();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t col = 0; col < ckk; ++col) {
      const T v = weight[r * ckk + col];
      if (v == T{0}) continue;
      // Column (c, ki, kj): the input tap's first in-bounds output and the
      // output window whose input taps stay in bounds.
      const std::int64_t c = col / (k * k), ki = col % (k * k) / k;
      const std::int64_t kj = col % k;
      const TapWindow wi = tap_window(oh, h, ki, s, pad);
      const TapWindow wj = tap_window(out_w, w, kj, s, pad);
      if (wi.o1 == wi.o0 || wj.o1 == wj.o0) continue;  // reads only padding
      Tap tap;
      tap.x_start = static_cast<std::int32_t>(
          c * h * w + (wi.o0 * s - pad + ki) * w + wj.o0 * s - pad + kj);
      tap.y_start = static_cast<std::int32_t>(wi.o0 * out_w + wj.o0);
      tap.rows = static_cast<std::int32_t>(wi.o1 - wi.o0);
      tap.cols = static_cast<std::int32_t>(wj.o1 - wj.o0);
      if (s == 1 && tap.cols == out_w && w == out_w) {
        tap.cols *= tap.rows;
        tap.rows = 1;
      }
      taps.push_back(tap);
      values.push_back(v);
    }
    row_ptr.push_back(static_cast<std::int32_t>(taps.size()));
  }
}

template void ConvTapTable::resolve(const float*, std::int64_t, std::int64_t,
                                    std::int64_t, std::int64_t,
                                    const ConvGeometry&, std::vector<float>&);
template void ConvTapTable::resolve(const std::int8_t*, std::int64_t,
                                    std::int64_t, std::int64_t, std::int64_t,
                                    const ConvGeometry&,
                                    std::vector<std::int8_t>&);

namespace {

/// Slides one tap of output row r over n samples: forward y += v * x,
/// dgrad (kDgrad) dx += v * dy, the x side stepping by the stride. `src` and
/// `dst` are sample 0 of the side read and the side written, `src_step` and
/// `dst_step` their per-sample strides.
template <bool kDgrad>
RT_HOT void slide_tap(const ConvTapTable& t, const ConvTapTable::Tap& tap,
                      std::int64_t r, float v, const float* src,
                      std::int64_t src_step, float* dst, std::int64_t dst_step,
                      std::int64_t n) {
  const std::int64_t xo = tap.x_start, yo = r * t.out_pixels + tap.y_start;
  const std::int64_t x_row = t.stride * t.in_w, s = t.stride;
  const float* __restrict a = src + (kDgrad ? yo : xo);
  float* __restrict d = dst + (kDgrad ? xo : yo);
  for (std::int64_t i = 0; i < n; ++i, a += src_step, d += dst_step) {
    const float* __restrict aw = a;
    float* __restrict dw = d;
    for (std::int32_t oi = 0; oi < tap.rows; ++oi) {
      if (s == 1) {
        for (std::int32_t j = 0; j < tap.cols; ++j) dw[j] += v * aw[j];
      } else if (kDgrad) {
        for (std::int32_t j = 0; j < tap.cols; ++j) dw[j * s] += v * aw[j];
      } else {
        for (std::int32_t j = 0; j < tap.cols; ++j) dw[j] += v * aw[j * s];
      }
      aw += kDgrad ? t.out_w : x_row;
      dw += kDgrad ? x_row : t.out_w;
    }
  }
}

}  // namespace

RT_HOT void conv2d_forward_taps(const ConvTapTable& t, const float* values,
                                const float* x, std::int64_t n, float* y,
                                std::int64_t y_stride, const float* bias,
                                bool relu) {
  // All index arithmetic was resolved into the taps; the batch loop sits
  // INSIDE the tap loop so per-nonzero setup amortizes over the batch and
  // the weight stream stays hot. Outputs start at the bias, so no separate
  // add pass is needed.
  const std::int64_t ohw = t.out_pixels;
  if (y_stride <= 0) y_stride = t.rows * ohw;
  for (std::int64_t r = 0; r < t.rows; ++r) {
    const float b = bias != nullptr ? bias[r] : 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      std::fill_n(y + i * y_stride + r * ohw, ohw, b);
    }
    for (std::int32_t k = t.row_ptr[static_cast<std::size_t>(r)];
         k < t.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      slide_tap<false>(t, t.taps[static_cast<std::size_t>(k)], r, values[k],
                       x, t.in_plane, y, y_stride, n);
    }
    if (!relu) continue;
    for (std::int64_t i = 0; i < n; ++i) {
      float* yr = y + i * y_stride + r * ohw;
      for (std::int64_t j = 0; j < ohw; ++j) yr[j] = std::max(yr[j], 0.0f);
    }
  }
}

RT_HOT void conv2d_dgrad_taps(const ConvTapTable& t, const float* values,
                              const float* gout, std::int64_t n, float* dx) {
  for (std::int64_t r = 0; r < t.rows; ++r) {
    for (std::int32_t k = t.row_ptr[static_cast<std::size_t>(r)];
         k < t.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      slide_tap<true>(t, t.taps[static_cast<std::size_t>(k)], r, values[k],
                      gout, t.rows * t.out_pixels, dx, t.in_plane, n);
    }
  }
}

RT_HOT void conv2d_forward_taps_s8(const ConvTapTable& t,
                                   const std::int8_t* values,
                                   const std::int8_t* xq, std::int64_t n,
                                   std::int32_t* acc, const S8Epilogue& ep,
                                   float* y, std::int64_t y_stride) {
  // The fp32 forward's structure (batch inside tap, fixed accumulation
  // order) with one (n, OH*OW) int32 plane per output row and the requant
  // fused into the row drain.
  const std::int64_t ohw = t.out_pixels, x_row = t.stride * t.in_w;
  for (std::int64_t r = 0; r < t.rows; ++r) {
    std::memset(acc, 0, static_cast<std::size_t>(n * ohw) * sizeof(*acc));
    for (std::int32_t k = t.row_ptr[static_cast<std::size_t>(r)];
         k < t.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const ConvTapTable::Tap& tap = t.taps[static_cast<std::size_t>(k)];
      const std::int32_t v = values[k];
      const std::int8_t* __restrict xr = xq + tap.x_start;
      std::int32_t* __restrict yr = acc + tap.y_start;
      for (std::int64_t i = 0; i < n; ++i, xr += t.in_plane, yr += ohw) {
        const std::int8_t* __restrict xw = xr;
        std::int32_t* __restrict yw = yr;
        if (t.stride == 1 && tap.cols >= 16) {
          // Wide rows amortize the vectorized axpy's call overhead;
          // narrow-plane taps (2-8 columns) stay in the scalar loops below.
          for (std::int32_t oi = 0; oi < tap.rows;
               ++oi, xw += x_row, yw += t.out_w) {
            axpy_s8_s32(xw, v, yw, tap.cols);
          }
        } else if (t.stride == 1) {
          for (std::int32_t oi = 0; oi < tap.rows;
               ++oi, xw += x_row, yw += t.out_w) {
            for (std::int32_t j = 0; j < tap.cols; ++j) yw[j] += v * xw[j];
          }
        } else {
          for (std::int32_t oi = 0; oi < tap.rows;
               ++oi, xw += x_row, yw += t.out_w) {
            for (std::int32_t j = 0; j < tap.cols; ++j) {
              yw[j] += v * xw[j * t.stride];
            }
          }
        }
      }
    }
    // Row drain: wide planes through the vectorized requant epilogue, one
    // row per call (no offset correction); tiny planes in a scalar loop,
    // which beats the epilogue's per-call setup at 4-16 outputs. Both are
    // the same fused multiply-add.
    const float b = ep.bias != nullptr ? ep.bias[r] : 0.0f;
    S8Epilogue row_ep = ep;
    row_ep.scales = ep.scales + r;
    row_ep.corr = nullptr;
    row_ep.bias = &b;
    const float s = ep.act_scale * ep.scales[r];
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int32_t* arow = acc + i * ohw;
      float* yrow = y + i * y_stride + r * ohw;
      if (ohw >= 32) {
        requant_rows(arow, ohw, 1, ohw, row_ep, yrow, ohw);
        continue;
      }
      for (std::int64_t j = 0; j < ohw; ++j) {
        float v = std::fma(static_cast<float>(arow[j]), s, b);
        if (ep.relu) v = std::max(v, 0.0f);
        yrow[j] = v;
        if (ep.amax != nullptr) *ep.amax = std::max(*ep.amax, std::fabs(v));
      }
    }
  }
}

std::int64_t conv_forward_slivers(std::int64_t n, std::int64_t h,
                                  std::int64_t w, const ConvGeometry& g) {
  return (n * g.out_extent(h) * g.out_extent(w) + kNr - 1) / kNr;
}

std::int64_t conv_dgrad_slivers(std::int64_t n, std::int64_t h,
                                std::int64_t w, const ConvGeometry& g) {
  std::int64_t slivers = 0;
  for_each_phase(g, [&](const Phase& p) {
    slivers += (n * phase_extent(h, p.py, g.stride) *
                    phase_extent(w, p.px, g.stride) +
                kNr - 1) /
               kNr;
  });
  return slivers;
}

std::int64_t conv_wgrad_tiles(std::int64_t c_in, std::int64_t out_ch,
                              const ConvGeometry& g) {
  return (c_in * g.kernel * g.kernel + kMr - 1) / kMr *
         ((out_ch + kNr - 1) / kNr);
}

RT_HOT void conv2d_wgrad(const float* gout, const float* x, std::int64_t n,
                         std::int64_t c_in, std::int64_t h, std::int64_t w,
                         const ConvGeometry& g, std::int64_t out_ch, float* dw,
                         const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h), ow = g.out_extent(w);
  if (n <= 0 || out_ch <= 0 || oh <= 0 || ow <= 0) return;
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const std::int64_t panels = (ckk + kMr - 1) / kMr;
  const std::int64_t t0 = opts.sliver_begin;
  const std::int64_t t1 = opts.sliver_end < 0
                              ? conv_wgrad_tiles(c_in, out_ch, g)
                              : opts.sliver_end;
  if (t0 >= t1) return;
  ConvScratch own;
  ConvScratch& scratch = opts.scratch != nullptr ? *opts.scratch : own;
  // The lane slivers (kNr output channels each) the tiles touch.
  const std::int64_t l0 = t0 / panels, l1 = (t1 - 1) / panels + 1;
  const std::int64_t depth = n * ohw;
  const std::int64_t ph = h + 2 * g.padding, pw = w + 2 * g.padding;
  const PaddedSource src{x, n, c_in, h, w, g.padding, ph, pw};
  scratch.fit(src.staged() ? n * src.plane() : 0, depth + ckk,
              (l1 - l0) * depth * kNr);
  const float* base = x;
  if (src.staged()) {
    src.stage(0, n, 0, ph, scratch.stage.data());
    base = scratch.stage.data();
  }
  // Depth step (i, oi, oj) reads every row at pix from the row's offset
  // roff[(c, ki, kj)] in the padded planes.
  std::int32_t* pix = scratch.offsets.data();
  std::int32_t* roff = pix + depth;
  for (std::int64_t i = 0, p = 0; i < n; ++i) {
    for (std::int64_t oi = 0; oi < oh; ++oi) {
      for (std::int64_t oj = 0; oj < ow; ++oj, ++p) {
        pix[p] = static_cast<std::int32_t>(i * src.plane() +
                                           (oi * pw + oj) * g.stride);
      }
    }
  }
  for (std::int64_t c = 0, r = 0; c < c_in; ++c) {
    for (std::int64_t ki = 0; ki < g.kernel; ++ki) {
      for (std::int64_t kj = 0; kj < g.kernel; ++kj, ++r) {
        roff[r] = static_cast<std::int32_t>((c * ph + ki) * pw + kj);
      }
    }
  }
  // B: dY transposed once into depth x kNr slivers, lanes past out_ch zero.
  float* bt = scratch.sliver.data();
  for (std::int64_t l = l0; l < l1; ++l) {
    const std::int64_t nr = std::min(kNr, out_ch - l * kNr);
    float* bs = bt + (l - l0) * depth * kNr;
    if (nr < kNr) std::fill(bs, bs + depth * kNr, 0.0f);
    for (std::int64_t i = 0; i < n; ++i) {
      float* d = bs + i * ohw * kNr;
      for (std::int64_t j = 0; j < nr; ++j) {
        const float* row = gout + (i * out_ch + l * kNr + j) * ohw;
        for (std::int64_t q = 0; q < ohw; ++q) d[q * kNr + j] = row[q];
      }
    }
  }
  alignas(kTileAlign) float total[kMr * kNr];
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int64_t l = t / panels, r0 = t % panels * kMr;
    const std::int64_t mr = std::min(kMr, ckk - r0);
    const std::int64_t nr = std::min(kNr, out_ch - l * kNr);
    // Rows past ckk repeat the last one; their sums are dropped.
    const float* rows[kMr];
    for (std::int64_t i = 0; i < kMr; ++i) {
      rows[i] = base + roff[std::min(r0 + i, ckk - 1)];
    }
    const float* bs = bt + (l - l0) * depth * kNr;
    // kKc-deep chunks that never span two samples.
    for (std::int64_t k0 = 0; k0 < depth;) {
      const std::int64_t kb = std::min(kKc, ohw - k0 % ohw);
      const std::int32_t* pk = pix + k0;
      const float* bk = bs + k0 * kNr;
      micro_chunk(
          kb, [&rows, pk](std::int64_t p) { return PlaneCol{rows, pk[p]}; },
          [bk](std::int64_t p) { return bk + p * kNr; }, total, k0 == 0);
      k0 += kb;
    }
    for (std::int64_t j = 0; j < nr; ++j) {
      float* d = dw + (l * kNr + j) * ckk + r0;
      for (std::int64_t i = 0; i < mr; ++i) d[i] += total[i * kNr + j];
    }
  }
}

void PackedWeights::pack(const float* weight, std::int64_t out_ch,
                         std::int64_t c_in, const ConvGeometry& g,
                         bool forward, bool dgrad) {
  out_ch_ = out_ch;
  c_in_ = c_in;
  g_ = g;
  const std::int64_t k = g.kernel, ckk = c_in * k * k;
  const std::int64_t rows = round_up(c_in, kMr);
  fwd_.resize(forward ? static_cast<std::size_t>(round_up(out_ch, kMr) * ckk)
                      : 0);
  if (forward) pack_a_rows(weight, ckk, 0, out_ch, 0, ckk, fwd_.data());
  dgrad_.assign(dgrad ? static_cast<std::size_t>(rows * k * k * out_ch) : 0,
                0.0f);
  if (!dgrad) return;
  // Phase (py, px)'s panels: A(c, (tap, oc)) = W(oc, (c, ki, kj)) over the
  // phase's taps in ascending (ki, kj) order; rows past c_in are zero.
  float* dst = dgrad_.data();
  for_each_phase(g, [&](const Phase& p) {
    const std::int64_t kp = p.taps() * out_ch;
    for (std::int64_t c = 0; c < c_in; ++c) {
      float* panel = dst + c / kMr * kMr * kp + c % kMr;
      std::int64_t col = 0;
      for (std::int64_t a = 0; a < p.nki; ++a) {
        for (std::int64_t b = 0; b < p.nkj; ++b) {
          const std::int64_t tap = (c * k + p.ki0 + a * g.stride) * k +
                                   p.kj0 + b * g.stride;
          for (std::int64_t oc = 0; oc < out_ch; ++oc, ++col) {
            panel[col * kMr] = weight[oc * ckk + tap];
          }
        }
      }
    }
    dst += rows * kp;
  });
}

void ConvScratch::fit(std::int64_t stage_floats, std::int64_t offset_count,
                      std::int64_t sliver_floats) {
  if (static_cast<std::int64_t>(stage.size()) < stage_floats) {
    stage.resize(static_cast<std::size_t>(stage_floats));
  }
  if (static_cast<std::int64_t>(offsets.size()) < offset_count) {
    offsets.resize(static_cast<std::size_t>(offset_count));
  }
  if (static_cast<std::int64_t>(sliver.size()) < sliver_floats) {
    sliver.resize(static_cast<std::size_t>(sliver_floats));
  }
}

void im2col_plane(const float* xd, std::int64_t c_in, std::int64_t h,
                  std::int64_t w, const ConvGeometry& g, float* col) {
  for_each_col(c_in, h, w, g, [&](std::int64_t e, std::int64_t i) {
    col[e] = i < 0 ? 0.0f : xd[i];
  });
}

void col2im_plane_add(const float* col, std::int64_t c_in, std::int64_t h,
                      std::int64_t w, const ConvGeometry& g, float* dx) {
  for_each_col(c_in, h, w, g, [&](std::int64_t e, std::int64_t i) {
    if (i >= 0) dx[i] += col[e];
  });
}

TapWindow tap_window(std::int64_t out_extent, std::int64_t in_extent,
                     std::int64_t kpos, std::int64_t stride,
                     std::int64_t pad) {
  const std::int64_t lo = pad - kpos;
  // hi < 0 means no output position reads in bounds; guard it before the
  // division, which truncates toward zero and would yield o1 == 1.
  const std::int64_t hi = in_extent - 1 + pad - kpos;
  TapWindow win;
  win.o0 = lo > 0 ? (lo + stride - 1) / stride : 0;
  win.o1 = hi < 0 ? 0 : std::min(out_extent, hi / stride + 1);
  if (win.o1 < win.o0) win.o1 = win.o0;
  return win;
}

std::int64_t count_nonzeros(const float* weight, std::int64_t count) {
  std::int64_t nnz = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    if (weight[i] != 0.0f) ++nnz;
  }
  return nnz;
}

bool conv_prefers_taps(std::int64_t nnz, std::int64_t rows, std::int64_t cols,
                       std::int64_t out_pixels) {
  if (rows <= 0 || cols <= 0 || out_pixels <= 0) return true;
  const double density = static_cast<double>(nnz) /
                         static_cast<double>(rows * cols);
  return density <= kTapDensityPerOctave *
                        std::log2(static_cast<double>(out_pixels));
}

}  // namespace rt
