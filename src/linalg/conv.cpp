#include "linalg/conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/audit.hpp"
#include "common/scheduler.hpp"
#include "linalg/gemm.hpp"
#include "linalg/microkernel.hpp"
#include "linalg/microkernel_s8.hpp"

namespace rt {

namespace {

// dcol tile height for the fused dgrad scatter: one (kMcScatter x kNc) tile
// (64 KiB) is computed to completion, scattered into dX while cache-hot,
// then reused — the full dcol buffer never exists.
constexpr std::int64_t kMcScatter = 64;

// Which executor runs forward and dgrad is the caller's ConvKernelOpts::algo,
// chosen once per layer by conv_runs_taps (conv.hpp): taps only while the
// weight density is at or below 0.045 * log2(OH*OW / out_ch), fit from the
// BM_ConvTapsVsPacked grid. The kernels below never count zeros themselves.

/// Decode table for flattened weight columns: column index r of the
/// (out_ch, C*k*k) weight matrix touches input channel c[r] at kernel
/// offset (ki[r], kj[r]). Rebuilt only when the geometry changes.
struct DecodeTable {
  std::int64_t c_in = -1, kernel = -1;
  std::vector<std::int32_t> c, ki, kj;
};

const DecodeTable& decode_table(std::int64_t c_in, std::int64_t kernel) {
  thread_local DecodeTable t;
  if (t.c_in != c_in || t.kernel != kernel) {
    const std::int64_t ckk = c_in * kernel * kernel;
    t.c.resize(static_cast<std::size_t>(ckk));
    t.ki.resize(static_cast<std::size_t>(ckk));
    t.kj.resize(static_cast<std::size_t>(ckk));
    for (std::int64_t r = 0; r < ckk; ++r) {
      const std::int64_t k2 = kernel * kernel;
      t.c[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(r / k2);
      t.ki[static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>((r % k2) / kernel);
      t.kj[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(r % kernel);
    }
    t.c_in = c_in;
    t.kernel = kernel;
  }
  return t;
}

/// Gathers `count` consecutive virtual-im2col values of one column row
/// (fixed channel plane + kernel offset) starting at flat output pixel
/// `pixel0`. Decomposes the pixel range into output-image rows; interior
/// runs collapse to a memcpy (stride 1) or a strided copy, border runs fall
/// back to per-element guards.
void gather_col_row(const float* xplane, std::int64_t h, std::int64_t w,
                    std::int64_t stride, std::int64_t pad, std::int64_t ki,
                    std::int64_t kj, std::int64_t ow, std::int64_t pixel0,
                    std::int64_t count, float* dst) {
  std::int64_t t = 0;
  while (t < count) {
    const std::int64_t pixel = pixel0 + t;
    const std::int64_t oi = pixel / ow;
    const std::int64_t oj = pixel % ow;
    const std::int64_t run = std::min(count - t, ow - oj);
    const std::int64_t ii = oi * stride - pad + ki;
    if (ii < 0 || ii >= h) {
      for (std::int64_t r = 0; r < run; ++r) dst[t + r] = 0.0f;
      t += run;
      continue;
    }
    const float* xrow = xplane + ii * w;
    const std::int64_t jj = oj * stride - pad + kj;
    if (jj >= 0 && jj + (run - 1) * stride < w) {
      if (stride == 1) {
        std::memcpy(dst + t, xrow + jj,
                    static_cast<std::size_t>(run) * sizeof(float));
      } else {
        for (std::int64_t r = 0; r < run; ++r) {
          dst[t + r] = xrow[jj + r * stride];
        }
      }
    } else {
      for (std::int64_t r = 0; r < run; ++r) {
        const std::int64_t j2 = jj + r * stride;
        dst[t + r] = (j2 >= 0 && j2 < w) ? xrow[j2] : 0.0f;
      }
    }
    t += run;
  }
}

/// Packs rows [kc, kc+kb) x pixels [jc, jc+nb) of the virtual im2col matrix
/// into kNr-column slivers at `bp` — the forward path's B operand, gathered
/// straight from the input plane in packed layout.
void pack_col_panel(const float* x, std::int64_t h, std::int64_t w,
                    const ConvGeometry& g, const DecodeTable& dec,
                    std::int64_t kc, std::int64_t kb, std::int64_t jc,
                    std::int64_t nb, std::int64_t ow, float* bp) {
  for (std::int64_t jr = 0; jr < nb; jr += kNr) {
    const std::int64_t n_eff = std::min(kNr, nb - jr);
    float* sliver = bp + jr * kb;
    const std::int64_t pixel0 = jc + jr;
    for (std::int64_t p = 0; p < kb; ++p) {
      const auto row = static_cast<std::size_t>(kc + p);
      const float* xplane = x + static_cast<std::int64_t>(dec.c[row]) * h * w;
      float* dst = sliver + p * kNr;
      gather_col_row(xplane, h, w, g.stride, g.padding, dec.ki[row],
                     dec.kj[row], ow, pixel0, n_eff, dst);
      for (std::int64_t j = n_eff; j < kNr; ++j) dst[j] = 0.0f;
    }
  }
}

/// Packs pixels [pc, pc+kb) x columns [jc, jc+nb) of the TRANSPOSED virtual
/// im2col matrix (the wgrad path's B operand). The kNr column decodes are
/// hoisted per sliver; the pixel walk is incremental, so the inner body is
/// kNr guarded loads.
void pack_colt_panel(const float* x, std::int64_t h, std::int64_t w,
                     const ConvGeometry& g, const DecodeTable& dec,
                     std::int64_t pc, std::int64_t kb, std::int64_t jc,
                     std::int64_t nb, std::int64_t ow, float* bp) {
  for (std::int64_t jr = 0; jr < nb; jr += kNr) {
    const std::int64_t n_eff = std::min(kNr, nb - jr);
    float* sliver = bp + jr * kb;
    std::int64_t ki[kNr], kj[kNr];
    const float* xpl[kNr];
    for (std::int64_t j = 0; j < n_eff; ++j) {
      const auto row = static_cast<std::size_t>(jc + jr + j);
      ki[j] = dec.ki[row];
      kj[j] = dec.kj[row];
      xpl[j] = x + static_cast<std::int64_t>(dec.c[row]) * h * w;
    }
    std::int64_t oi = pc / ow;
    std::int64_t oj = pc % ow;
    for (std::int64_t p = 0; p < kb; ++p) {
      const std::int64_t ib = oi * g.stride - g.padding;
      const std::int64_t jb = oj * g.stride - g.padding;
      float* dst = sliver + p * kNr;
      for (std::int64_t j = 0; j < n_eff; ++j) {
        const std::int64_t ii = ib + ki[j];
        const std::int64_t jj = jb + kj[j];
        dst[j] = (ii >= 0 && ii < h && jj >= 0 && jj < w)
                     ? xpl[j][ii * w + jj]
                     : 0.0f;
      }
      for (std::int64_t j = n_eff; j < kNr; ++j) dst[j] = 0.0f;
      if (++oj == ow) {
        oj = 0;
        ++oi;
      }
    }
  }
}

/// Scatter-adds a computed dcol tile (rows [row0, row0+rows) x pixels
/// [pixel0, pixel0+count), leading dimension count) into the dX plane —
/// col2im restricted to one cache-hot tile.
void scatter_col_tile(const float* tile, std::int64_t row0, std::int64_t rows,
                      std::int64_t pixel0, std::int64_t count,
                      const DecodeTable& dec, const ConvGeometry& g,
                      std::int64_t h, std::int64_t w, std::int64_t ow,
                      float* dx) {
  for (std::int64_t p = 0; p < rows; ++p) {
    const auto row = static_cast<std::size_t>(row0 + p);
    float* xplane = dx + static_cast<std::int64_t>(dec.c[row]) * h * w;
    const std::int64_t ki = dec.ki[row];
    const std::int64_t kj = dec.kj[row];
    const float* src = tile + p * count;
    std::int64_t t = 0;
    while (t < count) {
      const std::int64_t pixel = pixel0 + t;
      const std::int64_t oi = pixel / ow;
      const std::int64_t oj = pixel % ow;
      const std::int64_t run = std::min(count - t, ow - oj);
      const std::int64_t ii = oi * g.stride - g.padding + ki;
      if (ii < 0 || ii >= h) {
        t += run;
        continue;
      }
      float* xrow = xplane + ii * w;
      const std::int64_t jj = oj * g.stride - g.padding + kj;
      if (jj >= 0 && jj + (run - 1) * g.stride < w) {
        if (g.stride == 1) {
          for (std::int64_t r = 0; r < run; ++r) xrow[jj + r] += src[t + r];
        } else {
          for (std::int64_t r = 0; r < run; ++r) {
            xrow[jj + r * g.stride] += src[t + r];
          }
        }
      } else {
        for (std::int64_t r = 0; r < run; ++r) {
          const std::int64_t j2 = jj + r * g.stride;
          if (j2 >= 0 && j2 < w) xrow[j2] += src[t + r];
        }
      }
      t += run;
    }
  }
}

void bias_relu_epilogue(float* y, const float* bias, std::int64_t out_ch,
                        std::int64_t plane, bool relu) {
  if (bias == nullptr && !relu) return;
  for (std::int64_t oc = 0; oc < out_ch; ++oc) {
    const float b = bias != nullptr ? bias[oc] : 0.0f;
    float* row = y + oc * plane;
    if (relu) {
      for (std::int64_t j = 0; j < plane; ++j) {
        row[j] = std::max(row[j] + b, 0.0f);
      }
    } else if (b != 0.0f) {
      for (std::int64_t j = 0; j < plane; ++j) row[j] += b;
    }
  }
}

/// Runs `tiles(t0, t1)` over the `count` output-column tiles of a packed
/// kernel: as stealable subtasks when the caller asked for tile parallelism
/// (grain 1 — a tile is already kNc columns of work), serial otherwise.
template <typename Tiles>
void for_each_tile(std::int64_t count, bool parallel, const Tiles& tiles) {
  if (parallel && count > 1) {
    Scheduler::current().parallel_for(count, tiles, /*grain=*/1);
  } else {
    tiles(0, count);
  }
}

// ---- forward ----------------------------------------------------------------

RT_HOT void forward_packed(const float* x, std::int64_t c_in, std::int64_t h,
                           std::int64_t w, const ConvGeometry& g,
                           const float* weight, std::int64_t out_ch, float* y,
                           const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;

  // Weight panels: the batch-shared pre-pack when the caller supplied one
  // (panel ir starts at ir*ckk, its k-slice kc at + kc*kMr), else a local
  // pack (cost 1/ohw of the MACs). The local pack must be STACK-owned when
  // tiles go parallel: a worker blocked in the region's wait helps execute
  // other queued tasks, which can re-enter this function on the same thread
  // — a thread_local buffer would be republished to still-running tiles of
  // the first call. The serial path keeps the allocation-free thread_local.
  const float* wp;
  thread_local std::vector<float> wpack_tl;
  std::vector<float> wpack_frame;
  if (opts.packed_weights != nullptr && opts.packed_weights->has_forward() &&
      opts.packed_weights->matches(out_ch, ckk)) {
    wp = opts.packed_weights->forward_panels();
  } else {
    std::vector<float>& wpack = opts.parallel_tiles ? wpack_frame : wpack_tl;
    // Dynamic: panel size follows the layer shape. Serving never takes this
    // branch (tickets carry pre-packed panels); training pays it per call on
    // the parallel path only.
    wpack.resize(  // rtlint: allow(R2) shape-dependent weight panel
        static_cast<std::size_t>(round_up(out_ch, kMr) * ckk));
    pack_a_rows(weight, ckk, 0, out_ch, 0, ckk, wpack.data());
    wp = wpack.data();
  }

  // Output-column tiles are independent (each writes its own y columns and
  // accumulates its kc panels in the fixed serial order), so they can run
  // as stealable subtasks when the batch alone cannot fill the machine.
  const std::int64_t tiles = (ohw + kNc - 1) / kNc;
  for_each_tile(tiles, opts.parallel_tiles,
                [&](std::int64_t t0, std::int64_t t1) {
    // Per-leaf lookups: the executing thread's own decode table and pack
    // buffer, never the spawning thread's (whose thread_locals may be
    // rebuilt under it while it helps with unrelated tasks).
    const DecodeTable& dec = decode_table(c_in, g.kernel);
    thread_local float bbuf[kKc * kNc];
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t jc = t * kNc;
      const std::int64_t nb = std::min(kNc, ohw - jc);
      for (std::int64_t kc = 0; kc < ckk; kc += kKc) {
        const std::int64_t kb = std::min(kKc, ckk - kc);
        pack_col_panel(x, h, w, g, dec, kc, kb, jc, nb, ow, bbuf);
        for (std::int64_t ir = 0; ir < out_ch; ir += kMr) {
          const std::int64_t mr = std::min(kMr, out_ch - ir);
          const float* ap = wp + ir * ckk + kc * kMr;
          float* crow = y + ir * ohw + jc;
          for (std::int64_t jr = 0; jr < nb; jr += kNr) {
            const std::int64_t nr = std::min(kNr, nb - jr);
            const float* bp = bbuf + jr * kb;
            if (mr == kMr && nr == kNr) {
              micro_kernel_full(kb, ap, bp, crow + jr, ohw);
            } else {
              micro_kernel_edge(kb, ap, bp, crow + jr, ohw, mr, nr);
            }
          }
        }
      }
    }
  });
}

RT_HOT void forward_taps(const float* x, std::int64_t c_in, std::int64_t h,
                         std::int64_t w, const ConvGeometry& g,
                         const float* weight, std::int64_t out_ch, float* y) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const std::int64_t s = g.stride;
  const DecodeTable& dec = decode_table(c_in, g.kernel);
  for (std::int64_t oc = 0; oc < out_ch; ++oc) {
    const float* wrow = weight + oc * ckk;
    float* yplane = y + oc * ohw;
    for (std::int64_t p = 0; p < ckk; ++p) {
      const float v = wrow[p];
      if (v == 0.0f) continue;
      const auto pr = static_cast<std::size_t>(p);
      const std::int64_t ki = dec.ki[pr], kj = dec.kj[pr];
      const TapWindow wi = tap_window(oh, h, ki, s, g.padding);
      const TapWindow wj = tap_window(ow, w, kj, s, g.padding);
      const std::int64_t count = wj.o1 - wj.o0;
      if (wi.o1 <= wi.o0 || count <= 0) continue;
      const float* xplane =
          x + static_cast<std::int64_t>(dec.c[pr]) * h * w;
      const std::int64_t jj0 = wj.o0 * s - g.padding + kj;
      for (std::int64_t oi = wi.o0; oi < wi.o1; ++oi) {
        const std::int64_t ii = oi * s - g.padding + ki;
        const float* __restrict xr = xplane + ii * w + jj0;
        float* __restrict yr = yplane + oi * ow + wj.o0;
        if (s == 1) {
          for (std::int64_t j = 0; j < count; ++j) yr[j] += v * xr[j];
        } else {
          for (std::int64_t j = 0; j < count; ++j) yr[j] += v * xr[j * s];
        }
      }
    }
  }
}

void forward_ref(const float* x, std::int64_t c_in, std::int64_t h,
                 std::int64_t w, const ConvGeometry& g, const float* weight,
                 std::int64_t out_ch, float* y) {
  const std::int64_t ohw = g.out_extent(h) * g.out_extent(w);
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  thread_local std::vector<float> colbuf;
  colbuf.resize(static_cast<std::size_t>(ckk * ohw));
  im2col_plane(x, c_in, h, w, g, colbuf.data());
  gemm_nn(out_ch, ohw, ckk, weight, colbuf.data(), y,
          {.accumulate = true, .parallel = false, .packed = false});
}

// ---- input gradient ---------------------------------------------------------

RT_HOT void dgrad_packed(const float* weight, std::int64_t out_ch,
                         const float* gout, std::int64_t c_in, std::int64_t h,
                         std::int64_t w, const ConvGeometry& g, float* dx,
                         const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const DecodeTable& dec = decode_table(c_in, g.kernel);

  // A = W^T: the transpose is paid once, in packing — by the batch-shared
  // pre-pack when available, else locally.
  const float* wtp;
  thread_local std::vector<float> wtpack;
  if (opts.packed_weights != nullptr && opts.packed_weights->has_dgrad() &&
      opts.packed_weights->matches(out_ch, ckk)) {
    wtp = opts.packed_weights->dgrad_panels();
  } else {
    // Dynamic: W^T panel size follows the layer shape (see forward_packed).
    wtpack.resize(  // rtlint: allow(R2) shape-dependent weight panel
        static_cast<std::size_t>(round_up(ckk, kMr) * out_ch));
    pack_a_rows_trans(weight, ckk, 0, ckk, 0, out_ch, wtpack.data());
    wtp = wtpack.data();
  }

  thread_local float bbuf[kKc * kNc];
  thread_local float ctile[kMcScatter * kNc];

  for (std::int64_t jc = 0; jc < ohw; jc += kNc) {
    const std::int64_t nb = std::min(kNc, ohw - jc);
    for (std::int64_t ic = 0; ic < ckk; ic += kMcScatter) {
      const std::int64_t mb = std::min(kMcScatter, ckk - ic);
      std::memset(ctile, 0, static_cast<std::size_t>(mb * nb) * sizeof(float));
      for (std::int64_t kc = 0; kc < out_ch; kc += kKc) {
        const std::int64_t kb = std::min(kKc, out_ch - kc);
        pack_b_cols(gout, ohw, kc, kb, jc, nb, bbuf);
        for (std::int64_t ir = 0; ir < mb; ir += kMr) {
          const std::int64_t mr = std::min(kMr, mb - ir);
          const float* ap = wtp + (ic + ir) * out_ch + kc * kMr;
          float* crow = ctile + ir * nb;
          for (std::int64_t jr = 0; jr < nb; jr += kNr) {
            const std::int64_t nr = std::min(kNr, nb - jr);
            const float* bp = bbuf + jr * kb;
            if (mr == kMr && nr == kNr) {
              micro_kernel_full(kb, ap, bp, crow + jr, nb);
            } else {
              micro_kernel_edge(kb, ap, bp, crow + jr, nb, mr, nr);
            }
          }
        }
      }
      scatter_col_tile(ctile, ic, mb, jc, nb, dec, g, h, w, ow, dx);
    }
  }
}

void dgrad_taps(const float* weight, std::int64_t out_ch, const float* gout,
                std::int64_t c_in, std::int64_t h, std::int64_t w,
                const ConvGeometry& g, float* dx) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const std::int64_t s = g.stride;
  const DecodeTable& dec = decode_table(c_in, g.kernel);
  for (std::int64_t oc = 0; oc < out_ch; ++oc) {
    const float* wrow = weight + oc * ckk;
    const float* gplane = gout + oc * ohw;
    for (std::int64_t p = 0; p < ckk; ++p) {
      const float v = wrow[p];
      if (v == 0.0f) continue;
      const auto pr = static_cast<std::size_t>(p);
      const std::int64_t ki = dec.ki[pr], kj = dec.kj[pr];
      const TapWindow wi = tap_window(oh, h, ki, s, g.padding);
      const TapWindow wj = tap_window(ow, w, kj, s, g.padding);
      const std::int64_t count = wj.o1 - wj.o0;
      if (wi.o1 <= wi.o0 || count <= 0) continue;
      float* xplane = dx + static_cast<std::int64_t>(dec.c[pr]) * h * w;
      const std::int64_t jj0 = wj.o0 * s - g.padding + kj;
      for (std::int64_t oi = wi.o0; oi < wi.o1; ++oi) {
        const std::int64_t ii = oi * s - g.padding + ki;
        float* __restrict xr = xplane + ii * w + jj0;
        const float* __restrict gr = gplane + oi * ow + wj.o0;
        if (s == 1) {
          for (std::int64_t j = 0; j < count; ++j) xr[j] += v * gr[j];
        } else {
          for (std::int64_t j = 0; j < count; ++j) xr[j * s] += v * gr[j];
        }
      }
    }
  }
}

void dgrad_ref(const float* weight, std::int64_t out_ch, const float* gout,
               std::int64_t c_in, std::int64_t h, std::int64_t w,
               const ConvGeometry& g, float* dx) {
  const std::int64_t ohw = g.out_extent(h) * g.out_extent(w);
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  thread_local std::vector<float> dcol;
  dcol.resize(static_cast<std::size_t>(ckk * ohw));
  gemm_tn(ckk, ohw, out_ch, weight, gout, dcol.data(),
          {.accumulate = false, .parallel = false, .packed = false});
  col2im_plane_add(dcol.data(), c_in, h, w, g, dx);
}

// ---- weight gradient --------------------------------------------------------

RT_HOT void wgrad_packed(const float* gout, const float* x, std::int64_t c_in,
                         std::int64_t h, std::int64_t w, const ConvGeometry& g,
                         std::int64_t out_ch, float* dw,
                         const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;

  // dW-column tiles are independent: each accumulates its own dw columns
  // over the pixel panels in the same ascending pc order as the serial
  // loop, so per-element summation order — and hence the bits — do not
  // change. The gout panel re-pack per (tile, pc) pair costs 1/kNc of the
  // tile's MACs, which the extra parallelism amortizes.
  const std::int64_t tiles = (ckk + kNc - 1) / kNc;
  for_each_tile(tiles, opts.parallel_tiles,
                [&](std::int64_t t0, std::int64_t t1) {
    // Executing thread's own caches (see forward_packed on why the
    // spawning thread's thread_locals must not be shared with leaves).
    const DecodeTable& dec = decode_table(c_in, g.kernel);
    thread_local std::vector<float> apack;
    thread_local float bbuf[kKc * kNc];
    // Dynamic: gout panel height follows out_ch. Steady-state free per
    // thread once grown to the model's widest layer.
    apack.resize(  // rtlint: allow(R2) shape-dependent gout panel
        static_cast<std::size_t>(round_up(out_ch, kMr) * kKc));
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t jc = t * kNc;
      const std::int64_t nb = std::min(kNc, ckk - jc);
      for (std::int64_t pc = 0; pc < ohw; pc += kKc) {
        const std::int64_t kb = std::min(kKc, ohw - pc);
        pack_a_rows(gout, ohw, 0, out_ch, pc, kb, apack.data());
        pack_colt_panel(x, h, w, g, dec, pc, kb, jc, nb, ow, bbuf);
        for (std::int64_t ir = 0; ir < out_ch; ir += kMr) {
          const std::int64_t mr = std::min(kMr, out_ch - ir);
          const float* ap = apack.data() + ir * kb;
          float* crow = dw + ir * ckk + jc;
          for (std::int64_t jr = 0; jr < nb; jr += kNr) {
            const std::int64_t nr = std::min(kNr, nb - jr);
            const float* bp = bbuf + jr * kb;
            if (mr == kMr && nr == kNr) {
              micro_kernel_full(kb, ap, bp, crow + jr, ckk);
            } else {
              micro_kernel_edge(kb, ap, bp, crow + jr, ckk, mr, nr);
            }
          }
        }
      }
    }
  });
}

void wgrad_ref(const float* gout, const float* x, std::int64_t c_in,
               std::int64_t h, std::int64_t w, const ConvGeometry& g,
               std::int64_t out_ch, float* dw) {
  const std::int64_t ohw = g.out_extent(h) * g.out_extent(w);
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  thread_local std::vector<float> colbuf;
  colbuf.resize(static_cast<std::size_t>(ckk * ohw));
  im2col_plane(x, c_in, h, w, g, colbuf.data());
  gemm_nt(out_ch, ckk, ohw, gout, colbuf.data(), dw,
          {.accumulate = true, .parallel = false, .skip_zero_b_rows = false,
           .packed = false});
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

void conv2d_forward_plane(const float* x, std::int64_t c_in, std::int64_t h,
                          std::int64_t w, const ConvGeometry& g,
                          const float* weight, std::int64_t out_ch, float* y,
                          const float* bias, bool relu,
                          const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  if (out_ch <= 0 || oh <= 0 || ow <= 0) return;
  std::memset(y, 0, static_cast<std::size_t>(out_ch * oh * ow) *
                        sizeof(float));
  switch (opts.algo) {
    case ConvAlgo::kPacked:
      forward_packed(x, c_in, h, w, g, weight, out_ch, y, opts);
      break;
    case ConvAlgo::kTaps: forward_taps(x, c_in, h, w, g, weight, out_ch, y);
      break;
    case ConvAlgo::kIm2colReference:
      forward_ref(x, c_in, h, w, g, weight, out_ch, y);
      break;
  }
  bias_relu_epilogue(y, bias, out_ch, oh * ow, relu);
}

void conv2d_dgrad_plane(const float* weight, std::int64_t out_ch,
                        const float* gout, std::int64_t c_in, std::int64_t h,
                        std::int64_t w, const ConvGeometry& g, float* dx,
                        const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  if (out_ch <= 0 || oh <= 0 || ow <= 0) return;
  switch (opts.algo) {
    case ConvAlgo::kPacked:
      dgrad_packed(weight, out_ch, gout, c_in, h, w, g, dx, opts);
      break;
    case ConvAlgo::kTaps: dgrad_taps(weight, out_ch, gout, c_in, h, w, g, dx);
      break;
    case ConvAlgo::kIm2colReference:
      dgrad_ref(weight, out_ch, gout, c_in, h, w, g, dx);
      break;
  }
}

void conv2d_wgrad_plane(const float* gout, const float* x, std::int64_t c_in,
                        std::int64_t h, std::int64_t w, const ConvGeometry& g,
                        std::int64_t out_ch, float* dw,
                        const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  if (out_ch <= 0 || oh <= 0 || ow <= 0) return;
  if (opts.algo == ConvAlgo::kIm2colReference) {
    wgrad_ref(gout, x, c_in, h, w, g, out_ch, dw);
  } else {
    wgrad_packed(gout, x, c_in, h, w, g, out_ch, dw, opts);
  }
}

void PackedWeights::pack(const float* weight, std::int64_t out_ch,
                         std::int64_t ckk, bool forward, bool dgrad) {
  out_ch_ = out_ch;
  ckk_ = ckk;
  if (forward) {
    fwd_.resize(static_cast<std::size_t>(round_up(out_ch, kMr) * ckk));
    pack_a_rows(weight, ckk, 0, out_ch, 0, ckk, fwd_.data());
  } else {
    fwd_.clear();
  }
  if (dgrad) {
    dgrad_.resize(static_cast<std::size_t>(round_up(ckk, kMr) * out_ch));
    pack_a_rows_trans(weight, ckk, 0, ckk, 0, out_ch, dgrad_.data());
  } else {
    dgrad_.clear();
  }
}

void PackedWeights::clear() {
  fwd_.clear();
  dgrad_.clear();
  out_ch_ = 0;
  ckk_ = 0;
}

void im2col_plane(const float* xd, std::int64_t c_in, std::int64_t h,
                  std::int64_t w, const ConvGeometry& g, float* col) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < c_in; ++c) {
    const float* xc = xd + c * h * w;
    for (std::int64_t ki = 0; ki < g.kernel; ++ki) {
      for (std::int64_t kj = 0; kj < g.kernel; ++kj, ++row) {
        float* out = col + row * oh * ow;
        for (std::int64_t oi = 0; oi < oh; ++oi) {
          const std::int64_t ii = oi * g.stride - g.padding + ki;
          const bool row_in = ii >= 0 && ii < h;
          const float* xrow = row_in ? xc + ii * w : xc;
          for (std::int64_t oj = 0; oj < ow; ++oj) {
            const std::int64_t jj = oj * g.stride - g.padding + kj;
            out[oi * ow + oj] =
                (row_in && jj >= 0 && jj < w) ? xrow[jj] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im_plane_add(const float* col, std::int64_t c_in, std::int64_t h,
                      std::int64_t w, const ConvGeometry& g, float* dx) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < c_in; ++c) {
    float* xc = dx + c * h * w;
    for (std::int64_t ki = 0; ki < g.kernel; ++ki) {
      for (std::int64_t kj = 0; kj < g.kernel; ++kj, ++row) {
        const float* in = col + row * oh * ow;
        for (std::int64_t oi = 0; oi < oh; ++oi) {
          const std::int64_t ii = oi * g.stride - g.padding + ki;
          if (ii < 0 || ii >= h) continue;
          for (std::int64_t oj = 0; oj < ow; ++oj) {
            const std::int64_t jj = oj * g.stride - g.padding + kj;
            if (jj >= 0 && jj < w) xc[ii * w + jj] += in[oi * ow + oj];
          }
        }
      }
    }
  }
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

bool conv_runs_taps(std::int64_t nnz, std::int64_t rows, std::int64_t cols,
                    std::int64_t out_pixels) {
  if (rows <= 0 || cols <= 0 || out_pixels <= 0) return false;
  const double density = static_cast<double>(nnz) /
                         static_cast<double>(rows * cols);
  return density <= kConvTapDensityPerOctave *
                        std::log2(static_cast<double>(out_pixels) /
                                  static_cast<double>(rows));
}

}  // namespace rt
