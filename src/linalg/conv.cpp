#include "linalg/conv.hpp"

#include <algorithm>
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

// The tap-path crossover is kConvSparseWeightFraction (conv.hpp): past ~80%
// zeros, skipping weights wholesale beats the packed path's ~5x dense
// throughput advantage — the same reasoning as the GEMM dispatch in
// gemm.cpp, and it matches the serving engine's CSR cutoff (density <= 0.2)
// so training and serving flip to sparse execution at the same sparsity.

enum class Path { kPacked, kTaps, kRef };

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

Path resolve_path(const ConvKernelOpts& opts, const float* weight,
                  std::int64_t count, bool taps_available) {
  if (opts.algo == ConvAlgo::kIm2colReference) return Path::kRef;
  if (opts.algo == ConvAlgo::kImplicit || !taps_available) {
    return Path::kPacked;
  }
  float zf = opts.weight_zero_fraction;
  if (zf < 0.0f) zf = weight_zero_fraction(weight, count);
  return zf >= kConvSparseWeightFraction ? Path::kTaps : Path::kPacked;
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

// ---- int8 forward -----------------------------------------------------------

// GCC's AVX512 widening/shift intrinsics expand through an undef
// pass-through operand that trips -Wmaybe-uninitialized false positives at
// -O3 (GCC PR105593). Scoped to the int8 section; popped after the s8
// forward entry point below.
#if defined(RT_MICROKERNEL_S8_VNNI) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#define RT_S8_DIAG_PUSHED 1
#endif

/// gather_col_row at int8 width: gathers `count` consecutive virtual-im2col
/// values of one offset-u8 column row (fixed channel plane + kernel offset)
/// into a CONTIGUOUS byte buffer. Interior stride-1 runs collapse to a
/// memcpy (the input plane is already u8), pad rows to a memset of 128 —
/// the offset-u8 encoding of zero.
void gather_col_row_u8(const std::uint8_t* xplane, std::int64_t h,
                       std::int64_t w, std::int64_t stride, std::int64_t pad,
                       std::int64_t ki, std::int64_t kj, std::int64_t ow,
                       std::int64_t pixel0, std::int64_t count,
                       std::uint8_t* dst) {
  // Output-row decomposition with the div/mod done ONCE per call: within an
  // image row every source offset is affine in the output column, so each
  // row reduces to (pad memset | memcpy | pad memset) for stride 1 and a
  // strided copy otherwise. This gather runs per plane per layer on the
  // serving path — the per-row constant work is what it is measured by.
  std::int64_t oi = pixel0 / ow;
  std::int64_t oj = pixel0 - oi * ow;
  const std::int64_t jj_base = kj - pad;
  std::int64_t t = 0;
  while (t < count) {
    const std::int64_t run = std::min(count - t, ow - oj);
    const std::int64_t ii = oi * stride - pad + ki;
    std::uint8_t* d = dst + t;
    if (ii < 0 || ii >= h) {
      std::memset(d, 128, static_cast<std::size_t>(run));
    } else {
      const std::uint8_t* xrow = xplane + ii * w;
      if (stride == 1) {
        const std::int64_t j0 = oj + jj_base;  // first source column
        // Clip [j0, j0 + run) to the image width; lead/tail take the pad.
        const std::int64_t lead =
            std::min(run, std::max<std::int64_t>(0, -j0));
        const std::int64_t mid =
            std::max<std::int64_t>(0, std::min(run, w - j0) - lead);
        if (lead > 0) std::memset(d, 128, static_cast<std::size_t>(lead));
        if (mid > 0) {
          std::memcpy(d + lead, xrow + j0 + lead,
                      static_cast<std::size_t>(mid));
        }
        if (lead + mid < run) {
          std::memset(d + lead + mid, 128,
                      static_cast<std::size_t>(run - lead - mid));
        }
      } else {
        const std::int64_t jj = oj * stride + jj_base;
        for (std::int64_t r = 0; r < run; ++r) {
          const std::int64_t j2 = jj + r * stride;
          d[r] = (j2 >= 0 && j2 < w) ? xrow[j2] : std::uint8_t{128};
        }
      }
    }
    t += run;
    oj = 0;
    ++oi;
  }
}

/// Cap of the thread_local padded-plane staging buffer: a stride-1 conv
/// first copies its input into a (c_in, h+2p, w+2p) plane whose border holds
/// the zero encoding 128, after which EVERY row gather is one branch-free
/// memcpy per image row — the lead/mid/tail clipping of gather_col_row_u8
/// disappears from the per-(tap, row) inner loop and is paid once per plane
/// instead (1x the input volume against k*k gathered copies of it). 128 KiB
/// covers small-image serving layers up to e.g. 64ch x 34x34; larger planes
/// fall back to the clipped gather.
inline constexpr std::int64_t kPadPlaneCapS8 = 128 * 1024;

/// Batch variant of the cap for conv2d_forward_batch_s8, which pads every
/// sample's plane up front (n x the per-sample footprint). 256 KiB covers
/// batch 16 of the small-image layers the engine serves.
inline constexpr std::int64_t kPadPlaneBatchCapS8 = 256 * 1024;

/// Interleaves 4 contiguous k-row buffers into the quad position `dst`
/// (64 bytes: 16 lanes x 4 quad bytes): dst dword j = r0[j] | r1[j] << 8 |
/// r2[j] << 16 | r3[j] << 24. This is the transform between the linear
/// gather above and the sliver layout the micro-kernel consumes; writes are
/// a single contiguous 64-byte store per quad on the wide path.
inline void interleave_quad16(const std::uint8_t* r0, const std::uint8_t* r1,
                              const std::uint8_t* r2, const std::uint8_t* r3,
                              std::uint8_t* dst) {
#ifdef RT_MICROKERNEL_S8_VNNI
  const __m512i v0 = _mm512_cvtepu8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0)));
  const __m512i v1 = _mm512_slli_epi32(
      _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1))), 8);
  const __m512i v2 = _mm512_slli_epi32(
      _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r2))), 16);
  const __m512i v3 = _mm512_slli_epi32(
      _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r3))), 24);
  _mm512_storeu_si512(dst, _mm512_or_si512(_mm512_or_si512(v0, v1),
                                           _mm512_or_si512(v2, v3)));
#else
  for (std::int64_t j = 0; j < kNrS8; ++j) {
    dst[j * 4 + 0] = r0[j];
    dst[j * 4 + 1] = r1[j];
    dst[j * 4 + 2] = r2[j];
    dst[j * 4 + 3] = r3[j];
  }
#endif
}

/// Packs rows [kc, kc+kb) x pixels [jc, jc+nb) of the offset-u8 virtual
/// im2col matrix into kNrS8-lane QUAD slivers at `bp` (sliver depth
/// round_up4(kb)) — the int8 forward's B operand. Each k row is gathered
/// once across the whole pixel tile into a linear staging row (memcpy runs),
/// then quad-interleaved into every sliver with wide stores; edge lanes and
/// the k tail pad with 128.
void pack_col_panel_u8q(const std::uint8_t* xq, std::int64_t h, std::int64_t w,
                        const ConvGeometry& g, const DecodeTable& dec,
                        std::int64_t kc, std::int64_t kb, std::int64_t jc,
                        std::int64_t nb, std::int64_t ow, std::uint8_t* bp,
                        const std::int32_t* gather_idx, std::int64_t ohw,
                        const std::uint8_t* padded, std::int64_t pw) {
  const std::int64_t kb4 = round_up4(kb);
  // 4 linear k-rows, padded to whole lane groups so the interleave reads
  // defined bytes past nb. 1 KiB, fixed — never allocates on the hot path.
  alignas(64) thread_local std::uint8_t rowbuf[4][kNcS8];
  const std::int64_t nb16 = (nb + kNrS8 - 1) / kNrS8 * kNrS8;
  for (std::int64_t q = 0; q < kb4 / 4; ++q) {
    for (std::int64_t t = 0; t < 4; ++t) {
      const std::int64_t p = 4 * q + t;
      if (p >= kb) {
        std::memset(rowbuf[t], 128, static_cast<std::size_t>(nb16));
        continue;
      }
      if (gather_idx != nullptr) {
        // Table path: one guarded byte load per element, no per-row setup —
        // the win on narrow planes whose image rows are a few bytes wide.
        const std::int32_t* ri = gather_idx + (kc + p) * ohw + jc;
        std::uint8_t* d = rowbuf[t];
        for (std::int64_t j = 0; j < nb; ++j) {
          const std::int32_t s = ri[j];
          d[j] = s >= 0 ? xq[s] : std::uint8_t{128};
        }
      } else if (padded != nullptr) {
        // Padded-plane path (stride 1): the border already holds 128, so
        // each image row is one unconditional memcpy — padding cancels in
        // the source coordinates ((oi - p + ki) + p rows, likewise columns).
        const auto row = static_cast<std::size_t>(kc + p);
        const std::uint8_t* plane =
            padded + static_cast<std::int64_t>(dec.c[row]) *
                         (h + 2 * g.padding) * pw;
        std::int64_t oi = jc / ow;
        std::int64_t oj = jc - oi * ow;
        const std::uint8_t* src =
            plane + (oi + dec.ki[row]) * pw + dec.kj[row];
        std::uint8_t* d = rowbuf[t];
        std::int64_t done = 0;
        while (done < nb) {
          const std::int64_t run = std::min(nb - done, ow - oj);
          std::memcpy(d + done, src + oj, static_cast<std::size_t>(run));
          done += run;
          oj = 0;
          src += pw;
        }
      } else {
        const auto row = static_cast<std::size_t>(kc + p);
        const std::uint8_t* xplane =
            xq + static_cast<std::int64_t>(dec.c[row]) * h * w;
        gather_col_row_u8(xplane, h, w, g.stride, g.padding, dec.ki[row],
                          dec.kj[row], ow, jc, nb, rowbuf[t]);
      }
      if (nb < nb16) {
        std::memset(rowbuf[t] + nb, 128, static_cast<std::size_t>(nb16 - nb));
      }
    }
    for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
      interleave_quad16(rowbuf[0] + jr, rowbuf[1] + jr, rowbuf[2] + jr,
                        rowbuf[3] + jr, bp + jr * kb4 + q * kNrS8 * 4);
    }
  }
}

/// Batch-column packer: as pack_col_panel_u8q, but the column space is the
/// whole batch — global column j = sample * OH*OW + pixel, sample i's plane
/// at xq + i * x_stride (or its padded copy at padded + i * pstride). Each
/// k row decomposes into per-sample pixel runs, gathered with the same
/// three strategies as the per-sample packer.
void pack_col_batch_u8q(const std::uint8_t* xq, std::int64_t x_stride,
                        std::int64_t h, std::int64_t w, const ConvGeometry& g,
                        const DecodeTable& dec, std::int64_t kb,
                        std::int64_t jc, std::int64_t nb, std::int64_t ow,
                        std::int64_t ohw, std::uint8_t* bp,
                        const std::int32_t* gather_idx,
                        const std::uint8_t* padded, std::int64_t pstride,
                        std::int64_t pw) {
  const std::int64_t kb4 = round_up4(kb);
  alignas(64) thread_local std::uint8_t rowbuf[4][kNcS8];
  const std::int64_t nb16 = (nb + kNrS8 - 1) / kNrS8 * kNrS8;
  const std::int64_t ph = h + 2 * g.padding;
  for (std::int64_t q = 0; q < kb4 / 4; ++q) {
    for (std::int64_t t = 0; t < 4; ++t) {
      const std::int64_t p = 4 * q + t;
      if (p >= kb) {
        std::memset(rowbuf[t], 128, static_cast<std::size_t>(nb16));
        continue;
      }
      const auto row = static_cast<std::size_t>(p);
      std::uint8_t* d = rowbuf[t];
      std::int64_t done = 0;
      std::int64_t i = jc / ohw;
      std::int64_t pix = jc - i * ohw;
      while (done < nb) {
        const std::int64_t run = std::min(nb - done, ohw - pix);
        if (gather_idx != nullptr) {
          const std::int32_t* ri = gather_idx + p * ohw + pix;
          const std::uint8_t* base = xq + i * x_stride;
          for (std::int64_t j = 0; j < run; ++j) {
            const std::int32_t s = ri[j];
            d[done + j] = s >= 0 ? base[s] : std::uint8_t{128};
          }
        } else if (padded != nullptr) {
          const std::uint8_t* plane =
              padded + i * pstride +
              static_cast<std::int64_t>(dec.c[row]) * ph * pw;
          std::int64_t oi = pix / ow;
          std::int64_t oj = pix - oi * ow;
          const std::uint8_t* src =
              plane + (oi + dec.ki[row]) * pw + dec.kj[row];
          std::int64_t off = done, left = run;
          while (left > 0) {
            const std::int64_t r2 = std::min(left, ow - oj);
            std::memcpy(d + off, src + oj, static_cast<std::size_t>(r2));
            off += r2;
            left -= r2;
            oj = 0;
            src += pw;
          }
        } else {
          const std::uint8_t* xplane =
              xq + i * x_stride +
              static_cast<std::int64_t>(dec.c[row]) * h * w;
          gather_col_row_u8(xplane, h, w, g.stride, g.padding, dec.ki[row],
                            dec.kj[row], ow, pix, run, d + done);
        }
        done += run;
        pix = 0;
        ++i;
      }
      if (nb < nb16) {
        std::memset(rowbuf[t] + nb, 128, static_cast<std::size_t>(nb16 - nb));
      }
    }
    for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
      interleave_quad16(rowbuf[0] + jr, rowbuf[1] + jr, rowbuf[2] + jr,
                        rowbuf[3] + jr, bp + jr * kb4 + q * kNrS8 * 4);
    }
  }
}

}  // namespace

// ---- public entry points ----------------------------------------------------

RT_HOT void conv2d_forward_plane_s8(const std::uint8_t* xq, std::int64_t c_in,
                                    std::int64_t h, std::int64_t w,
                                    const ConvGeometry& g,
                                    const std::int8_t* w_panels,
                                    std::int64_t out_ch, std::int32_t* acc,
                                    float* y, const S8Epilogue& ep,
                                    const std::int32_t* gather_idx) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  if (out_ch <= 0 || ohw <= 0) return;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const std::int64_t ckk4 = round_up4(ckk);
  const DecodeTable& dec = decode_table(c_in, g.kernel);
  std::int32_t tile[kMrS8 * kNrS8];

  // Stage the padded input plane for stride-1 convs with real padding (see
  // kPadPlaneCapS8); strided layers come in with the index table instead.
  const std::uint8_t* padded = nullptr;
  std::int64_t pw = 0;
  if (gather_idx == nullptr && g.stride == 1 && g.padding > 0) {
    const std::int64_t pad = g.padding;
    const std::int64_t ph2 = h + 2 * pad, pw2 = w + 2 * pad;
    if (c_in * ph2 * pw2 <= kPadPlaneCapS8) {
      alignas(64) thread_local std::uint8_t padbuf[kPadPlaneCapS8];
      for (std::int64_t c = 0; c < c_in; ++c) {
        std::uint8_t* dstp = padbuf + c * ph2 * pw2;
        std::memset(dstp, 128, static_cast<std::size_t>(pad * pw2));
        for (std::int64_t ii = 0; ii < h; ++ii) {
          std::uint8_t* row = dstp + (pad + ii) * pw2;
          std::memset(row, 128, static_cast<std::size_t>(pad));
          std::memcpy(row + pad, xq + (c * h + ii) * w,
                      static_cast<std::size_t>(w));
          std::memset(row + pad + w, 128, static_cast<std::size_t>(pad));
        }
        std::memset(dstp + (pad + h) * pw2, 128,
                    static_cast<std::size_t>(pad * pw2));
      }
      padded = padbuf;
      pw = pw2;
    }
  }

  if (ckk4 <= kKcFullS8) {
    // Full-depth fast path: the whole k extent fits one staged B tile, so
    // each 8x16 output block accumulates entirely in registers and requants
    // straight from the register tile — the int32 accumulator plane, its
    // memset, and the add/re-read passes all disappear. Covers every layer
    // of the small-image models the engine serves (ckk <= kKcFullS8);
    // int32 sums are exact, so results are bitwise identical to the
    // blocked path below.
    alignas(64) thread_local std::uint8_t bqfull[kKcFullS8 * kNcS8];
    for (std::int64_t jc = 0; jc < ohw; jc += kNcS8) {
      const std::int64_t nb = std::min(kNcS8, ohw - jc);
      pack_col_panel_u8q(xq, h, w, g, dec, 0, ckk, jc, nb, ow, bqfull,
                         gather_idx, ohw, padded, pw);
      for (std::int64_t ir = 0; ir < out_ch; ir += kMrS8) {
        const std::int64_t mr = std::min(kMrS8, out_ch - ir);
        const std::int8_t* ap = w_panels + ir * ckk4;
        // Slice the per-row epilogue fields to this channel block; the
        // running amax pointer is shared across all tiles of the plane.
        S8Epilogue es = ep;
        es.scales = ep.scales + ir;
        if (ep.corr) es.corr = ep.corr + ir;
        if (ep.bias) es.bias = ep.bias + ir;
        for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
          const std::int64_t nr = std::min(kNrS8, nb - jr);
          detail::micro_s8_block(ckk4 / 4, ap, bqfull + jr * ckk4, tile);
          requant_rows(tile, kNrS8, mr, nr, es, y + ir * ohw + jc + jr, ohw);
        }
      }
    }
    return;
  }

  // Deep-k path: block over k through the caller's int32 accumulator plane.
  // Fixed per-thread sliver staging, same 64 KiB footprint as the fp32
  // path's bbuf — sized once, so the serving path stays allocation-free.
  thread_local std::uint8_t bqbuf[kKcS8 * kNcS8];
  std::memset(acc, 0, static_cast<std::size_t>(out_ch * ohw) *
                          sizeof(std::int32_t));
  for (std::int64_t jc = 0; jc < ohw; jc += kNcS8) {
    const std::int64_t nb = std::min(kNcS8, ohw - jc);
    for (std::int64_t kc = 0; kc < ckk; kc += kKcS8) {
      const std::int64_t kb = std::min(kKcS8, ckk - kc);
      const std::int64_t kb4 = round_up4(kb);
      pack_col_panel_u8q(xq, h, w, g, dec, kc, kb, jc, nb, ow, bqbuf,
                         gather_idx, ohw, padded, pw);
      for (std::int64_t ir = 0; ir < out_ch; ir += kMrS8) {
        const std::int64_t mr = std::min(kMrS8, out_ch - ir);
        // Panel slice: quad-major full-depth panels, so the k block at kc
        // (kKcS8 is a multiple of 4) starts kc * kMrS8 bytes into panel ir.
        const std::int8_t* ap = w_panels + ir * ckk4 + kc * kMrS8;
        for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
          const std::int64_t nr = std::min(kNrS8, nb - jr);
          detail::micro_s8_block(kb4 / 4, ap, bqbuf + jr * kb4, tile);
          acc_block_add(tile, acc + ir * ohw + jc + jr, ohw, mr, nr);
        }
      }
    }
    // Requantize this pixel tile while its accumulator columns are still
    // cache-hot; epilogue rows are output channels (leading dimension ohw).
    requant_rows(acc + jc, ohw, out_ch, nb, ep, y + jc, ohw);
  }
}

RT_HOT void conv2d_forward_batch_s8(const std::uint8_t* xq, std::int64_t n,
                                    std::int64_t x_stride, std::int64_t c_in,
                                    std::int64_t h, std::int64_t w,
                                    const ConvGeometry& g,
                                    const std::int8_t* w_panels,
                                    std::int64_t out_ch, std::int32_t* acc,
                                    float* y, std::int64_t y_stride,
                                    const S8Epilogue& ep,
                                    const std::int32_t* gather_idx) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  if (out_ch <= 0 || ohw <= 0 || n <= 0) return;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  const std::int64_t ckk4 = round_up4(ckk);
  if (ckk4 > kKcFullS8) {
    // Deep-k planes go through the blocked per-sample path (they are large
    // enough that per-sample fixed costs no longer matter).
    for (std::int64_t i = 0; i < n; ++i) {
      conv2d_forward_plane_s8(xq + i * x_stride, c_in, h, w, g, w_panels,
                              out_ch, acc, y + i * y_stride, ep, gather_idx);
    }
    return;
  }
  const DecodeTable& dec = decode_table(c_in, g.kernel);
  std::int32_t tile[kMrS8 * kNrS8];

  // Stage padded copies of every sample's plane up front (one borders-hold-
  // 128 copy each, see kPadPlaneCapS8); the whole batch shares the buffer.
  const std::uint8_t* padded = nullptr;
  std::int64_t pw = 0, pstride = 0;
  if (gather_idx == nullptr && g.stride == 1 && g.padding > 0) {
    const std::int64_t pad = g.padding;
    const std::int64_t ph2 = h + 2 * pad, pw2 = w + 2 * pad;
    const std::int64_t per_sample = c_in * ph2 * pw2;
    if (n * per_sample <= kPadPlaneBatchCapS8) {
      alignas(64) thread_local std::uint8_t padbuf[kPadPlaneBatchCapS8];
      for (std::int64_t i = 0; i < n; ++i) {
        const std::uint8_t* src0 = xq + i * x_stride;
        for (std::int64_t c = 0; c < c_in; ++c) {
          std::uint8_t* dstp = padbuf + i * per_sample + c * ph2 * pw2;
          std::memset(dstp, 128, static_cast<std::size_t>(pad * pw2));
          for (std::int64_t ii = 0; ii < h; ++ii) {
            std::uint8_t* row = dstp + (pad + ii) * pw2;
            std::memset(row, 128, static_cast<std::size_t>(pad));
            std::memcpy(row + pad, src0 + (c * h + ii) * w,
                        static_cast<std::size_t>(w));
            std::memset(row + pad + w, 128, static_cast<std::size_t>(pad));
          }
          std::memset(dstp + (pad + h) * pw2, 128,
                      static_cast<std::size_t>(pad * pw2));
        }
      }
      padded = padbuf;
      pw = pw2;
      pstride = per_sample;
    }
  }

  alignas(64) thread_local std::uint8_t bqfull[kKcFullS8 * kNcS8];
  const std::int64_t nj = n * ohw;
  // When kNrS8 divides OH*OW every 16-column tile lies inside one sample
  // and requants straight into its activation rows; otherwise the tile is
  // requantized into a register-sized scratch and scattered per sample run.
  const bool col_aligned = (ohw % kNrS8) == 0;
  for (std::int64_t jc = 0; jc < nj; jc += kNcS8) {
    const std::int64_t nb = std::min(kNcS8, nj - jc);
    pack_col_batch_u8q(xq, x_stride, h, w, g, dec, ckk, jc, nb, ow, ohw,
                       bqfull, gather_idx, padded, pstride, pw);
    for (std::int64_t ir = 0; ir < out_ch; ir += kMrS8) {
      const std::int64_t mr = std::min(kMrS8, out_ch - ir);
      const std::int8_t* ap = w_panels + ir * ckk4;
      S8Epilogue es = ep;
      es.scales = ep.scales + ir;
      if (ep.corr) es.corr = ep.corr + ir;
      if (ep.bias) es.bias = ep.bias + ir;
      for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
        const std::int64_t nr = std::min(kNrS8, nb - jr);
        detail::micro_s8_block(ckk4 / 4, ap, bqfull + jr * ckk4, tile);
        if (col_aligned) {
          const std::int64_t col = jc + jr;
          const std::int64_t i = col / ohw;
          const std::int64_t pix = col - i * ohw;
          requant_rows(tile, kNrS8, mr, nr, es,
                       y + i * y_stride + ir * ohw + pix, ohw);
        } else {
          float ytile[kMrS8 * kNrS8];
          requant_rows(tile, kNrS8, mr, nr, es, ytile, kNrS8);
          std::int64_t col = jc + jr, left = nr, toff = 0;
          while (left > 0) {
            const std::int64_t i = col / ohw;
            const std::int64_t pix = col - i * ohw;
            const std::int64_t seg = std::min(left, ohw - pix);
            float* yb = y + i * y_stride + ir * ohw + pix;
            for (std::int64_t r = 0; r < mr; ++r) {
              std::memcpy(yb + r * ohw, ytile + r * kNrS8 + toff,
                          static_cast<std::size_t>(seg) * sizeof(float));
            }
            col += seg;
            toff += seg;
            left -= seg;
          }
        }
      }
    }
  }
}

#ifdef RT_S8_DIAG_PUSHED
#pragma GCC diagnostic pop
#undef RT_S8_DIAG_PUSHED
#endif

std::vector<std::int32_t> build_s8_gather_index(std::int64_t c_in,
                                                std::int64_t h, std::int64_t w,
                                                const ConvGeometry& g) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  std::vector<std::int32_t> idx(static_cast<std::size_t>(ckk * ohw), -1);
  const DecodeTable& dec = decode_table(c_in, g.kernel);
  for (std::int64_t p = 0; p < ckk; ++p) {
    const auto row = static_cast<std::size_t>(p);
    const std::int64_t base =
        static_cast<std::int64_t>(dec.c[row]) * h * w;
    const std::int64_t ki = dec.ki[row], kj = dec.kj[row];
    for (std::int64_t oi = 0; oi < oh; ++oi) {
      const std::int64_t ii = oi * g.stride - g.padding + ki;
      if (ii < 0 || ii >= h) continue;
      for (std::int64_t oj = 0; oj < ow; ++oj) {
        const std::int64_t jj = oj * g.stride - g.padding + kj;
        if (jj < 0 || jj >= w) continue;
        idx[static_cast<std::size_t>(p * ohw + oi * ow + oj)] =
            static_cast<std::int32_t>(base + ii * w + jj);
      }
    }
  }
  return idx;
}

void conv2d_forward_plane(const float* x, std::int64_t c_in, std::int64_t h,
                          std::int64_t w, const ConvGeometry& g,
                          const float* weight, std::int64_t out_ch, float* y,
                          const float* bias, bool relu,
                          const ConvKernelOpts& opts) {
  const std::int64_t oh = g.out_extent(h);
  const std::int64_t ow = g.out_extent(w);
  if (out_ch <= 0 || oh <= 0 || ow <= 0) return;
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  std::memset(y, 0, static_cast<std::size_t>(out_ch * oh * ow) *
                        sizeof(float));
  switch (resolve_path(opts, weight, out_ch * ckk, /*taps_available=*/true)) {
    case Path::kPacked:
      forward_packed(x, c_in, h, w, g, weight, out_ch, y, opts);
      break;
    case Path::kTaps: forward_taps(x, c_in, h, w, g, weight, out_ch, y);
      break;
    case Path::kRef: forward_ref(x, c_in, h, w, g, weight, out_ch, y); break;
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
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  switch (resolve_path(opts, weight, out_ch * ckk, /*taps_available=*/true)) {
    case Path::kPacked:
      dgrad_packed(weight, out_ch, gout, c_in, h, w, g, dx, opts);
      break;
    case Path::kTaps: dgrad_taps(weight, out_ch, gout, c_in, h, w, g, dx);
      break;
    case Path::kRef: dgrad_ref(weight, out_ch, gout, c_in, h, w, g, dx);
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

float weight_zero_fraction(const float* weight, std::int64_t count) {
  if (count <= 0) return 0.0f;
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    if (weight[i] == 0.0f) ++zeros;
  }
  return static_cast<float>(zeros) / static_cast<float>(count);
}

}  // namespace rt
