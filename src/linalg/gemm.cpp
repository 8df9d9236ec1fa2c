#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/audit.hpp"
#include "common/scheduler.hpp"
#include "linalg/microkernel.hpp"

namespace rt {

namespace {

// A-block height for the packed path: one packed A block (kMc x kKc floats =
// 32 KiB) stays L1-resident while the B panel streams through it.
constexpr std::int64_t kMc = 64;

// Minimum multiply count before fork/join pays for itself.
constexpr std::int64_t kParallelWork = 1 << 18;

// When the whole B operand sits in cache (<= 1 MiB of floats), the panel
// loops only add overhead; stream it unblocked like the old kernels did.
constexpr std::int64_t kCacheResidentFloats = 1 << 18;

// Dispatch thresholds between the packed register-tiled path (dense) and the
// zero-skipping legacy cores (masked tickets). The packed kernel runs dense
// FLOPs ~5x faster than the streaming axpy/dot cores (62 vs ~12 GFLOP/s
// single-thread on the reference host), so skipping only wins once the
// skipped fraction outweighs that ratio — around 80% zeros.
constexpr float kSparseAFraction = 0.80f;
constexpr float kSparseBRowFraction = 0.80f;

void zero_rows(float* c, std::int64_t n, std::int64_t i0, std::int64_t i1) {
  std::memset(c + i0 * n, 0, static_cast<std::size_t>((i1 - i0) * n) *
                                 sizeof(float));
}

// Deterministic strided sample of the A operand's zero fraction (both nn and
// tn store A contiguously as m*k floats). At most 1024 loads, so the probe
// costs a vanishing fraction of any GEMM large enough for the answer to
// matter; masked-ticket weights are zeroed uniformly, which strided sampling
// estimates well. The stride is forced odd so it cannot alias with a
// power-of-two column count (the common channel sizes) and sample a single
// column of a column-structured mask.
float sample_zero_fraction(const float* a, std::int64_t count) {
  const std::int64_t samples = std::min<std::int64_t>(count, 1024);
  if (samples <= 0) return 0.0f;
  // Ceiling division so the probes span the whole operand even when count
  // is just past the sample budget (floor would give stride 1 and measure
  // only a prefix).
  const std::int64_t stride = ((count + samples - 1) / samples) | 1;
  std::int64_t taken = 0, zeros = 0;
  for (std::int64_t idx = 0; taken < samples && idx < count;
       idx += stride, ++taken) {
    if (a[idx] == 0.0f) ++zeros;
  }
  return taken > 0 ? static_cast<float>(zeros) / static_cast<float>(taken)
                   : 0.0f;
}

// axpy cores: crow += av * brow; A supplies the multiplier either
// untransposed (a[i*k + kk]) or transposed (a[kk*m + i]). Zero multipliers —
// masked ticket weights — skip the whole row update. The unblocked and
// blocked bodies are separate small functions on purpose: folding them into
// one routine raises register pressure enough that GCC spills the inner-loop
// bound and the streaming axpy loses ~25% throughput.
template <bool kTransA>
void axpy_unblocked(std::int64_t m, std::int64_t n, std::int64_t k,
                    const float* a, const float* b, float* c, std::int64_t i0,
                    std::int64_t i1) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = kTransA ? a[kk * m + i] : a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

template <bool kTransA>
void axpy_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, const float* b, float* c, std::int64_t i0,
                  std::int64_t i1) {
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t jb = std::min(kNc, n - jc);
    for (std::int64_t kc = 0; kc < k; kc += kKc) {
      const std::int64_t ke = std::min(kc + kKc, k);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = c + i * n + jc;
        for (std::int64_t kk = kc; kk < ke; ++kk) {
          const float av = kTransA ? a[kk * m + i] : a[i * k + kk];
          if (av == 0.0f) continue;
          const float* brow = b + kk * n + jc;
          for (std::int64_t j = 0; j < jb; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

template <bool kTransA>
void axpy_core(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
               const float* b, float* c, bool accumulate, std::int64_t i0,
               std::int64_t i1) {
  if (!accumulate) zero_rows(c, n, i0, i1);
  if (k * n <= kCacheResidentFloats) {
    axpy_unblocked<kTransA>(m, n, k, a, b, c, i0, i1);
  } else {
    axpy_blocked<kTransA>(m, n, k, a, b, c, i0, i1);
  }
}

// dot core: crow[j] += <arow, B-row j> over k-panels; B is (n x k) and rows
// that are entirely zero (channel-pruned weights) are skipped wholesale via
// the precomputed skip mask (null when the caller disabled the scan).
void dot_core(std::int64_t n, std::int64_t k, const float* a, const float* b,
              float* c, bool accumulate, const std::uint8_t* b_row_zero,
              std::int64_t i0, std::int64_t i1) {
  if (!accumulate) zero_rows(c, n, i0, i1);
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t je = std::min(jc + kNc, n);
    for (std::int64_t kc = 0; kc < k; kc += kKc) {
      const std::int64_t kb = std::min(kKc, k - kc);
      for (std::int64_t i = i0; i < i1; ++i) {
        const float* arow = a + i * k + kc;
        float* crow = c + i * n;
        for (std::int64_t j = jc; j < je; ++j) {
          if (b_row_zero && b_row_zero[static_cast<std::size_t>(j)]) continue;
          const float* brow = b + j * k + kc;
          float acc = 0.0f;
          for (std::int64_t kk = 0; kk < kb; ++kk) acc += arow[kk] * brow[kk];
          crow[j] += acc;
        }
      }
    }
  }
}

// Pack-buffer scratch for the packed cores. The tile shapes are compile-time
// constants, so plain arrays (not vectors) make every packed_core
// instantiation allocation-free. The buffer lives behind one non-template
// accessor: a thread_local inside packed_core would be one 160 KiB block per
// transpose variant, and glibc zeroes a thread's whole static TLS at thread
// start. A thread runs one packed_core at a time, so one block is enough.
struct PackBuffers {
  float a[kMc * kKc];
  float b[kKc * kNc];
};

PackBuffers& pack_buffers() {
  thread_local PackBuffers bufs;
  return bufs;
}

// Packed register-tiled core: all four transpose variants flow through the
// same kMr x kNr micro-kernel (linalg/microkernel.hpp); the variants differ
// only in which packing routine gathers the panels. B panels are packed per
// (jc, kc) tile and A blocks per (jc, kc, ic) — the repack traffic is
// 1/kNc resp. 1/kMc of the FLOP count, paid once so the inner loop streams
// contiguous zero-padded panels with no edge branches.
template <bool kTransA, bool kTransB>
RT_HOT void packed_core(std::int64_t m, std::int64_t n, std::int64_t k,
                        const float* a, const float* b, float* c,
                        bool accumulate, std::int64_t i0, std::int64_t i1) {
  if (!accumulate) zero_rows(c, n, i0, i1);
  PackBuffers& bufs = pack_buffers();
  float* const abuf = bufs.a;
  float* const bbuf = bufs.b;
  const std::int64_t lda = kTransA ? m : k;
  const std::int64_t ldb = kTransB ? k : n;
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nb = std::min(kNc, n - jc);
    for (std::int64_t kc = 0; kc < k; kc += kKc) {
      const std::int64_t kb = std::min(kKc, k - kc);
      if (kTransB) {
        pack_b_cols_trans(b, ldb, kc, kb, jc, nb, bbuf);
      } else {
        pack_b_cols(b, ldb, kc, kb, jc, nb, bbuf);
      }
      for (std::int64_t ic = i0; ic < i1; ic += kMc) {
        const std::int64_t mb = std::min(kMc, i1 - ic);
        if (kTransA) {
          pack_a_rows_trans(a, lda, ic, mb, kc, kb, abuf);
        } else {
          pack_a_rows(a, lda, ic, mb, kc, kb, abuf);
        }
        packed_block_multiply(mb, nb, kb, abuf, bbuf, c + ic * n + jc, n);
      }
    }
  }
}

// One early-exiting pass over B's rows; dense rows cost one load each.
std::vector<std::uint8_t> scan_zero_rows(std::int64_t n, std::int64_t k,
                                         const float* b) {
  std::vector<std::uint8_t> zero(static_cast<std::size_t>(n), 1);
  for (std::int64_t j = 0; j < n; ++j) {
    const float* brow = b + j * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      if (brow[kk] != 0.0f) {
        zero[static_cast<std::size_t>(j)] = 0;
        break;
      }
    }
  }
  return zero;
}

template <typename Core>
void dispatch(std::int64_t m, std::int64_t n, std::int64_t k, float* c,
              const GemmOpts& opts, const Core& core) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!opts.accumulate) zero_rows(c, n, 0, m);
    return;
  }
  if (opts.parallel && m > 1 && m * n * k >= kParallelWork) {
    // Row-block tasks on the work-stealing scheduler: leaves are stealable,
    // so a gemm nested under an outer batch loop lends its row blocks to
    // idle workers instead of flattening to serial. The kMr floor keeps a
    // leaf at no less than one micro-panel of rows — below that the packed
    // path would re-pack B once per sliver of C and the repack traffic
    // would swamp the extra parallelism.
    Scheduler& sched = Scheduler::current();
    const auto threads = static_cast<std::int64_t>(sched.num_threads());
    const std::int64_t grain = std::max(kMr, m / (4 * threads));
    sched.parallel_for(m, core, grain);
  } else {
    core(0, m);
  }
}

// Shared body of gemm_nn / gemm_tn: packed tiling for dense A, the
// element-skipping axpy core once A is masked past the crossover.
template <bool kTransA>
void gemm_axpy_family(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, const float* b, float* c,
                      const GemmOpts& opts) {
  const bool sparse =
      !opts.packed ||
      (m > 0 && n > 0 && k > 0 &&
       sample_zero_fraction(a, m * k) >= kSparseAFraction);
  dispatch(m, n, k, c, opts, [&](std::int64_t i0, std::int64_t i1) {
    if (sparse) {
      axpy_core<kTransA>(m, n, k, a, b, c, opts.accumulate, i0, i1);
    } else {
      packed_core<kTransA, false>(m, n, k, a, b, c, opts.accumulate, i0, i1);
    }
  });
}

}  // namespace

void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts) {
  gemm_axpy_family<false>(m, n, k, a, b, c, opts);
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts) {
  gemm_axpy_family<true>(m, n, k, a, b, c, opts);
}

namespace {

/// Shared nt-shape body: `b_row_zero` is the all-zero-row scan of B (empty
/// when the caller disabled it). Past the crossover the dot core skips
/// those rows wholesale; below it the packed path is faster even counting
/// the wasted zero FLOPs.
void gemm_nt_dispatch(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, const float* b, float* c,
                      const GemmOpts& opts,
                      const std::vector<std::uint8_t>& b_row_zero) {
  std::int64_t zero_count = 0;
  for (const std::uint8_t z : b_row_zero) zero_count += z;
  const bool sparse =
      !opts.packed ||
      static_cast<float>(zero_count) >=
          kSparseBRowFraction * static_cast<float>(n);
  if (sparse) {
    const std::uint8_t* mask =
        b_row_zero.empty() ? nullptr : b_row_zero.data();
    dispatch(m, n, k, c, opts, [&](std::int64_t i0, std::int64_t i1) {
      dot_core(n, k, a, b, c, opts.accumulate, mask, i0, i1);
    });
  } else {
    dispatch(m, n, k, c, opts, [&](std::int64_t i0, std::int64_t i1) {
      packed_core<false, true>(m, n, k, a, b, c, opts.accumulate, i0, i1);
    });
  }
}

}  // namespace

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts) {
  if (m <= 0 || n <= 0 || k <= 0) {
    dispatch(m, n, k, c, opts, [](std::int64_t, std::int64_t) {});
    return;
  }
  std::vector<std::uint8_t> b_row_zero;
  if (opts.skip_zero_b_rows) b_row_zero = scan_zero_rows(n, k, b);
  gemm_nt_dispatch(m, n, k, a, b, c, opts, b_row_zero);
}

void gemm_tt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts) {
  if (m <= 0 || n <= 0 || k <= 0) {
    dispatch(m, n, k, c, opts, [](std::int64_t, std::int64_t) {});
    return;
  }
  // Same B-row crossover contract as gemm_nt; the scan runs once here and
  // feeds the shared dispatcher on the sparse path.
  std::vector<std::uint8_t> b_row_zero;
  std::int64_t zero_count = 0;
  if (opts.skip_zero_b_rows) {
    b_row_zero = scan_zero_rows(n, k, b);
    for (const std::uint8_t z : b_row_zero) zero_count += z;
  }
  const bool sparse =
      !opts.packed ||
      static_cast<float>(zero_count) >=
          kSparseBRowFraction * static_cast<float>(n);
  if (!sparse) {
    // Both transposes are absorbed by the packing routines; no A^T copy.
    dispatch(m, n, k, c, opts, [&](std::int64_t i0, std::int64_t i1) {
      packed_core<true, true>(m, n, k, a, b, c, opts.accumulate, i0, i1);
    });
    return;
  }
  // Skip/reference path (no hot caller transposes both sides): materialize
  // A^T once, then reuse the nt machinery with the scan already in hand.
  std::vector<float> at(static_cast<std::size_t>(m * k));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    for (std::int64_t i = 0; i < m; ++i) at[static_cast<std::size_t>(i * k + kk)] = arow[i];
  }
  gemm_nt_dispatch(m, n, k, at.data(), b, c, opts, b_row_zero);
}

}  // namespace rt
