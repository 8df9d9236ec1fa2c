#include "linalg/gemm.hpp"

#include <algorithm>
#include <cstring>

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

void zero_rows(float* c, std::int64_t n, std::int64_t i0, std::int64_t i1) {
  std::memset(c + i0 * n, 0, static_cast<std::size_t>((i1 - i0) * n) *
                                 sizeof(float));
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

// The one body of all four variants: C's row blocks run packed_core, split
// across the scheduler once the FLOP count pays for the fork/join.
template <bool kTransA, bool kTransB>
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          const float* b, float* c, const GemmOpts& opts) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!opts.accumulate) zero_rows(c, n, 0, m);
    return;
  }
  const auto core = [&](std::int64_t i0, std::int64_t i1) {
    packed_core<kTransA, kTransB>(m, n, k, a, b, c, opts.accumulate, i0, i1);
  };
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

}  // namespace

void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts) {
  gemm<false, false>(m, n, k, a, b, c, opts);
}

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts) {
  gemm<false, true>(m, n, k, a, b, c, opts);
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts) {
  gemm<true, false>(m, n, k, a, b, c, opts);
}

void gemm_tt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts) {
  gemm<true, true>(m, n, k, a, b, c, opts);
}

}  // namespace rt
