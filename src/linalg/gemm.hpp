#pragma once
// Single-precision GEMM kernels: the one hot path shared by Linear, Conv2d
// (implicit-GEMM convolution), Tensor::matmul, and the analysis stack.
//
// All matrices are packed row-major (leading dimension == stored column
// count). The four variants name the storage of A and B before the implied
// transposition:
//
//   gemm_nn: C(m,n) = A(m,k)   * B(k,n)
//   gemm_nt: C(m,n) = A(m,k)   * B(n,k)^T
//   gemm_tn: C(m,n) = A(k,m)^T * B(k,n)
//   gemm_tt: C(m,n) = A(k,m)^T * B(n,k)^T
//
// Dense operands run through one packed, register-tiled micro-kernel
// (linalg/microkernel.hpp): operands are gathered into zero-padded panels —
// the packing step is where any transposition is paid, so all four variants
// sustain the same dense throughput — and a kMr x kNr accumulator block
// (8 x 16 on AVX-512 builds, 8 x 8 otherwise) lives in registers across the
// whole k panel. The kernels split disjoint row blocks of C into stealable
// tasks on the current work-stealing scheduler when the FLOP count
// amortizes the fork/join cost; nested under an outer batch
// loop, those blocks backfill idle workers instead of running inline.
//
// Masked-ticket workloads dominate this codebase, so each call samples its
// weight operand and switches to a zero-skipping core past the crossover
// where skipping beats the packed kernel's higher dense throughput: zero
// multipliers are skipped element-wise in the axpy cores (nn/tn), and rows
// of B that are entirely zero — e.g. channel-pruned weights — are skipped
// wholesale in the dot cores (nt/tt).

#include <cstdint>

namespace rt {

struct GemmOpts {
  bool accumulate = false;  ///< C += product instead of C = product.
  bool parallel = true;     ///< Allow splitting C rows across the Scheduler.
  /// nt/tt only: scan B for all-zero rows (channel-pruned weights) and skip
  /// them wholesale. Disable when B is an activation buffer that is never
  /// structurally zero — the scan costs one extra pass over B per call.
  bool skip_zero_b_rows = true;
  /// Allow the packed register-tiled path for dense operands. Disable to
  /// force the legacy streaming cores — the pre-packing baseline, kept as a
  /// reference for tests and speedup benchmarks.
  bool packed = true;
};

void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts = {});
void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts = {});
void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts = {});
void gemm_tt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts = {});

}  // namespace rt
