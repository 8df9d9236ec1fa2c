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
// Every call runs one packed, register-tiled micro-kernel
// (linalg/microkernel.hpp): operands are gathered into zero-padded panels —
// the packing step is where any transposition is paid, so all four variants
// sustain the same throughput — and a kMr x kNr accumulator block (8 x 16 on
// AVX-512 builds, 8 x 8 otherwise) lives in registers across the whole k
// panel. The kernels split disjoint row blocks of C into stealable tasks on
// the current work-stealing scheduler when the FLOP count amortizes the
// fork/join cost; nested under an outer batch loop, those blocks backfill
// idle workers instead of running inline.
//
// The kernels never inspect the operands: zeros are multiplied like any
// other value, so an all-zero row of B (with a finite A) gives exact zeros
// in C. Sparse
// tickets save their time where the executor is chosen once per layer —
// the conv tap rule (linalg/conv.hpp), which Engine::compile freezes per
// plan layer, and its channel-compact plans — not per GEMM call. The
// engine's plans, the classifier head included, run no GEMM.

#include <cstdint>

namespace rt {

struct GemmOpts {
  bool accumulate = false;  ///< C += product instead of C = product.
  bool parallel = true;     ///< Allow splitting C rows across the Scheduler.
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
