#pragma once
// Compressed sparse row (CSR) matrices: the shippable encoding of an
// unstructured ticket's layers, and the SpMM kernel behind the engine's CSR
// classifier head.
//
// The dense GEMM kernels in linalg/gemm.hpp multiply every weight, zeros
// included. Packing a weight into CSR once (at Engine::compile time) makes
// each later multiply proportional to the nonzero count instead; the
// engine's CSR convs run their own compile-time executors (engine/plan.cpp)
// and only the head calls spmm_csr_rhs_t. Column indices are 32-bit —
// weight matrices here are at most a few thousand columns wide.

#include <cstdint>
#include <vector>

namespace rt {

struct CsrMatrix {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int32_t> row_ptr;  ///< size rows + 1
  std::vector<std::int32_t> col_idx;  ///< size nnz
  std::vector<float> values;          ///< size nnz

  std::int64_t nnz() const { return static_cast<std::int64_t>(values.size()); }
  bool empty() const { return rows == 0; }
};

/// Packs a row-major dense (rows, cols) matrix, keeping exact nonzeros.
CsrMatrix csr_from_dense(std::int64_t rows, std::int64_t cols,
                         const float* dense);

/// Y(m, rows) = X * A^T with X dense (m, cols) row-major: the linear-layer
/// shape y = x W^T. Cost is O(m * nnz).
void spmm_csr_rhs_t(const CsrMatrix& a, std::int64_t m, const float* x,
                    float* y, bool accumulate = false);

}  // namespace rt
