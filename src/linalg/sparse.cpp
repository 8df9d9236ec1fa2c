#include "linalg/sparse.hpp"

#include <cstring>
#include <stdexcept>

namespace rt {

CsrMatrix csr_from_dense(std::int64_t rows, std::int64_t cols,
                         const float* dense) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("csr_from_dense: negative extent");
  }
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.reserve(static_cast<std::size_t>(rows) + 1);
  m.row_ptr.push_back(0);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = dense + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      if (row[c] != 0.0f) {
        m.col_idx.push_back(static_cast<std::int32_t>(c));
        m.values.push_back(row[c]);
      }
    }
    m.row_ptr.push_back(static_cast<std::int32_t>(m.values.size()));
  }
  return m;
}

void spmm_csr_rhs_t(const CsrMatrix& a, std::int64_t m, const float* x,
                    float* y, bool accumulate) {
  if (!accumulate) {
    std::memset(y, 0, static_cast<std::size_t>(m * a.rows) * sizeof(float));
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const float* xrow = x + i * a.cols;
    float* yrow = y + i * a.rows;
    for (std::int64_t r = 0; r < a.rows; ++r) {
      const std::int32_t begin = a.row_ptr[static_cast<std::size_t>(r)];
      const std::int32_t end = a.row_ptr[static_cast<std::size_t>(r) + 1];
      float acc = 0.0f;
      for (std::int32_t t = begin; t < end; ++t) {
        acc += a.values[static_cast<std::size_t>(t)] *
               xrow[a.col_idx[static_cast<std::size_t>(t)]];
      }
      yrow[r] += acc;
    }
  }
}

}  // namespace rt
