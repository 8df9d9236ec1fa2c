// Tests for the symmetric eigensolver, PSD square root, feature statistics,
// the Frechet distance, and the CSR sparse kernels behind the engine.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "linalg/sparse.hpp"
#include "linalg/stats.hpp"
#include "linalg/sym_eig.hpp"

namespace rt {
namespace {

std::vector<float> sparse_random(std::int64_t n, float density,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = rng.uniform() < density ? rng.normal() : 0.0f;
  }
  return v;
}

TEST(CsrMatrix, RoundTripsExactNonzeros) {
  const std::int64_t rows = 7, cols = 13;
  const std::vector<float> dense = sparse_random(rows * cols, 0.2f, 3);
  const CsrMatrix m = csr_from_dense(rows, cols, dense.data());
  std::int64_t expected_nnz = 0;
  for (float x : dense) expected_nnz += x != 0.0f ? 1 : 0;
  EXPECT_EQ(m.nnz(), expected_nnz);
  // Scatter back and compare.
  std::vector<float> back(static_cast<std::size_t>(rows * cols), 0.0f);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int32_t t = m.row_ptr[static_cast<std::size_t>(r)];
         t < m.row_ptr[static_cast<std::size_t>(r) + 1]; ++t) {
      back[static_cast<std::size_t>(r * cols + m.col_idx[t])] = m.values[t];
    }
  }
  EXPECT_EQ(back, dense);
}

TEST(SpmmCsrRhsT, MatchesDenseProduct) {
  const std::int64_t rows = 6, cols = 10, m_samples = 5;
  const std::vector<float> a = sparse_random(rows * cols, 0.3f, 7);
  const std::vector<float> x = sparse_random(m_samples * cols, 1.0f, 8);
  const CsrMatrix m = csr_from_dense(rows, cols, a.data());

  std::vector<float> got(static_cast<std::size_t>(m_samples * rows));
  spmm_csr_rhs_t(m, m_samples, x.data(), got.data());
  for (std::int64_t i = 0; i < m_samples; ++i) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float ref = 0.0f;
      for (std::int64_t k = 0; k < cols; ++k) {
        ref += x[static_cast<std::size_t>(i * cols + k)] *
               a[static_cast<std::size_t>(r * cols + k)];
      }
      EXPECT_NEAR(got[static_cast<std::size_t>(i * rows + r)], ref, 1e-4f);
    }
  }
}

TEST(SymEig, DiagonalMatrix) {
  Tensor a({3, 3});
  a.at(0, 0) = 3.0f;
  a.at(1, 1) = 1.0f;
  a.at(2, 2) = 2.0f;
  const SymEig eig = sym_eig(a);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0f, 1e-5f);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0f, 1e-5f);
  EXPECT_NEAR(eig.eigenvalues[2], 3.0f, 1e-5f);
}

TEST(SymEig, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Tensor a = Tensor::from_data({2, 2}, {2, 1, 1, 2});
  const SymEig eig = sym_eig(a);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0f, 1e-5f);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0f, 1e-5f);
}

TEST(SymEig, ReconstructsMatrix) {
  Rng rng(1);
  const std::int64_t n = 8;
  // Symmetric random matrix.
  Tensor a({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i; j < n; ++j) {
      const float v = rng.normal();
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  const SymEig eig = sym_eig(a);
  // A ?= V diag(w) V^T
  Tensor scaled({n, n});
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < n; ++i) {
      scaled.at(i, j) = eig.eigenvectors.at(i, j) * eig.eigenvalues[j];
    }
  }
  const Tensor recon = matmul(scaled, eig.eigenvectors, false, true);
  EXPECT_LT(a.linf_distance(recon), 1e-4f);
}

TEST(SymEig, EigenvectorsOrthonormal) {
  Rng rng(2);
  const std::int64_t n = 6;
  Tensor a({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i; j < n; ++j) {
      const float v = rng.normal();
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  const SymEig eig = sym_eig(a);
  const Tensor vtv = matmul(eig.eigenvectors, eig.eigenvectors, true, false);
  EXPECT_LT(vtv.linf_distance(eye(n)), 1e-4f);
}

TEST(SymEig, RejectsNonSquare) {
  EXPECT_THROW(sym_eig(Tensor({2, 3})), std::invalid_argument);
  EXPECT_THROW(sym_eig(Tensor({4})), std::invalid_argument);
}

class SymSqrtPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SymSqrtPropertyTest, SquareOfSqrtIsOriginal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::int64_t n = 5 + GetParam() % 4;
  // Random PSD: A = B B^T.
  const Tensor b = Tensor::randn({n, n}, rng);
  const Tensor a = matmul(b, b, false, true);
  const Tensor r = sym_sqrt(a);
  const Tensor rr = matmul(r, r);
  EXPECT_LT(a.linf_distance(rr), 2e-3f * std::max(1.0f, a.max()));
}

INSTANTIATE_TEST_SUITE_P(RandomPsd, SymSqrtPropertyTest,
                         ::testing::Range(1, 9));

TEST(SymSqrt, IdentityRoot) {
  const Tensor r = sym_sqrt(eye(4));
  EXPECT_LT(r.linf_distance(eye(4)), 1e-5f);
}

TEST(Trace, SumsDiagonal) {
  const Tensor a = Tensor::from_data({2, 2}, {1, 9, 9, 2});
  EXPECT_FLOAT_EQ(trace(a), 3.0f);
  EXPECT_THROW(trace(Tensor({2, 3})), std::invalid_argument);
}

TEST(FeatureStats, MeanAndCovariance) {
  // Two points (0,0) and (2,2): mean (1,1), cov [[2,2],[2,2]] (unbiased).
  const Tensor f = Tensor::from_data({2, 2}, {0, 0, 2, 2});
  const FeatureStats s = feature_stats(f);
  EXPECT_FLOAT_EQ(s.mean[0], 1.0f);
  EXPECT_FLOAT_EQ(s.mean[1], 1.0f);
  EXPECT_FLOAT_EQ(s.covariance.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.covariance.at(0, 1), 2.0f);
}

TEST(FrechetDistance, ZeroForIdenticalStats) {
  Rng rng(3);
  const Tensor f = Tensor::randn({64, 8}, rng);
  const FeatureStats s = feature_stats(f);
  EXPECT_NEAR(frechet_distance(s, s), 0.0, 1e-3);
}

TEST(FrechetDistance, MeanShiftOnly) {
  // Same covariance, means differ by d: FID = |d|^2.
  Rng rng(4);
  const Tensor f = Tensor::randn({500, 4}, rng);
  Tensor g = f;
  for (std::int64_t i = 0; i < g.dim(0); ++i) g.at(i, 0) += 3.0f;
  const double fid = frechet_distance(feature_stats(f), feature_stats(g));
  EXPECT_NEAR(fid, 9.0, 0.1);
}

TEST(FrechetDistance, Symmetric) {
  Rng rng(5);
  const Tensor f = Tensor::randn({200, 6}, rng);
  const Tensor g = Tensor::randn({200, 6}, rng, 2.0f);
  const auto sf = feature_stats(f);
  const auto sg = feature_stats(g);
  EXPECT_NEAR(frechet_distance(sf, sg), frechet_distance(sg, sf), 1e-2);
}

TEST(FrechetDistance, GrowsWithVarianceGap) {
  Rng rng(6);
  const Tensor f = Tensor::randn({400, 4}, rng, 1.0f);
  const Tensor g1 = Tensor::randn({400, 4}, rng, 1.5f);
  const Tensor g2 = Tensor::randn({400, 4}, rng, 3.0f);
  const auto sf = feature_stats(f);
  const double d1 = frechet_distance(sf, feature_stats(g1));
  const double d2 = frechet_distance(sf, feature_stats(g2));
  EXPECT_GT(d2, d1);
}

TEST(FrechetDistance, DimensionMismatchThrows) {
  Rng rng(7);
  const auto a = feature_stats(Tensor::randn({10, 3}, rng));
  const auto b = feature_stats(Tensor::randn({10, 4}, rng));
  EXPECT_THROW(frechet_distance(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace rt
