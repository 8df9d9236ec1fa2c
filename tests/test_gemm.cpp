// Randomized conformance tests for the blocked/parallel GEMM kernels in
// linalg/gemm.hpp: every transpose variant, accumulate on/off, dense and
// heavily masked operands, shapes small enough to stay serial and large
// enough to cross the blocking and parallel thresholds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "linalg/gemm.hpp"

namespace rt {
namespace {

enum class Variant { kNN, kNT, kTN, kTT };

const char* name(Variant v) {
  switch (v) {
    case Variant::kNN: return "nn";
    case Variant::kNT: return "nt";
    case Variant::kTN: return "tn";
    case Variant::kTT: return "tt";
  }
  return "?";
}

// op(A)(i, kk): A is stored (m, k) untransposed or (k, m) transposed.
float a_at(const std::vector<float>& a, Variant v, std::int64_t m,
           std::int64_t k, std::int64_t i, std::int64_t kk) {
  const bool trans = v == Variant::kTN || v == Variant::kTT;
  return trans ? a[static_cast<std::size_t>(kk * m + i)]
               : a[static_cast<std::size_t>(i * k + kk)];
}

// op(B)(kk, j): B is stored (k, n) untransposed or (n, k) transposed.
float b_at(const std::vector<float>& b, Variant v, std::int64_t n,
           std::int64_t k, std::int64_t kk, std::int64_t j) {
  const bool trans = v == Variant::kNT || v == Variant::kTT;
  return trans ? b[static_cast<std::size_t>(j * k + kk)]
               : b[static_cast<std::size_t>(kk * n + j)];
}

std::vector<float> naive(const std::vector<float>& a,
                         const std::vector<float>& b, Variant v,
                         std::int64_t m, std::int64_t n, std::int64_t k,
                         std::vector<float> c, bool accumulate) {
  if (!accumulate) c.assign(static_cast<std::size_t>(m * n), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a_at(a, v, m, k, i, kk) * b_at(b, v, n, k, kk, j);
      }
      c[static_cast<std::size_t>(i * n + j)] += acc;
    }
  }
  return c;
}

void run_variant(const std::vector<float>& a, const std::vector<float>& b,
                 Variant v, std::int64_t m, std::int64_t n, std::int64_t k,
                 float* c, const GemmOpts& opts) {
  switch (v) {
    case Variant::kNN: gemm_nn(m, n, k, a.data(), b.data(), c, opts); break;
    case Variant::kNT: gemm_nt(m, n, k, a.data(), b.data(), c, opts); break;
    case Variant::kTN: gemm_tn(m, n, k, a.data(), b.data(), c, opts); break;
    case Variant::kTT: gemm_tt(m, n, k, a.data(), b.data(), c, opts); break;
  }
}

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 Rng& rng, float zero_fraction) {
  std::vector<float> out(static_cast<std::size_t>(rows * cols));
  for (float& v : out) {
    v = rng.uniform(0.0f, 1.0f) < zero_fraction ? 0.0f
                                                : rng.uniform(-1.0f, 1.0f);
  }
  return out;
}

void check_case(std::int64_t m, std::int64_t n, std::int64_t k,
                float zero_fraction, bool parallel, Rng& rng) {
  for (const Variant v : {Variant::kNN, Variant::kNT, Variant::kTN,
                          Variant::kTT}) {
    const std::vector<float> a = random_matrix(m, k, rng, zero_fraction);
    const std::vector<float> b = random_matrix(k, n, rng, zero_fraction);
    for (const bool accumulate : {false, true}) {
      // Both dispatch families must conform: the packed register-tiled path
      // (default) and the legacy streaming cores (packed=false, the
      // reference baseline the conv kernels benchmark against).
      for (const bool packed : {true, false}) {
        std::vector<float> c = random_matrix(m, n, rng, 0.0f);
        const std::vector<float> want =
            naive(a, b, v, m, n, k, c, accumulate);
        run_variant(a, b, v, m, n, k, c.data(),
                    {.accumulate = accumulate, .parallel = parallel,
                     .packed = packed});
        for (std::int64_t i = 0; i < m * n; ++i) {
          const float w = want[static_cast<std::size_t>(i)];
          ASSERT_NEAR(c[static_cast<std::size_t>(i)], w,
                      1e-4f * std::max(1.0f, std::fabs(w)))
              << "variant=" << name(v) << " m=" << m << " n=" << n
              << " k=" << k << " acc=" << accumulate << " packed=" << packed
              << " zeros=" << zero_fraction << " index=" << i;
        }
      }
    }
  }
}

TEST(Gemm, RandomShapeSweepDense) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 12; ++trial) {
    const auto m = static_cast<std::int64_t>(rng.uniform_int(1, 48));
    const auto n = static_cast<std::int64_t>(rng.uniform_int(1, 48));
    const auto k = static_cast<std::int64_t>(rng.uniform_int(1, 48));
    check_case(m, n, k, 0.0f, /*parallel=*/false, rng);
  }
}

TEST(Gemm, RandomShapeSweepSparse) {
  // >= 50% zeroed operands: the masked-ticket regime the fast paths target.
  Rng rng(0xBADB17);
  for (int trial = 0; trial < 8; ++trial) {
    const auto m = static_cast<std::int64_t>(rng.uniform_int(1, 40));
    const auto n = static_cast<std::int64_t>(rng.uniform_int(1, 40));
    const auto k = static_cast<std::int64_t>(rng.uniform_int(1, 40));
    const float zeros = 0.5f + 0.45f * rng.uniform(0.0f, 1.0f);
    check_case(m, n, k, zeros, /*parallel=*/false, rng);
  }
}

TEST(Gemm, BlockedAndParallelPaths) {
  // Shapes past the k/j panel sizes (128/256) and the parallel FLOP
  // threshold, dense and sparse, so the panel edges and row partitioning of
  // the Scheduler path are all exercised.
  Rng rng(0x5EED);
  check_case(70, 300, 150, 0.0f, /*parallel=*/true, rng);
  check_case(65, 130, 260, 0.6f, /*parallel=*/true, rng);
  check_case(1, 300, 300, 0.0f, /*parallel=*/true, rng);
  check_case(300, 1, 300, 0.5f, /*parallel=*/true, rng);
}

TEST(Gemm, FullyMaskedBRowsAreSkippedButCorrect) {
  // Channel-pruned weights: whole rows of B zeroed in the nt dot core.
  Rng rng(0xDEAD);
  const std::int64_t m = 9, n = 17, k = 33;
  std::vector<float> a = random_matrix(m, k, rng, 0.0f);
  std::vector<float> b = random_matrix(n, k, rng, 0.0f);
  for (std::int64_t j = 0; j < n; j += 2) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      b[static_cast<std::size_t>(j * k + kk)] = 0.0f;
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m * n), -7.0f);
  gemm_nt(m, n, k, a.data(), b.data(), c.data(), {.accumulate = false});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; j += 2) {
      EXPECT_EQ(c[static_cast<std::size_t>(i * n + j)], 0.0f);
    }
  }
  // Disabling the scan (activation-operand mode) routes onto the packed
  // register-tiled kernel instead of the skipping dot core; the two must
  // agree numerically (different summation orders, so not bitwise), and
  // fully zero B rows must still produce exact zeros.
  std::vector<float> c2(static_cast<std::size_t>(m * n), -7.0f);
  gemm_nt(m, n, k, a.data(), b.data(), c2.data(),
          {.accumulate = false, .skip_zero_b_rows = false});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float got = c2[static_cast<std::size_t>(i * n + j)];
      const float want = c[static_cast<std::size_t>(i * n + j)];
      if (j % 2 == 0) {
        EXPECT_EQ(got, 0.0f);
      } else {
        EXPECT_NEAR(got, want, 1e-4f * std::max(1.0f, std::fabs(want)));
      }
    }
  }
}

TEST(Gemm, DegenerateKZeroesOrPreservesC) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm_nn(2, 2, 0, nullptr, nullptr, c.data(), {.accumulate = true});
  EXPECT_EQ(c[0], 1.0f);
  gemm_nn(2, 2, 0, nullptr, nullptr, c.data(), {.accumulate = false});
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace rt
