// The host-speed reference work. It is built as its own library with the
// benchmark's fixed flags and nothing from the rt library (see
// CMakeLists.txt), so no change to the program can change its speed.

#include "reference.hpp"

namespace e2e {

namespace {

constexpr int kN = 64;
constexpr int kRowBytes = 3 * 16 * 16 * 4;

/// C += A * B for 64x64 row-major matrices: the i-k-j order the compiler
/// vectorizes, multiply-add bound and resident in L1.
__attribute__((noinline)) void gemm64(const float* a, const float* b,
                                      float* c) {
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < kN; ++k) {
      const float aik = a[i * kN + k];
      for (int j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
    }
  }
}

/// 64-bit FNV-1a: one dependent multiply per byte.
__attribute__((noinline)) std::uint64_t fnv1a(const unsigned char* p, int n,
                                              std::uint64_t h) {
  for (int i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

float vector_burst() {
  static thread_local float a[kN * kN], b[kN * kN], c[kN * kN];
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = 0.5f;
    b[i] = 0.25f;
    c[i] = 0.0f;
  }
  for (int r = 0; r < kVectorGemms; ++r) gemm64(a, b, c);
  return c[0];
}

std::uint64_t scalar_burst() {
  static thread_local unsigned char row[kRowBytes];
  for (int i = 0; i < kRowBytes; ++i) row[i] = static_cast<unsigned char>(i);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int r = 0; r < kScalarRows; ++r) h = fnv1a(row, kRowBytes, h);
  return h;
}

}  // namespace e2e
