#include "common/rng.hpp"

#include <cmath>

#include "common/numeric.hpp"

namespace rt {

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(0u), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Rng::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint32_t Rng::next_below(std::uint32_t bound) {
  // Lemire-style rejection to avoid modulo bias.
  const std::uint32_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % bound;
  }
}

float Rng::uniform() {
  // 24 high bits -> float in [0, 1).
  return static_cast<float>(next_u32() >> 8) * 0x1.0p-24f;
}

// The affine draws are one std::fma each, so their bits do not depend on
// whether the compiler contracts a*b+c for the target ISA.
float Rng::uniform(float lo, float hi) {
  return std::fma(hi - lo, uniform(), lo);
}

int Rng::uniform_int(int lo, int hi) {
  return lo + static_cast<int>(
                  next_below(static_cast<std::uint32_t>(hi - lo + 1)));
}

float Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to keep the log finite.
  float u1 = 1.0f - uniform();
  const float u2 = uniform();
  const float r = std::sqrt(-2.0f * std::log(u1));
  const float theta = kTwoPi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

float Rng::normal(float mean, float stddev) {
  return std::fma(stddev, normal(), mean);
}

bool Rng::bernoulli(float p) { return uniform() < p; }

Rng Rng::split() {
  const std::uint64_t seed =
      (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  const std::uint64_t stream =
      (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  return Rng(seed, stream);
}

std::vector<int> random_permutation(int n, Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  rng.shuffle(perm);
  return perm;
}

}  // namespace rt
