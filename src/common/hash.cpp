#include "common/hash.hpp"

#include <bit>
#include <cstring>

namespace rt {

namespace {

static_assert(std::endian::native == std::endian::little,
              "hash64 reads words little-endian via memcpy; a big-endian "
              "port needs byte swaps to keep fingerprints portable");

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

std::uint64_t read64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t read32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t lane) {
  acc += lane * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t merge(std::uint64_t acc, std::uint64_t lane_acc) {
  acc ^= lane_round(0, lane_acc);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t hash64(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  std::uint64_t acc = seed + kPrime5;
  if (bytes >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = lane_round(v1, read64(p));
      v2 = lane_round(v2, read64(p + 8));
      v3 = lane_round(v3, read64(p + 16));
      v4 = lane_round(v4, read64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
          std::rotl(v4, 18);
    acc = merge(acc, v1);
    acc = merge(acc, v2);
    acc = merge(acc, v3);
    acc = merge(acc, v4);
  }
  acc += static_cast<std::uint64_t>(bytes);

  for (; end - p >= 8; p += 8) {
    acc ^= lane_round(0, read64(p));
    acc = std::rotl(acc, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    acc ^= static_cast<std::uint64_t>(read32(p)) * kPrime1;
    acc = std::rotl(acc, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    acc ^= static_cast<std::uint64_t>(*p) * kPrime5;
    acc = std::rotl(acc, 11) * kPrime1;
  }

  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

}  // namespace rt
