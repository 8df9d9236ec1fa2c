// Unit tests for common utilities: RNG, content hash, scheduler
// parallel_for, tables.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/scheduler.hpp"

namespace rt {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform();
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
    const float w = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(w, -2.0f);
    EXPECT_LT(w, 3.0f);
  }
}

TEST(Rng, AffineDrawsAreOneFusedMultiplyAdd) {
  // uniform(lo, hi) and normal(mean, stddev) are one std::fma over the unit
  // draw, so their bits do not depend on whether the build's ISA lets the
  // compiler contract a*b+c (the portable build has no FMA to contract to).
  Rng got(41), ref(41);
  const auto bits = [](float v) {
    std::uint32_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (int i = 0; i < 20000; ++i) {
    const float lo = 3.5f, hi = 5.0f;
    ASSERT_EQ(bits(got.uniform(lo, hi)),
              bits(std::fma(hi - lo, ref.uniform(), lo)))
        << "uniform draw " << i;
    ASSERT_EQ(bits(got.normal(0.3f, 0.7f)),
              bits(std::fma(0.7f, ref.normal(), 0.3f)))
        << "normal draw " << i;
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(77);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BernoulliRate) {
  Rng rng(31);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3f) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(11);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next_u32() == c2.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, PermutationIsBijective) {
  Rng rng(3);
  const auto perm = random_permutation(100, rng);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

// ---- hash64 (XXH64) ---------------------------------------------------------

// xxHash's sanity buffer: byte i is the top byte of a multiplicative
// sequence seeded by PRIME32_1 and stepped by PRIME64_1. Constexpr, so the
// inputs behind the pinned values below are fixed at compile time.
constexpr std::size_t kSanityBytes = 4096;
constexpr std::uint64_t kPrime32 = 2654435761ULL;

constexpr std::array<unsigned char, kSanityBytes> sanity_buffer() {
  std::array<unsigned char, kSanityBytes> buf{};
  std::uint64_t gen = kPrime32;
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(gen >> 56);
    gen *= 11400714785074694797ULL;
  }
  return buf;
}

struct HashVector {
  std::size_t bytes;
  std::uint64_t seed;
  std::uint64_t want;
};

// Byte-at-a-time XXH64 written straight from the spec: words are assembled
// from single bytes, one stripe lane at a time, so it shares no load or
// loop structure with the memcpy-based word-at-a-time implementation.
std::uint64_t reference_xxh64(const unsigned char* p, std::size_t n,
                              std::uint64_t seed) {
  constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t k2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t k3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t k4 = 0x85EBCA77C2B2AE63ULL;
  constexpr std::uint64_t k5 = 0x27D4EB2F165667C5ULL;
  const auto rotl = [](std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  const auto word = [&](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int b = width - 1; b >= 0; --b) v = (v << 8) | p[at + b];
    return v;
  };
  const auto lane_round = [&](std::uint64_t acc, std::uint64_t lane) {
    return rotl(acc + lane * k2, 31) * k1;
  };
  std::size_t i = 0;
  std::uint64_t acc = seed + k5;
  if (n >= 32) {
    std::uint64_t v[4] = {seed + k1 + k2, seed + k2, seed, seed - k1};
    for (; i + 32 <= n; i += 32) {
      for (int lane = 0; lane < 4; ++lane) {
        v[lane] = lane_round(v[lane], word(i + 8 * lane, 8));
      }
    }
    acc = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (const std::uint64_t lane_acc : v) {
      acc = (acc ^ lane_round(0, lane_acc)) * k1 + k4;
    }
  }
  acc += n;
  for (; i + 8 <= n; i += 8) {
    acc = rotl(acc ^ lane_round(0, word(i, 8)), 27) * k1 + k4;
  }
  if (i + 4 <= n) {
    acc = rotl(acc ^ (word(i, 4) * k1), 23) * k2 + k3;
    i += 4;
  }
  for (; i < n; ++i) acc = rotl(acc ^ (p[i] * k5), 11) * k1;
  acc ^= acc >> 33;
  acc *= k2;
  acc ^= acc >> 29;
  acc *= k3;
  acc ^= acc >> 32;
  return acc;
}

TEST(Hash64, PinsPublishedAndLongVectors) {
  // The first nine are xxHash's own sanity-check values (xxhsum) over the
  // buffer above: they pin conformance with the reference XXH64, not just
  // self-consistency. The rest reach the 32-byte stripe loop and its
  // boundaries, up to one 3x16x16 float row (3072 bytes); they were
  // cross-checked against an independent implementation of the spec.
  constexpr std::array<HashVector, 15> kWant = {{
      {0, 0, 0xEF46DB3751D8E999ULL},
      {0, kPrime32, 0xAC75FDA2929B17EFULL},
      {1, 0, 0xE934A84ADB052768ULL},
      {1, kPrime32, 0x5014607643A9B4C3ULL},
      {4, 0, 0x9136A0DCA57457EEULL},
      {14, 0, 0x8282DCC4994E35C8ULL},
      {14, kPrime32, 0xC3BD6BF63DEB6DF0ULL},
      {222, 0, 0xB641AE8CB691C174ULL},
      {222, kPrime32, 0x20CB8AB7AE10C14AULL},
      {31, 0, 0x299B39A290E6D783ULL},
      {32, 0, 0x18B216492BB44B70ULL},
      {33, kPrime32, 0xE92C292F64BC3071ULL},
      {97, 0, 0x097B16E4E9B0A2E3ULL},
      {3072, 0, 0xD4E565F7525ED7D6ULL},
      {3072, kPrime32, 0xA58818CB61D7D3C5ULL},
  }};
  static constexpr std::array<unsigned char, kSanityBytes> kBuf =
      sanity_buffer();
  static_assert(kBuf[1] == 82 && kBuf[2] == 146 && kBuf[3] == 155,
                "sanity buffer must match xxhsum's generator");
  // The spec's empty-input value, also through the null pointer the header
  // allows for zero bytes.
  EXPECT_EQ(hash64(nullptr, 0), 0xEF46DB3751D8E999ULL);
  for (const HashVector& v : kWant) {
    EXPECT_EQ(hash64(kBuf.data(), v.bytes, v.seed), v.want)
        << "bytes " << v.bytes << " seed " << v.seed;
    EXPECT_EQ(reference_xxh64(kBuf.data(), v.bytes, v.seed), v.want)
        << "reference, bytes " << v.bytes << " seed " << v.seed;
  }
}

TEST(Hash64, MatchesByteReferenceOnEveryTailAndAlignment) {
  // Lengths 0..97 walk every tail path (32-byte stripes, then 8-, 4- and
  // 1-byte steps, and each combination); offsets 0..7 put every load at
  // every misalignment, which the ASan/UBSan passes also watch.
  const std::array<unsigned char, kSanityBytes> buf = sanity_buffer();
  constexpr std::array<std::uint64_t, 3> kSeeds = {0, kPrime32,
                                                   ~std::uint64_t{0}};
  for (const std::uint64_t seed : kSeeds) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t bytes = 0; bytes <= 97; ++bytes) {
        const unsigned char* p = buf.data() + 100 + offset;
        ASSERT_EQ(hash64(p, bytes, seed), reference_xxh64(p, bytes, seed))
            << "bytes " << bytes << " offset " << offset << " seed " << seed;
      }
    }
  }
}

TEST(Hash64, SeedChainsDistinctFields) {
  const std::array<unsigned char, kSanityBytes> buf = sanity_buffer();
  const std::uint64_t a = hash64(buf.data(), 40);
  EXPECT_NE(a, hash64(buf.data(), 40, 1));
  // Chaining field by field is what the fingerprints do; a moved field
  // boundary must change the result even though the bytes are the same.
  EXPECT_NE(hash64(buf.data() + 16, 24, hash64(buf.data(), 16)),
            hash64(buf.data() + 20, 20, hash64(buf.data(), 20)));
  EXPECT_EQ(hash64(buf.data() + 16, 24, hash64(buf.data(), 16)),
            hash64(buf.data() + 16, 24, hash64(buf.data(), 16)));
}

TEST(Scheduler, CoversFullRangeOnce) {
  Scheduler pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, HandlesEmptyAndSingle) {
  Scheduler pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Scheduler, NestedParallelForDoesNotDeadlock) {
  // A worker that re-enters parallel_for on its own scheduler must not
  // deadlock once every worker is inside an outer leaf waiting on its
  // nested region. Each (outer, inner) pair must still fire once.
  Scheduler pool(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  pool.parallel_for(64, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t o = ob; o < oe; ++o) {
      pool.parallel_for(16, [&, o](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i) {
          hits[static_cast<std::size_t>(o * 16 + i)]++;
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ManySmallInvocations) {
  Scheduler pool(3);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(7, [&](std::int64_t b, std::int64_t e) {
      total += e - b;
    });
  }
  EXPECT_EQ(total.load(), 350);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({std::string("x"), 1.5});
  t.add_row({std::string("longer"), 22.0});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("1.5000"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RowWidthValidation) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  Table t({"a"});
  t.add_row({std::string("hello, \"world\"")});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, \"\"world\"\"\""), std::string::npos);
}

TEST(Table, PrecisionControl) {
  Table t({"v"});
  t.set_precision(2);
  t.add_row({3.14159});
  EXPECT_NE(t.to_string().find("3.14"), std::string::npos);
  EXPECT_EQ(t.to_string().find("3.1416"), std::string::npos);
}

TEST(Table, IntegerCells) {
  Table t({"n"});
  t.add_row({static_cast<long long>(42)});
  EXPECT_NE(t.to_csv().find("42"), std::string::npos);
}

}  // namespace
}  // namespace rt
