#pragma once
// Content hashing for every fingerprint in rt: checkpoint keys, dataset and
// StateDict fingerprints, per-row prediction-cache keys, and PlanCache keys.
//
// hash64 is XXH64, implemented to the public xxHash specification
// (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md): four
// independent 64-bit multiply-rotate lanes consume 32-byte stripes, then the
// tail is folded in 8-, 4- and 1-byte steps and the result is avalanched.
// The lanes carry no dependency on each other, so a 3 KiB input row costs a
// few hundred cycles instead of one dependent multiply per byte.
//
// The output is a pure function of (bytes, seed): words are read
// little-endian through std::memcpy (so unaligned inputs are fine) and no
// ISA-specific path exists, which matters because fingerprints name on-disk
// checkpoints. tests/test_common.cpp pins the spec's published values and a
// byte-at-a-time reference over every tail path.
//
// Chaining: hash64(b, nb, hash64(a, na, seed)) composes fingerprints of
// several fields; it is not equal to hashing the concatenation.

#include <cstddef>
#include <cstdint>

namespace rt {

/// XXH64 of `bytes` bytes at `data` under `seed`. `data` may be unaligned,
/// and may be null when `bytes` is 0.
std::uint64_t hash64(const void* data, std::size_t bytes,
                     std::uint64_t seed = 0);

}  // namespace rt
