#pragma once
// Content-addressed checkpoint store shared by every binary that trains.
//
// A checkpoint's identity is the canonical key string assembled by
// CheckpointKey — every field that influenced its generation (architecture,
// pretraining scheme, sparsity, seed, data sizes, hyper-parameters, data
// fingerprint) appended in a fixed order. The on-disk filename is the XXH64
// hash (common/hash.hpp) of that string plus a readable slug, so
// differently-configured runs can never serve each other's checkpoints and a
// single store root ($RT_CACHE_DIR, default /tmp/rticket_cache) is safe to
// share across the bench_fig* binaries, the integration test suites, and
// repeated local runs — the ~2-minute suites stop re-pretraining the moment
// one process has paid for a configuration.

#include <cstdint>
#include <optional>
#include <string>

#include "common/function_ref.hpp"
#include "data/dataset.hpp"
#include "tensor/serialize.hpp"

namespace rt {

/// Builder for canonical checkpoint identities. Append every
/// generation-relevant field; the key is order-sensitive, so call sites
/// should append in one fixed order. Floats are canonicalized to %.6g.
class CheckpointKey {
 public:
  CheckpointKey& add(const std::string& field, const std::string& value);
  /// Keeps string literals off the bool overload (const char* converts to
  /// bool by standard conversion, which would otherwise win overload
  /// resolution over std::string's user-defined one).
  CheckpointKey& add(const std::string& field, const char* value) {
    return add(field, std::string(value));
  }
  CheckpointKey& add(const std::string& field, std::int64_t value);
  CheckpointKey& add(const std::string& field, int value) {
    return add(field, static_cast<std::int64_t>(value));
  }
  CheckpointKey& add(const std::string& field, double value);
  CheckpointKey& add(const std::string& field, bool value) {
    return add(field, static_cast<std::int64_t>(value));
  }

  /// The full canonical identity, e.g. "arch=r18;scheme=adv;sparsity=0.9;".
  const std::string& str() const { return key_; }
  /// hash64 (XXH64, seed 0) over the canonical string.
  std::uint64_t hash() const;
  /// "<16-hex-digit hash>_<sanitized key prefix>.rtk" — unique by content,
  /// still eyeballable in a directory listing.
  std::string filename() const;

 private:
  std::string key_;
};

/// hash64 fingerprint of a dataset's images and labels, for keys of
/// checkpoints whose training touched that data (IMP/LMP retraining).
std::uint64_t dataset_fingerprint(const Dataset& data);

/// hash64 fingerprint of one flat input row (`floats` float values) — the
/// same byte-level hash dataset_fingerprint uses, exposed per row so the
/// serving-side prediction cache can content-address individual inputs.
/// Bitwise: two rows collide only if their float payloads hash-collide
/// (64-bit XXH64), never because of rounding. Runs on every cache probe, so
/// it is the word-at-a-time hash, not a byte loop: ~0.4 us per 3 KiB row.
std::uint64_t row_fingerprint(const float* row, std::size_t floats);

/// hash64 fingerprint of a StateDict's entry names, shapes, and float
/// payloads — the content address the model registry keys snapshots by.
/// Deterministic: StateDict is an ordered map, so iteration order is fixed.
std::uint64_t state_dict_fingerprint(const StateDict& state);

/// The store itself: load/store StateDicts by key. All operations are
/// best-effort — a cache miss or unwritable root degrades to retraining,
/// never to an error.
class CheckpointStore {
 public:
  /// An empty root disables the store (loads miss, stores are dropped).
  explicit CheckpointStore(std::string root);

  /// $RT_CACHE_DIR or /tmp/rticket_cache.
  static std::string default_root();

  bool enabled() const { return !root_.empty(); }
  const std::string& root() const { return root_; }
  std::string path_for(const CheckpointKey& key) const;

  /// nullopt on miss or unreadable/corrupt entry.
  std::optional<StateDict> load(const CheckpointKey& key) const;
  /// Creates the root directory on demand; write failures are swallowed.
  void store(const CheckpointKey& key, const StateDict& state) const;

  /// Single-flight load-or-compute: returns the cached StateDict for `key`,
  /// or invokes `produce` exactly once per process to fill the miss (and
  /// publishes the result, best-effort). Concurrent callers on the same key
  /// block until the in-flight producer finishes, then load its published
  /// bytes — the producer runs once even when N threads race a cold key.
  /// Cross-process races stay safe through store()'s atomic tmp+rename
  /// publication (either writer's complete bytes win). With the store
  /// disabled every caller just runs `produce` itself.
  StateDict load_or_store(const CheckpointKey& key,
                          FunctionRef<StateDict()> produce) const;

 private:
  std::string root_;
};

}  // namespace rt
