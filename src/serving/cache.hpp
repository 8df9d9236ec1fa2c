#pragma once
// rt::serving — prediction cache with ARC (or LRU) eviction.
//
// Transfer-learning fleets re-see inputs constantly: monitoring probes replay
// fixed rows, eval batteries re-run identical batches, and edge deployments
// stream near-duplicate frames. Every such row today rides the full
// coalesce→shard→kernel path; this layer answers re-seen rows in microseconds
// instead.
//
//   serving::ServerOptions opt;
//   opt.cache.capacity_rows = 4096;          // 0 (default) = cache off
//   opt.cache.policy = serving::CachePolicy::kArc;
//   serving::Server server(plan, opt);       // hits now bypass the coalescer
//
// Key derivation: a row's cache key is core::row_fingerprint (the FNV-1a
// byte hash behind dataset_fingerprint) over its float payload, mixed with
// the serving epoch's tag via cache_key(). Every installed fleet (primary,
// candidate, each hot-swap generation) gets a fresh tag, so a swapped-in
// version can never serve a predecessor's logits — stale entries become
// unreachable the instant the route table moves and are evicted by capacity
// pressure. Within one epoch, cached logits are the bitwise output of that
// epoch's Session::run_rows on the row (the engine is deterministic), so a
// hit is indistinguishable from a fresh execution. The one caveat is the
// 64-bit fingerprint itself: two distinct rows alias only on an FNV-1a
// collision (~2^-64 per pair), which this layer accepts by design rather
// than storing and comparing 3 KiB of row payload per entry.
//
// Eviction sits behind EvictionPolicy, with two implementations: ARC (the
// default here) and LRU. The cache is sharded: keys hash to one of `shards`
// independently locked segments, each with its own policy instance over a
// slice of the capacity, so concurrent hit traffic from many client threads
// does not serialize on one mutex. bench/bench_cache.cpp races ARC against
// LRU and cache-off under Zipf, uniform, and scan traffic;
// tests/test_cache.cpp pins both policies' eviction order against naive
// reference simulators.
//
// LRU also backs registry::PlanCache (bounded retention of compiled tickets
// across hot-swap drains), where reuse is rollback to a recent version.

#include <cstdint>
#include <memory>
#include <vector>

namespace rt {
namespace serving {

/// The shipped eviction policies.
enum class CachePolicy {
  kLru,  ///< evict the least-recently-used entry
  kArc,  ///< adaptive replacement: recency/frequency lists + ghost history
};

/// Stable lowercase name ("lru", "arc") for bench labels and logs.
const char* cache_policy_name(CachePolicy policy);

/// One cache segment's eviction brain. The cache layer calls on_hit for a
/// key whose value it holds, and on_insert when it is about to store a new
/// key's value; the policy answers with the keys whose values must be
/// dropped to respect its capacity. Policies may remember evicted keys
/// internally (ARC's ghost lists) — `tracked()` counts only keys whose
/// values are live. Implementations are deliberately NOT thread-safe: the
/// owning shard's mutex serializes access.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// `key` (currently tracked) was referenced.
  virtual void on_hit(std::uint64_t key) = 0;
  /// `key` (not currently tracked) is about to be cached. Appends zero or
  /// more victim keys to `evicted`; after the call `key` is tracked and
  /// tracked() <= capacity holds.
  virtual void on_insert(std::uint64_t key,
                         std::vector<std::uint64_t>& evicted) = 0;
  /// Number of keys whose values are currently live.
  virtual std::int64_t tracked() const = 0;
  virtual const char* name() const = 0;
};

/// Factory for the shipped policies. `capacity` must be >= 1; throws
/// std::invalid_argument otherwise.
std::unique_ptr<EvictionPolicy> make_eviction_policy(CachePolicy policy,
                                                     std::int64_t capacity);

/// Prediction-cache configuration, embedded in ServerOptions.
struct CacheOptions {
  /// Total cached rows across all shards. 0 disables the cache entirely
  /// (the default — caching is opt-in per server).
  std::int64_t capacity_rows = 0;
  /// Eviction policy instantiated per shard. ARC is the default: it matches
  /// LRU on pure recency traffic and degrades gracefully under scans.
  CachePolicy policy = CachePolicy::kArc;
  /// Lock shards. The effective count is clamped to [1, capacity_rows];
  /// capacity divides across shards (remainder to the first shards).
  int shards = 8;
};

/// Point-in-time cache counters, aggregated across shards.
struct CacheStats {
  std::uint64_t hit_rows = 0;       ///< lookups answered from cache
  std::uint64_t miss_rows = 0;      ///< lookups that fell through
  std::uint64_t inserted_rows = 0;  ///< values stored (post-inference fills)
  std::uint64_t evicted_rows = 0;   ///< values dropped by policy pressure
  std::int64_t size_rows = 0;       ///< values currently held
  std::int64_t capacity_rows = 0;   ///< configured bound (0 = cache off)
};

/// Mixes a row's content fingerprint with its serving epoch's tag into the
/// final cache key (splitmix64 finalizer — invertible, so no entropy lost).
/// Pure function: clients and tests can recompute any row's key.
std::uint64_t cache_key(std::uint64_t row_fingerprint,
                        std::uint64_t epoch_tag) noexcept;

/// Sharded, thread-safe map from cache key to one logits row. Values are
/// fixed-width (`value_floats` floats, the served model's class count).
/// Any number of threads may lookup/insert concurrently; each key maps to
/// exactly one shard, and a shard's mutex covers its map, its policy, and
/// its counters.
class PredictionCache {
 public:
  /// Throws std::invalid_argument unless capacity_rows >= 1, shards >= 1,
  /// and value_floats >= 1.
  PredictionCache(const CacheOptions& options, std::int64_t value_floats);
  ~PredictionCache();

  PredictionCache(const PredictionCache&) = delete;
  PredictionCache& operator=(const PredictionCache&) = delete;

  /// On hit, copies the cached row into `out` (value_floats floats),
  /// notifies the policy, and returns true. Steady-state allocation-free.
  bool lookup(std::uint64_t key, float* out);
  /// Stores a copy of `value` under `key` and applies policy eviction. A
  /// key that is already present is left untouched (concurrent misses on
  /// one row race to fill it; both computed the same bits, so first wins).
  void insert(std::uint64_t key, const float* value);

  /// Point-in-time counters. Lock-free: counters are relaxed atomics
  /// maintained under each shard's mutex but readable without it, so a
  /// monitoring loop (the net layer's STATS verb) never contends with the
  /// lookup/insert hot path.
  CacheStats stats() const;
  std::int64_t value_floats() const { return value_floats_; }

 private:
  struct Shard;
  Shard& shard_for(std::uint64_t key);

  std::int64_t value_floats_ = 0;
  std::int64_t capacity_rows_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serving
}  // namespace rt
