#pragma once
// rt::serving — the async, micro-batching, sharded serving front-end over
// engine Sessions.
//
// engine::Session answers one synchronous predict() per calling thread; a
// multi-tenant deployment instead has many clients issuing small requests
// that should share hardware. serving::Server redesigns that boundary:
//
//   serving::ServerOptions opt;
//   opt.shards = 2;                  // Session replicas (tickets may differ)
//   opt.max_batch = 32;              // micro-batch row target
//   opt.max_delay_ms = 0.2;          // wait bound behind a running batch
//   serving::Server server(Engine::compile(*ticket), opt);
//   std::future<Tensor> logits = server.submit(rows);   // any thread
//   Tensor now = server.predict(rows);                  // blocking wrapper
//
// Request rows from all client threads land in a lock-light MPSC queue (the
// producer critical section links one pointer); a coalescer thread packs them
// into cross-request micro-batches and round-robins the batches across the
// shard Sessions as serving-priority scheduler tasks (TaskPriority::kServing),
// so they overtake queued bulk work such as retraining parallel_for leaves.
// The dispatch rule is work-conserving: a full batch (`max_batch` rows)
// dispatches at once, and so does a partial one whenever no micro-batch is
// in flight — there is nothing for it to wait behind. Only while a batch is
// running do pending rows wait for company, and then for at most
// `max_delay_ms` after the oldest of them arrived. A lone request on an idle
// server therefore pays no coalescing delay, while under load a batch is
// always in flight and rows pack as they arrive.
// Each batch runs Session::run_rows — exactly the chunk unit a synchronous
// predict() dispatches — and its logits are scattered back to the
// per-request futures.
//
// Epochs, hot swap, and A/B routing: a Server is no longer bound to one
// fixed Session fleet. Each installed fleet is an *epoch* — a refcounted
// bundle of {version label, shard Sessions, per-version stats cell}. Every
// request binds to exactly one epoch at submit() time, and micro-batches are
// packed per epoch (a batch runs on one Session, so rows from different
// epochs never share a batch). swap_fleet() atomically replaces the primary
// epoch: new submissions route to the new fleet while requests already bound
// to the old epoch drain on it — zero failed futures, zero dropped rows —
// and the old epoch (Sessions, and the CompiledTicket if nothing else holds
// it) is destroyed by whoever drops its last reference, typically the final
// batch task of the drain. set_candidate() installs a second epoch that
// receives a configured traffic fraction, decided per request by the pure
// function routes_to_candidate(seq, seed, fraction) over the deterministic
// Rng, so any client can recompute exactly which requests the candidate
// owned; per-version stats (rows, rejects, latency histogram) make the
// transfer/evaluate battery an online judge for promote_candidate().
//
// Determinism contract: a sample's logits depend only on its own input row
// (per-plane conv loops, per-element head GEMM accumulation, elementwise
// epilogues), and every micro-batch executes the same serial chunk executor
// a direct Session::predict() call uses. Batch composition therefore cannot
// perturb float accumulation: responses are BITWISE identical to a
// per-request Session::predict() on the plan of the epoch that served them,
// no matter how requests were coalesced, split, or routed.
//
// Prediction cache: with ServerOptions::cache.capacity_rows > 0, submit()
// first probes a sharded content-addressed cache (serving/cache.hpp) keyed
// by row fingerprint + epoch tag. Hit rows are answered immediately from
// cached logits — bitwise what that epoch's Session would have produced —
// and only miss rows continue into the coalescer (compacted, so batches
// carry no redundant rows); their logits populate the cache on completion.
// Epoch tags are unique per installed fleet generation, so a hot swap can
// never serve a predecessor's logits.
//
// Admission control: at most `queue_capacity_rows` rows may be in flight
// (admitted and not yet served — capacity is held from submit() until the
// row's micro-batch finishes executing). submit() past that bound fails the
// returned future with ServerOverloaded immediately (no silent queue or
// batch-backlog growth) and counts the rejection in ServerStats — the
// backpressure signal a load balancer reads.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/scheduler.hpp"
#include "engine/engine.hpp"
#include "serving/cache.hpp"

namespace rt {
namespace serving {

namespace detail {
struct Request;
struct BatchTask;
struct Epoch;
struct Lane;
struct VersionCell;
}  // namespace detail

/// Latency histogram geometry: quarter-octave log-scale buckets over
/// nanoseconds. Buckets 0..3 are exact (0..3 ns); from 4 ns up, each octave
/// [2^e, 2^(e+1)) splits into 4 equal sub-buckets, so relative resolution is
/// a constant ~19% all the way to the top of the 64-bit range. 252 buckets
/// cover every representable latency; recording is two relaxed fetch_adds
/// and integer bit math — no floating point, no locks, no libm.
inline constexpr int kLatencyBuckets = 252;

/// Bucket index for a latency of `ns` nanoseconds.
int latency_bucket(std::uint64_t ns) noexcept;
/// Inclusive upper bound of `bucket`, in microseconds — the value quantiles
/// report (a conservative over-estimate by at most one sub-bucket width).
double latency_bucket_upper_us(int bucket) noexcept;

/// A point-in-time copy of one latency histogram. Quantiles come from the
/// server itself — no client-side timing or per-request sample vectors.
struct LatencySnapshot {
  std::uint64_t count = 0;
  std::array<std::uint64_t, kLatencyBuckets> buckets{};

  /// The upper bound (microseconds) of the bucket containing the p-quantile
  /// observation (p in [0, 1]; e.g. 0.5 → p50, 0.99 → p99). 0 when empty.
  double quantile_us(double p) const;
  void merge(const LatencySnapshot& other);
};

struct ServerOptions {
  /// Session replicas micro-batches are round-robined across. Shards may
  /// serve different compiled variants of one model (dense / CSR / int8) —
  /// every shard plan must share input geometry and class count.
  int shards = 1;
  /// Micro-batch row target; also each shard Session's max_batch.
  int max_batch = 64;
  /// Coalescing bound behind a running batch. A partial batch dispatches at
  /// once when no micro-batch is in flight; while one is, it waits until
  /// the oldest pending request has waited this long (or the batch
  /// finishes, or `max_batch` rows accumulate). 0 dispatches whatever has
  /// arrived as soon as the coalescer sees it, in flight or not.
  double max_delay_ms = 0.1;
  /// Admission bound on in-flight rows: admitted and not yet served
  /// (queued, being packed, or executing on a shard). Held until a row's
  /// micro-batch finishes, so a producer that submits faster than the
  /// fleet serves is backpressured instead of growing an unbounded batch
  /// backlog.
  std::int64_t queue_capacity_rows = 4096;
  /// Version label of the fleet the server is born with (per-version stats
  /// are reported under it). Must be non-empty.
  std::string version = "v0";
  /// Prediction cache (serving/cache.hpp). Off by default; with
  /// capacity_rows > 0, re-seen rows are answered from cached logits
  /// without touching admission or the coalescer.
  CacheOptions cache;
};

/// Monotonic counters plus the live backpressure signal. Aggregate ratios:
/// mean micro-batch fill is batched_rows / batches, and the coalescing gain
/// over per-request dispatch is (submitted_requests - rejected_requests -
/// failed_requests) / batches — rejected and invalid requests never reach a
/// batch, so they must leave the numerator.
struct ServerStats {
  std::uint64_t submitted_requests = 0;
  std::uint64_t submitted_rows = 0;
  std::uint64_t completed_requests = 0;
  std::uint64_t failed_requests = 0;    ///< invalid input or shard failure
  std::uint64_t rejected_requests = 0;  ///< admission control (overload)
  std::uint64_t batches = 0;            ///< micro-batches dispatched
  std::uint64_t batched_rows = 0;       ///< rows across all micro-batches
  /// Partial micro-batches dispatched before their `max_delay_ms` deadline
  /// because no batch was in flight (0 when max_delay_ms is 0).
  std::uint64_t idle_batches = 0;
  std::int64_t queued_rows = 0;         ///< in flight: admitted, not served
  std::int64_t capacity_rows = 0;       ///< the admission bound
  std::uint64_t cache_hit_rows = 0;     ///< rows answered from the cache
  std::uint64_t cache_miss_rows = 0;    ///< rows that fell through to a batch
  /// submit()→completion latency of every successfully completed request,
  /// merged across all versions ever served. p50/p99 via quantile_us.
  LatencySnapshot latency;
};

/// Per-version slice of ServerStats. Cells are keyed by version label and
/// live for the server's lifetime, so counters survive a version being
/// swapped out and keep accumulating if it is swapped back in.
struct VersionStats {
  std::string version;
  std::uint64_t requests = 0;  ///< admitted and enqueued
  std::uint64_t rows = 0;      ///< rows across admitted requests
  std::uint64_t completed_requests = 0;
  std::uint64_t failed_requests = 0;
  std::uint64_t rejected_requests = 0;  ///< admission failures after routing
  std::uint64_t batches = 0;
  std::uint64_t batched_rows = 0;
  LatencySnapshot latency;  ///< completed requests only
};

/// One deployable fleet: a version label plus the shard plans backing it.
/// Plans must all match the geometry the Server was constructed with.
struct FleetSpec {
  std::string version;
  std::vector<std::shared_ptr<const CompiledTicket>> shard_plans;
};

/// The A/B routing decision as a pure function: does request number `seq`
/// (assigned in submit order) go to the candidate fleet? Deterministic in
/// (seq, seed, fraction) via one Rng stream per request, so a client holding
/// the seed can recompute the exact candidate-owned subset.
bool routes_to_candidate(std::uint64_t seq, std::uint64_t seed,
                         double fraction);

/// submit() failed admission: the queue is at capacity (or the server is
/// shutting down). Carried by the returned future.
class ServerOverloaded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Async, micro-batching, sharded serving front-end. Thread-safe: any number
/// of threads may submit() concurrently, and the fleet-control calls
/// (swap_fleet / set_candidate / promote_candidate) are safe against
/// concurrent submits. Destruction drains — every admitted request's future
/// is fulfilled before the destructor returns.
class Server {
 public:
  /// Single plan replicated across `options.shards` Sessions.
  explicit Server(CompiledTicket plan, const ServerOptions& options = {});
  explicit Server(std::shared_ptr<const CompiledTicket> plan,
                  const ServerOptions& options = {});
  /// Heterogeneous fleet: one Session per plan (options.shards is ignored —
  /// the shard count is shard_plans.size()). All plans must share input
  /// geometry and class count.
  Server(std::vector<std::shared_ptr<const CompiledTicket>> shard_plans,
         const ServerOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues an (n, C, H, W) batch of rows for coalesced execution. The
  /// future yields the (n, num_classes) logits, or throws: ServerOverloaded
  /// on admission failure, std::invalid_argument on geometry mismatch, or
  /// whatever a shard threw executing the batch.
  std::future<Tensor> submit(Tensor rows);
  /// Blocking convenience wrapper: submit + get. Takes the batch by value so
  /// rvalue callers hand their buffer over without a copy.
  Tensor predict(Tensor rows);

  /// Atomically replaces the primary fleet. Submissions that arrive after
  /// the swap route to the new epoch; requests already bound to the old one
  /// drain on it (their futures complete normally, bitwise-true to the old
  /// plan). The old epoch's Sessions — and its CompiledTicket, if nothing
  /// else references it — are destroyed when the last in-flight holder
  /// (lane, request, or batch task) drops its reference. Throws
  /// std::invalid_argument if the fleet's geometry does not match the
  /// server's, its version label is empty, or it has no plans.
  void swap_fleet(FleetSpec fleet);
  /// Installs a candidate fleet receiving `fraction` of traffic, decided
  /// per request by routes_to_candidate(seq, seed, fraction). Replaces any
  /// existing candidate (which then drains like a swapped-out primary).
  void set_candidate(FleetSpec fleet, double fraction, std::uint64_t seed);
  /// Removes the candidate (it drains); all new traffic goes to primary.
  void clear_candidate();
  /// The candidate becomes the primary (keeping its warm Sessions and its
  /// stats cell); the old primary drains. Returns the promoted version
  /// label. Throws std::logic_error if no candidate is installed.
  std::string promote_candidate();

  ServerStats stats() const;
  /// Point-in-time prediction-cache counters; all zeros when the cache is
  /// off (options.cache.capacity_rows == 0).
  CacheStats cache_stats() const;
  /// One entry per version label ever served, in install order.
  std::vector<VersionStats> version_stats() const;
  std::string primary_version() const;
  /// Empty string when no candidate is installed.
  std::string candidate_version() const;

  /// Blocks until every admitted row has been served and every batch task
  /// has fully retired — the point at which swapped-out epochs have lost all
  /// in-flight references. Callers must quiesce their own submitters first;
  /// rows submitted while draining may extend the wait.
  void drain();

  const ServerOptions& options() const { return options_; }
  /// Shard count of the current primary fleet.
  int shards() const;
  /// A primary shard's plan. The reference is valid until that fleet is
  /// swapped out and drained.
  const CompiledTicket& shard_plan(int shard) const;

 private:
  friend struct detail::BatchTask;

  /// Validates a FleetSpec against the frozen geometry and builds its epoch
  /// (Sessions included) outside any lock. The caller attaches the stats
  /// cell and installs it under route_mutex_.
  std::shared_ptr<detail::Epoch> build_epoch(FleetSpec fleet) const;
  /// The stats cell for `version`, created on first use. route_mutex_ held.
  std::shared_ptr<detail::VersionCell> cell_for_locked(
      const std::string& version);
  void coalescer_main();
  /// Packs `take` rows off one epoch lane into a micro-batch and spawns it
  /// on that epoch's round-robin shard at serving priority.
  void spawn_batch(detail::Lane& lane, std::int64_t take);
  /// Drops one completion token; the last token fulfils the future.
  static void finish_span(detail::Request* request, Server& server);

  ServerOptions options_;

  // Frozen request geometry, set by the fleet the server is born with.
  // Every later fleet must match it, which lets submit() validate without
  // touching any plan.
  std::int64_t in_channels_ = 0;
  std::int64_t height_ = 0;
  std::int64_t width_ = 0;
  std::int64_t num_classes_ = 0;

  // Route table: which epoch a new submission binds to. The mutex guards
  // the epoch pointers, the A/B config, the request sequence counter, and
  // the stats-cell list; it is held only for pointer copies and counter
  // bumps — never across packing, execution, or compilation.
  mutable std::mutex route_mutex_;
  std::shared_ptr<detail::Epoch> primary_;
  std::shared_ptr<detail::Epoch> candidate_;
  double ab_fraction_ = 0.0;
  std::uint64_t ab_seed_ = 0;
  std::uint64_t route_seq_ = 0;
  std::vector<std::shared_ptr<detail::VersionCell>> cells_;

  // Prediction cache (null when options_.cache.capacity_rows == 0) and the
  // epoch-tag source: every epoch build_epoch() produces takes a fresh tag,
  // so cached logits are keyed to the exact fleet generation that computed
  // them (mutable: build_epoch is const and the counter is independently
  // atomic).
  std::unique_ptr<PredictionCache> cache_;
  mutable std::atomic<std::uint64_t> epoch_tag_seq_{0};

  // MPSC handoff to the coalescer. Producers hold the mutex only to link a
  // request pointer and read the stop flag.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<detail::Request*> queue_;
  bool stopping_ = false;

  // Admission control + stats (all independently atomic; stats() snapshots).
  std::atomic<std::int64_t> queued_rows_{0};
  std::atomic<std::uint64_t> submitted_requests_{0};
  std::atomic<std::uint64_t> submitted_rows_{0};
  std::atomic<std::uint64_t> completed_requests_{0};
  std::atomic<std::uint64_t> failed_requests_{0};
  std::atomic<std::uint64_t> rejected_requests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_rows_{0};
  std::atomic<std::uint64_t> idle_batches_{0};
  /// Dispatched micro-batches that have not finished: spawn_batch adds one,
  /// the batch task drops it after its last finish_span. The coalescer's
  /// work-conserving rule reads it; the batch that brings it to 0 wakes the
  /// coalescer (under queue_mutex_) when max_delay_ms > 0.
  std::atomic<std::int64_t> inflight_batches_{0};

  /// In-flight micro-batch group. Spawns carry serving priority; the
  /// destructor's wait() is the drain barrier.
  Scheduler& sched_;
  TaskGroup inflight_;
  std::thread coalescer_;
};

}  // namespace serving
}  // namespace rt
