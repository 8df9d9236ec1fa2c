#include "serving/serving.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "common/audit.hpp"
#include "common/rng.hpp"
#include "core/checkpoint_store.hpp"

namespace rt {
namespace serving {

namespace detail {

/// Lifetime-long stats cell for one version label. Requests bump it from
/// many threads, so every counter is an independent relaxed atomic;
/// snapshots read whatever is there (exact once the server quiesces).
struct VersionCell {
  explicit VersionCell(std::string v) : version(std::move(v)) {}

  const std::string version;
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_rows{0};
  std::atomic<std::uint64_t> latency_count{0};
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> latency{};

  void record_latency(std::uint64_t ns) {
    latency[static_cast<std::size_t>(latency_bucket(ns))].fetch_add(
        1, std::memory_order_relaxed);
    latency_count.fetch_add(1, std::memory_order_relaxed);
  }

  void merge_latency_into(LatencySnapshot& out) const {
    out.count += latency_count.load(std::memory_order_relaxed);
    for (int b = 0; b < kLatencyBuckets; ++b) {
      out.buckets[static_cast<std::size_t>(b)] +=
          latency[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    }
  }
};

/// One installed fleet. Refcounted via shared_ptr: the route table holds one
/// reference while the epoch is live, and every bound request, coalescer
/// lane, and dispatched batch task holds one while it is in flight — so a
/// swapped-out epoch (its Sessions, and its CompiledTicket if nothing else
/// shares it) is destroyed exactly when its last in-flight work retires.
struct Epoch {
  std::string version;
  std::vector<std::unique_ptr<Session>> sessions;
  std::shared_ptr<VersionCell> cell;
  std::atomic<std::uint64_t> rr{0};  ///< round-robin shard cursor
  /// Unique per epoch *instance* (not per version label): cache keys mix it
  /// in, so a hot swap — even back to a previously-served version — can
  /// never serve logits a different fleet generation computed.
  std::uint64_t cache_tag = 0;
};

/// One admitted request, heap-owned until its last completion token drops.
/// Completion tokens: the coalescer holds one "still packing" token from
/// admission until the request's last row has been placed in a micro-batch,
/// and every dispatched span holds one until its batch finishes. The holder
/// that drops the count to zero fulfils the promise — so a request split
/// across micro-batches resolves exactly once, after all of its rows.
struct Request {
  Tensor input;   ///< (rows, C, H, W), moved from submit()
  Tensor output;  ///< (rows, num_classes), scattered into by batch tasks
  std::promise<Tensor> promise;
  std::shared_ptr<Epoch> epoch;  ///< the fleet this request is bound to
  std::int64_t rows = 0;
  std::chrono::steady_clock::time_point enqueued;
  std::atomic<std::int64_t> tokens{1};  ///< packing token + one per span
  std::mutex error_mutex;
  std::exception_ptr error;  ///< first failure; read by the last token holder

  // Cache bookkeeping; both empty when the cache is off. With the cache on,
  // `input` holds only the rows that missed: fill_keys[i] is the key miss
  // row i's logits are stored under on completion, and row_map[i] is the
  // output row it scatters to (empty row_map = identity, every row missed).
  std::vector<std::uint64_t> fill_keys;
  std::vector<std::int64_t> row_map;
};

/// The coalescer's per-epoch pending list. A micro-batch executes on one
/// Session, so rows are packed per epoch: each live epoch with pending
/// requests gets a lane, and full/expired batches dispatch per lane.
struct Lane {
  std::shared_ptr<Epoch> epoch;
  std::deque<Request*> q;
  std::int64_t cursor = 0;  ///< rows of q.front() already packed
  std::int64_t rows = 0;
};

/// One dispatched micro-batch: packed input rows, their logits, and the
/// scatter map back to the owning requests. Heap-allocated by the coalescer,
/// spawned on the scheduler's serving lane, self-deleting.
struct BatchTask {
  struct Span {
    Request* request;
    std::int64_t request_row0;  ///< first row inside the request
    std::int64_t batch_row0;    ///< first row inside the packed batch
    std::int64_t rows;
  };

  Server* server = nullptr;
  Session* shard = nullptr;
  std::shared_ptr<Epoch> epoch;  ///< keeps `shard` alive across a hot swap
  Tensor input;                  ///< (b, C, H, W) cross-request packed rows
  Tensor logits;                 ///< (b, num_classes)
  std::vector<Span> spans;

  static void fail(Request* request) {
    std::lock_guard<std::mutex> lock(request->error_mutex);
    RT_AUDIT_LOCK(audit::LockRank::kServingError);
    if (request->error == nullptr) {
      request->error = std::current_exception();
    }
  }

  RT_HOT void operator()() {
    std::unique_ptr<BatchTask> self(this);  // freed on every exit path
    bool ok = true;
    try {
      // The same chunk unit a synchronous Session::predict() dispatches, so
      // coalescing cannot perturb any sample's float accumulation.
      shard->run_rows(input.data(), input.dim(0), logits.data());
    } catch (...) {
      ok = false;
      for (const Span& s : spans) fail(s.request);
    }
    // Admission capacity is held until here — through queueing, packing,
    // and execution — so a producer that never drains its futures hits
    // ServerOverloaded instead of growing an unbounded backlog of
    // dispatched batches. Released before any future resolves, so a client
    // reading stats after get() sees the rows gone.
    server->queued_rows_.fetch_sub(input.dim(0), std::memory_order_relaxed);
    const std::int64_t classes = logits.dim(1);
    for (const Span& s : spans) {
      if (ok) {
        Request* request = s.request;
        if (request->fill_keys.empty()) {
          // Disjoint row ranges: spans of one request living in different
          // batches scatter without synchronization.
          std::copy(logits.data() + s.batch_row0 * classes,
                    logits.data() + (s.batch_row0 + s.rows) * classes,
                    request->output.data() + s.request_row0 * classes);
        } else {
          // Cached path: place each miss row through the scatter map and
          // feed its logits to the cache under the key captured at submit
          // (the epoch tag of the fleet that just computed them — a row
          // served mid-swap fills its own generation's entry, never the
          // successor's).
          for (std::int64_t i = 0; i < s.rows; ++i) {
            const auto miss = static_cast<std::size_t>(s.request_row0 + i);
            const float* src = logits.data() + (s.batch_row0 + i) * classes;
            const std::int64_t out_row = request->row_map.empty()
                                             ? s.request_row0 + i
                                             : request->row_map[miss];
            std::copy(src, src + classes,
                      request->output.data() + out_row * classes);
            server->cache_->insert(request->fill_keys[miss], src);
          }
        }
      }
      Server::finish_span(s.request, *server);
    }
    // This batch no longer runs. The one that leaves none running wakes a
    // coalescer holding partial lanes behind it. The mutex is taken after
    // the decrement, so the wake cannot fall between the coalescer's
    // predicate check and its wait. A delay-0 coalescer never holds a
    // partial lane, so it is not woken.
    if (server->inflight_batches_.fetch_sub(1, std::memory_order_acq_rel) ==
            1 &&
        server->options_.max_delay_ms > 0.0) {
      {
        std::lock_guard<std::mutex> lock(server->queue_mutex_);
        RT_AUDIT_LOCK(audit::LockRank::kServingQueue);
      }
      server->queue_cv_.notify_one();
    }
    // `epoch` drops with `self` here — after the queued_rows_ release and
    // every finish_span — so Server::drain() returning means swapped-out
    // epochs have lost all batch-task references.
  }
};

}  // namespace detail

int latency_bucket(std::uint64_t ns) noexcept {
  if (ns < 4) return static_cast<int>(ns);
  const int e = 63 - std::countl_zero(ns);       // floor(log2), >= 2
  const int sub = static_cast<int>((ns >> (e - 2)) & 3u);
  return ((e - 1) << 2) | sub;  // e=2 starts at bucket 4; max 251
}

double latency_bucket_upper_us(int bucket) noexcept {
  if (bucket < 0) return 0.0;
  if (bucket < 4) return static_cast<double>(bucket) * 1e-3;
  if (bucket >= kLatencyBuckets) bucket = kLatencyBuckets - 1;
  const int e = (bucket >> 2) + 1;
  const int sub = bucket & 3;
  // Top of sub-bucket `sub` of octave [2^e, 2^(e+1)): 2^e + (sub+1)*2^(e-2),
  // exclusive, so the inclusive bound is one nanosecond below.
  const double ns =
      std::ldexp(1.0, e) + (sub + 1) * std::ldexp(1.0, e - 2) - 1.0;
  return ns * 1e-3;
}

double LatencySnapshot::quantile_us(double p) const {
  if (count == 0) return 0.0;
  if (!(p >= 0.0)) p = 0.0;  // also catches NaN
  if (p > 1.0) p = 1.0;
  std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count)));
  if (target < 1) target = 1;
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    cumulative += buckets[static_cast<std::size_t>(b)];
    if (cumulative >= target) return latency_bucket_upper_us(b);
  }
  return latency_bucket_upper_us(kLatencyBuckets - 1);
}

void LatencySnapshot::merge(const LatencySnapshot& other) {
  count += other.count;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
}

bool routes_to_candidate(std::uint64_t seq, std::uint64_t seed,
                         double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  // One PCG32 stream per request: the decision depends only on (seed, seq),
  // never on thread interleaving, so the candidate-owned subset is exactly
  // reproducible client-side.
  Rng rng(seed, seq);
  return static_cast<double>(rng.uniform()) < fraction;
}

namespace {

void validate_options(const ServerOptions& options) {
  if (options.max_batch < 1) {
    throw std::invalid_argument("ServerOptions: max_batch must be > 0, got " +
                                std::to_string(options.max_batch));
  }
  if (!(options.max_delay_ms >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "ServerOptions: max_delay_ms must be >= 0, got " +
        std::to_string(options.max_delay_ms));
  }
  if (options.queue_capacity_rows < 1) {
    throw std::invalid_argument(
        "ServerOptions: queue_capacity_rows must be >= 1, got " +
        std::to_string(options.queue_capacity_rows));
  }
  if (options.version.empty()) {
    throw std::invalid_argument(
        "ServerOptions: version label must be non-empty");
  }
  if (options.cache.capacity_rows < 0) {
    throw std::invalid_argument(
        "ServerOptions: cache.capacity_rows must be >= 0, got " +
        std::to_string(options.cache.capacity_rows));
  }
  // With the cache enabled, PredictionCache's constructor validates the
  // remaining cache field (shards).
}

std::vector<std::shared_ptr<const CompiledTicket>> replicate(
    std::shared_ptr<const CompiledTicket> plan, int shards) {
  if (shards < 1) {
    throw std::invalid_argument("ServerOptions: shards must be >= 1, got " +
                                std::to_string(shards));
  }
  return std::vector<std::shared_ptr<const CompiledTicket>>(
      static_cast<std::size_t>(shards), std::move(plan));
}

}  // namespace

Server::Server(CompiledTicket plan, const ServerOptions& options)
    : Server(std::make_shared<const CompiledTicket>(std::move(plan)),
             options) {}

Server::Server(std::shared_ptr<const CompiledTicket> plan,
               const ServerOptions& options)
    : Server(replicate(std::move(plan), options.shards), options) {}

Server::Server(std::vector<std::shared_ptr<const CompiledTicket>> shard_plans,
               const ServerOptions& options)
    : options_(options),
      sched_(Scheduler::current()),
      inflight_(sched_, TaskPriority::kServing) {
  validate_options(options_);
  if (shard_plans.empty()) {
    throw std::invalid_argument("serving::Server: no shard plans");
  }
  if (shard_plans.front() == nullptr) {
    throw std::invalid_argument("serving::Server: null shard plan");
  }
  // The birth fleet freezes the request geometry every later fleet must
  // match; build_epoch validates the remaining plans against it.
  const CompiledTicket& ref = *shard_plans.front();
  in_channels_ = ref.in_channels();
  height_ = ref.height();
  width_ = ref.width();
  num_classes_ = ref.num_classes();
  options_.shards = static_cast<int>(shard_plans.size());
  if (options_.cache.capacity_rows > 0) {
    cache_ = std::make_unique<PredictionCache>(options_.cache, num_classes_);
  }

  auto epoch = build_epoch({options_.version, std::move(shard_plans)});
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
    epoch->cell = cell_for_locked(epoch->version);
    primary_ = std::move(epoch);
  }
  coalescer_ = std::thread([this] { coalescer_main(); });
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kServingQueue);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (coalescer_.joinable()) coalescer_.join();
  // Drain barrier: every dispatched micro-batch has fulfilled its futures
  // before the epochs (sessions and plans) go away.
  inflight_.wait();
}

std::shared_ptr<detail::Epoch> Server::build_epoch(FleetSpec fleet) const {
  if (fleet.version.empty()) {
    throw std::invalid_argument(
        "serving::Server: fleet version label must be non-empty");
  }
  if (fleet.shard_plans.empty()) {
    throw std::invalid_argument("serving::Server: no shard plans");
  }
  for (const auto& plan : fleet.shard_plans) {
    if (plan == nullptr) {
      throw std::invalid_argument("serving::Server: null shard plan");
    }
    // Heterogeneous encodings (dense / CSR / int8) are welcome, but every
    // fleet ever installed must accept the rows the server was born
    // validating and emit the same logit shape.
    if (plan->in_channels() != in_channels_ || plan->height() != height_ ||
        plan->width() != width_ || plan->num_classes() != num_classes_) {
      throw std::invalid_argument(
          "serving::Server: fleet '" + fleet.version +
          "' disagrees with the server's input geometry or class count");
    }
  }
  auto epoch = std::make_shared<detail::Epoch>();
  epoch->version = std::move(fleet.version);
  epoch->cache_tag =
      epoch_tag_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  epoch->sessions.reserve(fleet.shard_plans.size());
  for (auto& plan : fleet.shard_plans) {
    epoch->sessions.push_back(std::make_unique<Session>(
        std::move(plan), SessionOptions{.max_batch = options_.max_batch}));
  }
  return epoch;
}

std::shared_ptr<detail::VersionCell> Server::cell_for_locked(
    const std::string& version) {
  for (const auto& cell : cells_) {
    if (cell->version == version) return cell;
  }
  cells_.push_back(std::make_shared<detail::VersionCell>(version));
  return cells_.back();
}

void Server::swap_fleet(FleetSpec fleet) {
  // Sessions are built (workspaces allocated) before the route lock is
  // taken, so the swap itself is a pointer exchange.
  auto epoch = build_epoch(std::move(fleet));
  std::shared_ptr<detail::Epoch> retired;
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
    epoch->cell = cell_for_locked(epoch->version);
    retired = std::move(primary_);
    primary_ = std::move(epoch);
  }
  // `retired` drops its route-table reference here; requests, lanes, and
  // batch tasks still bound to it keep it alive until they drain.
}

void Server::set_candidate(FleetSpec fleet, double fraction,
                           std::uint64_t seed) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "serving::Server: A/B fraction must be in [0, 1], got " +
        std::to_string(fraction));
  }
  auto epoch = build_epoch(std::move(fleet));
  std::shared_ptr<detail::Epoch> replaced;
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
    epoch->cell = cell_for_locked(epoch->version);
    replaced = std::move(candidate_);
    candidate_ = std::move(epoch);
    ab_fraction_ = fraction;
    ab_seed_ = seed;
  }
}

void Server::clear_candidate() {
  std::shared_ptr<detail::Epoch> replaced;
  std::lock_guard<std::mutex> lock(route_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
  replaced = std::move(candidate_);
  candidate_.reset();
  ab_fraction_ = 0.0;
}

std::string Server::promote_candidate() {
  std::lock_guard<std::mutex> lock(route_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
  if (candidate_ == nullptr) {
    throw std::logic_error("serving::Server: no candidate to promote");
  }
  // The candidate keeps its warm Sessions and stats cell; the old primary
  // drains like any swapped-out epoch.
  primary_ = std::move(candidate_);
  candidate_.reset();
  ab_fraction_ = 0.0;
  return primary_->version;
}

std::string Server::primary_version() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
  return primary_->version;
}

std::string Server::candidate_version() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
  return candidate_ == nullptr ? std::string() : candidate_->version;
}

int Server::shards() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
  return static_cast<int>(primary_->sessions.size());
}

const CompiledTicket& Server::shard_plan(int shard) const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
  if (shard < 0 ||
      shard >= static_cast<int>(primary_->sessions.size())) {
    throw std::invalid_argument("serving::Server: shard index out of range");
  }
  return *primary_->sessions[static_cast<std::size_t>(shard)]->plan_handle();
}

void Server::drain() {
  // queued_rows_ covers admitted rows through queueing, packing, and
  // execution; it reaching zero means every batch has run. The TaskGroup
  // wait then barriers the tail of each batch task (scatter + epoch-ref
  // drop), after which swapped-out epochs hold no in-flight references.
  while (queued_rows_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
  inflight_.wait();
}

std::future<Tensor> Server::submit(Tensor rows) {
  submitted_requests_.fetch_add(1, std::memory_order_relaxed);
  try {
    // Validation runs against the frozen geometry, not any particular
    // plan, so it needs no route-table access and cannot race a swap.
    if (rows.ndim() != 4 || rows.dim(1) != in_channels_ ||
        rows.dim(2) != height_ || rows.dim(3) != width_) {
      throw std::invalid_argument(
          "serving::Server: request geometry does not match the served "
          "fleet");
    }
    // A zero-row request would never trip either dispatch condition and
    // would hang its future (and the drain), so it must bounce here.
    // Unreachable through Tensor's own positive-extent invariant, but
    // cheap insurance.
    if (rows.dim(0) <= 0) {
      throw std::invalid_argument("serving::Server: empty request");
    }
  } catch (...) {
    failed_requests_.fetch_add(1, std::memory_order_relaxed);
    std::promise<Tensor> failed;
    failed.set_exception(std::current_exception());
    return failed.get_future();
  }
  const std::int64_t n = rows.dim(0);
  submitted_rows_.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);

  // Route: bind the request to an epoch. Sequence numbers are assigned
  // under the route lock in submit order; the A/B decision is a pure
  // function of (seq, seed, fraction), so the candidate-owned subset is
  // deterministic given the seed.
  std::shared_ptr<detail::Epoch> epoch;
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
    const std::uint64_t seq = route_seq_++;
    const bool to_candidate =
        candidate_ != nullptr &&
        routes_to_candidate(seq, ab_seed_, ab_fraction_);
    epoch = to_candidate ? candidate_ : primary_;
  }
  detail::VersionCell& cell = *epoch->cell;

  // Cache probe: hit rows are answered straight from the epoch-tagged cache
  // — bitwise what this epoch's Session would compute — and only miss rows
  // (compacted into a fresh tensor) continue into admission and coalescing.
  const auto t0 = std::chrono::steady_clock::now();
  Tensor output;
  std::vector<std::uint64_t> fill_keys;
  std::vector<std::int64_t> row_map;
  std::int64_t miss_rows = n;
  if (cache_ != nullptr) {
    const std::int64_t plane = in_channels_ * height_ * width_;
    output = Tensor({n, num_classes_});
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t key =
          cache_key(row_fingerprint(rows.data() + i * plane,
                                    static_cast<std::size_t>(plane)),
                    epoch->cache_tag);
      if (cache_->lookup(key, output.data() + i * num_classes_)) continue;
      if (row_map.empty()) {
        // First miss: reserve here, so an all-hit request never allocates
        // the miss bookkeeping. Rows before i all hit.
        const auto remaining = static_cast<std::size_t>(n - i);
        fill_keys.reserve(remaining);
        row_map.reserve(remaining);
      }
      row_map.push_back(i);
      fill_keys.push_back(key);
    }
    miss_rows = static_cast<std::int64_t>(row_map.size());
    if (miss_rows == 0) {
      // Every row hit: resolve immediately. The request still counts as
      // admitted + completed for this version, and its (microsecond-scale)
      // latency lands in the histogram like any other.
      cell.requests.fetch_add(1, std::memory_order_relaxed);
      cell.rows.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      const auto elapsed = std::chrono::steady_clock::now() - t0;
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count();
      cell.record_latency(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
      completed_requests_.fetch_add(1, std::memory_order_relaxed);
      cell.completed.fetch_add(1, std::memory_order_relaxed);
      std::promise<Tensor> ready;
      ready.set_value(std::move(output));
      return ready.get_future();
    }
    if (miss_rows < n) {
      // Compact the misses so micro-batches carry no already-answered rows.
      Tensor compact({miss_rows, in_channels_, height_, width_});
      for (std::int64_t j = 0; j < miss_rows; ++j) {
        const std::int64_t src = row_map[static_cast<std::size_t>(j)];
        std::copy(rows.data() + src * plane, rows.data() + (src + 1) * plane,
                  compact.data() + j * plane);
      }
      rows = std::move(compact);
    } else {
      row_map.clear();  // every row missed: the scatter map is the identity
    }
  }

  // Strict admission bound: claim the (miss) rows first, undo on overflow.
  const std::int64_t admitted =
      queued_rows_.fetch_add(miss_rows, std::memory_order_acq_rel) +
      miss_rows;
  if (admitted > options_.queue_capacity_rows) {
    queued_rows_.fetch_sub(miss_rows, std::memory_order_relaxed);
    rejected_requests_.fetch_add(1, std::memory_order_relaxed);
    cell.rejected.fetch_add(1, std::memory_order_relaxed);
    std::promise<Tensor> rejected;
    rejected.set_exception(std::make_exception_ptr(ServerOverloaded(
        "serving::Server: queue at capacity (" +
        std::to_string(options_.queue_capacity_rows) + " rows)")));
    return rejected.get_future();
  }

  auto* request = new detail::Request;
  request->input = std::move(rows);
  request->rows = miss_rows;
  request->output =
      cache_ != nullptr ? std::move(output) : Tensor({n, num_classes_});
  request->fill_keys = std::move(fill_keys);
  request->row_map = std::move(row_map);
  request->epoch = std::move(epoch);
  request->enqueued = t0;
  std::future<Tensor> result = request->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kServingQueue);
    if (stopping_) {
      queued_rows_.fetch_sub(miss_rows, std::memory_order_relaxed);
      rejected_requests_.fetch_add(1, std::memory_order_relaxed);
      cell.rejected.fetch_add(1, std::memory_order_relaxed);
      request->promise.set_exception(std::make_exception_ptr(
          ServerOverloaded("serving::Server: shutting down")));
      delete request;
      return result;
    }
    queue_.push_back(request);
    // Counted inside the lock so per-version completed/failed can never
    // transiently exceed requests: completion requires the coalescer to
    // pop, which orders after this critical section.
    cell.requests.fetch_add(1, std::memory_order_relaxed);
    cell.rows.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
  return result;
}

Tensor Server::predict(Tensor rows) { return submit(std::move(rows)).get(); }

void Server::finish_span(detail::Request* request, Server& server) {
  // acq_rel: a failing span's error write happens-before the last token
  // holder reads it, and every scatter copy happens-before set_value.
  if (request->tokens.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  detail::VersionCell& cell = *request->epoch->cell;
  if (request->error != nullptr) {
    server.failed_requests_.fetch_add(1, std::memory_order_relaxed);
    cell.failed.fetch_add(1, std::memory_order_relaxed);
    request->promise.set_exception(request->error);
  } else {
    // Stats land before set_value, so a client reading stats after get()
    // sees its own request counted and timed.
    const auto elapsed = std::chrono::steady_clock::now() - request->enqueued;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    cell.record_latency(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u);
    server.completed_requests_.fetch_add(1, std::memory_order_relaxed);
    cell.completed.fetch_add(1, std::memory_order_relaxed);
    request->promise.set_value(std::move(request->output));
  }
  delete request;  // drops the request's epoch reference
}

void Server::spawn_batch(detail::Lane& lane, std::int64_t take) {
  const std::int64_t plane = in_channels_ * height_ * width_;
  detail::Epoch& epoch = *lane.epoch;

  auto task = std::make_unique<detail::BatchTask>();
  task->server = this;
  task->epoch = lane.epoch;
  const std::uint64_t rr = epoch.rr.fetch_add(1, std::memory_order_relaxed);
  task->shard =
      epoch.sessions[static_cast<std::size_t>(
                         rr % static_cast<std::uint64_t>(
                                  epoch.sessions.size()))]
          .get();
  task->input = Tensor({take, in_channels_, height_, width_});
  task->logits = Tensor({take, num_classes_});
  task->spans.reserve(4);

  std::int64_t filled = 0;
  while (filled < take) {
    detail::Request* request = lane.q.front();
    const std::int64_t n = std::min(take - filled, request->rows - lane.cursor);
    std::copy(request->input.data() + lane.cursor * plane,
              request->input.data() + (lane.cursor + n) * plane,
              task->input.data() + filled * plane);
    task->spans.push_back({request, lane.cursor, filled, n});
    request->tokens.fetch_add(1, std::memory_order_relaxed);
    lane.cursor += n;
    filled += n;
    if (lane.cursor == request->rows) {
      // Fully packed: drop the coalescer's token. The span counts added
      // above keep the request alive until its batches finish.
      lane.q.pop_front();
      lane.cursor = 0;
      finish_span(request, *this);
    }
  }
  lane.rows -= take;
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_rows_.fetch_add(static_cast<std::uint64_t>(take),
                          std::memory_order_relaxed);
  epoch.cell->batches.fetch_add(1, std::memory_order_relaxed);
  epoch.cell->batched_rows.fetch_add(static_cast<std::uint64_t>(take),
                                     std::memory_order_relaxed);
  inflight_batches_.fetch_add(1, std::memory_order_acq_rel);
  inflight_.spawn(*task.release());  // self-deletes after execution
}

void Server::coalescer_main() {
  // Pending requests, grouped into per-epoch lanes. std::map (ordered, by
  // epoch address) rather than unordered: iteration order only affects
  // dispatch interleaving across epochs, never any request's result, and
  // the live-epoch count is tiny (primary + candidate + whatever drains).
  std::map<detail::Epoch*, detail::Lane> lanes;
  std::int64_t total_rows = 0;
  const auto delay =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(options_.max_delay_ms));
  const auto max_batch = static_cast<std::int64_t>(options_.max_batch);

  // The earliest coalescing deadline across lanes (fronts are each lane's
  // oldest request). Only meaningful while total_rows > 0.
  const auto oldest_deadline = [&lanes, delay] {
    auto best = std::chrono::steady_clock::time_point::max();
    for (const auto& entry : lanes) {
      const detail::Lane& lane = entry.second;
      if (!lane.q.empty()) {
        best = std::min(best, lane.q.front()->enqueued + delay);
      }
    }
    return best;
  };
  // No micro-batch in flight: a partial lane has nothing to wait behind.
  const auto idle = [this] {
    return inflight_batches_.load(std::memory_order_acquire) == 0;
  };

  for (;;) {
    bool stop_now = false;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      RT_AUDIT_LOCK(audit::LockRank::kServingQueue);
      if (total_rows == 0) {
        queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      } else if (queue_.empty() && !stopping_ && delay.count() > 0 &&
                 !idle()) {
        // Partial batches waiting behind a running one: sleep until the
        // earliest deadline, new arrivals, or the last batch finishing.
        queue_cv_.wait_until(lock, oldest_deadline(), [&] {
          return stopping_ || !queue_.empty() || idle();
        });
      }
      while (!queue_.empty()) {
        detail::Request* request = queue_.front();
        queue_.pop_front();
        detail::Lane& lane = lanes[request->epoch.get()];
        if (lane.epoch == nullptr) lane.epoch = request->epoch;
        lane.q.push_back(request);
        lane.rows += request->rows;
        total_rows += request->rows;
      }
      stop_now = stopping_;
    }

    // Full micro-batches dispatch immediately; a partial lane when no batch
    // is in flight, when its own oldest request's deadline expired
    // (max_delay 0 means "whatever has arrived"), or to flush on shutdown.
    // Lanes are independent: an epoch mid-drain cannot delay the epoch
    // taking new traffic.
    const auto now = std::chrono::steady_clock::now();
    for (auto it = lanes.begin(); it != lanes.end();) {
      detail::Lane& lane = it->second;
      while (lane.rows >= max_batch) {
        spawn_batch(lane, max_batch);
        total_rows -= max_batch;
      }
      if (lane.rows > 0) {
        const bool expired = stop_now || delay.count() == 0 ||
                             now >= lane.q.front()->enqueued + delay;
        const bool early = !expired && idle();
        if (expired || early) {
          if (early) idle_batches_.fetch_add(1, std::memory_order_relaxed);
          total_rows -= lane.rows;
          spawn_batch(lane, lane.rows);
        }
      }
      // An empty lane drops its epoch reference immediately — a swapped-out
      // epoch must not stay alive pinned by the coalescer.
      it = lane.q.empty() ? lanes.erase(it) : ++it;
    }

    // Help phase: the coalescer is the guaranteed executor — a single-lane
    // scheduler, or a fleet whose workers all sit blocked in future.get(),
    // still serves — but packing outranks helping. It executes serving
    // tasks (urgent lane only, so it can never adopt a long bulk leaf) just
    // while there is nothing to pack and no partial batch due; the
    // moment requests arrive it returns to packing and leaves the remaining
    // batches to the workers, so a streaming multicore fleet pipelines
    // instead of serializing its batches on this thread.
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        RT_AUDIT_LOCK(audit::LockRank::kServingQueue);
        if (stopping_ || !queue_.empty()) break;
      }
      if (total_rows > 0 &&
          (idle() || std::chrono::steady_clock::now() >= oldest_deadline())) {
        break;  // a partial batch is due: flush it before helping more
      }
      if (!sched_.help_urgent()) break;
    }

    if (stop_now && total_rows == 0) {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      RT_AUDIT_LOCK(audit::LockRank::kServingQueue);
      if (queue_.empty()) return;  // nothing raced in before stopping_ rose
    }
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted_requests = submitted_requests_.load(std::memory_order_relaxed);
  s.submitted_rows = submitted_rows_.load(std::memory_order_relaxed);
  s.completed_requests = completed_requests_.load(std::memory_order_relaxed);
  s.failed_requests = failed_requests_.load(std::memory_order_relaxed);
  s.rejected_requests = rejected_requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_rows = batched_rows_.load(std::memory_order_relaxed);
  s.idle_batches = idle_batches_.load(std::memory_order_relaxed);
  s.queued_rows = queued_rows_.load(std::memory_order_relaxed);
  s.capacity_rows = options_.queue_capacity_rows;
  if (cache_ != nullptr) {
    const CacheStats c = cache_->stats();
    s.cache_hit_rows = c.hit_rows;
    s.cache_miss_rows = c.miss_rows;
  }
  std::vector<std::shared_ptr<detail::VersionCell>> cells;
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
    cells = cells_;
  }
  for (const auto& cell : cells) {
    cell->merge_latency_into(s.latency);
  }
  return s;
}

CacheStats Server::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : CacheStats{};
}

std::vector<VersionStats> Server::version_stats() const {
  std::vector<std::shared_ptr<detail::VersionCell>> cells;
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kServingRoute);
    cells = cells_;
  }
  std::vector<VersionStats> out;
  out.reserve(cells.size());
  for (const auto& cell : cells) {
    VersionStats v;
    v.version = cell->version;
    v.requests = cell->requests.load(std::memory_order_relaxed);
    v.rows = cell->rows.load(std::memory_order_relaxed);
    v.completed_requests = cell->completed.load(std::memory_order_relaxed);
    v.failed_requests = cell->failed.load(std::memory_order_relaxed);
    v.rejected_requests = cell->rejected.load(std::memory_order_relaxed);
    v.batches = cell->batches.load(std::memory_order_relaxed);
    v.batched_rows = cell->batched_rows.load(std::memory_order_relaxed);
    cell->merge_latency_into(v.latency);
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace serving
}  // namespace rt
