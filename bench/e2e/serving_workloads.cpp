// The three serving workloads: wire_unique, edge_zipf and bulk_int8. Each
// serves the r18_omp90 ticket (make_r18_omp90(9)). Inputs and the
// references the output checks compare against are made after set-up, so
// setup_s does not include them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <stdexcept>

#include "common/rng.hpp"
#include "loadgen.hpp"
#include "net/net.hpp"
#include "registry/registry.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr const char* kModel = "r18_omp90";
constexpr const char* kRefV1 = "r18_omp90@1";
constexpr const char* kRefV2 = "r18_omp90@2";

// Input streams: one per workload, so no two workloads share rows.
constexpr std::uint64_t kWireStream = 1;
constexpr std::uint64_t kEdgeStream = 2;
constexpr std::uint64_t kBulkStream = 3;
constexpr std::uint64_t kWarmStream = 9;

/// wire_unique's connections, and the requests each keeps outstanding in
/// phase B.
constexpr int kWireConnections = 2;
constexpr int kWireDepth = 16;

rt::registry::RegistryOptions hermetic() {
  rt::registry::RegistryOptions opt;
  opt.cache_root = "";  // the benchmark reads and writes nothing outside
  return opt;
}

std::string format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Zipf(s) over ranks [0, keys) by inverse CDF on a Pcg32 stream.
class Zipf {
 public:
  Zipf(double s, int keys, std::uint64_t seed, std::uint64_t stream)
      : rng_(seed, stream) {
    double total = 0.0;
    for (int k = 1; k <= keys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::uint64_t next() {
    const double u = rng_.uniform_double();
    return static_cast<std::uint64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  rt::Pcg32 rng_;
  std::vector<double> cdf_;
};

/// Rows of `batch` that differ bitwise from `reference` (same shape).
std::int64_t mismatched_rows(const rt::Tensor& batch,
                             const rt::Tensor& reference) {
  const std::int64_t cols = batch.dim(1);
  std::int64_t bad = 0;
  for (std::int64_t r = 0; r < batch.dim(0); ++r) {
    if (!same_bits(batch.data() + r * cols, reference.data() + r * cols,
                   cols)) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

// ---------------------------------------------------------------------------
// wire_unique: the fleet path. Every request is a distinct 1-row input, so
// every row is a cache write (miss + insert + evict) with no reuse.
// ---------------------------------------------------------------------------

Outcome run_wire_unique(const Args& args) {
  Outcome out;
  rt::serving::ServerOptions sopt;
  sopt.max_batch = 64;
  sopt.max_delay_ms = 0.2;
  sopt.cache.capacity_rows = 4096;
  sopt.cache.policy = rt::serving::CachePolicy::kArc;
  const std::uint64_t seed = args.seed;
  const auto row = [seed](std::uint64_t i, float* o) {
    fill_row(seed, kWireStream, i, o);
  };
  const auto warm = [seed](std::uint64_t i, float* o) {
    fill_row(seed, kWarmStream, i, o);
  };

  struct State {
    rt::registry::Registry registry{hermetic()};
    std::unique_ptr<rt::ResNet> model;
    std::unique_ptr<rt::net::InferenceServer> server;
    std::unique_ptr<WireLoad> load;
  };
  auto state = setup(args, [&] {
    auto s = std::make_unique<State>();
    s->model = make_r18_omp90(9);
    {
      Span span("registry.publish");
      s->registry.publish(kModel, *s->model);
    }
    rt::net::NetOptions nopt;
    nopt.serving = sopt;
    s->server = std::make_unique<rt::net::InferenceServer>(s->registry, nopt);
    {
      // The first PREDICT compiles the plan and starts the fleet.
      Span span("setup.warmup");
      rt::net::Client client("127.0.0.1", s->server->port());
      for (std::uint64_t i = 0; i < 8; ++i) {
        client.predict(kRefV1, make_rows(warm, i, 1));
      }
    }
    s->load = std::make_unique<WireLoad>(s->server->port(), kWireConnections,
                                         kRefV1, row);
    return s;
  });

  // Phase A (40% of the run): one user waiting for each reply, so p50_us is
  // the round trip through every layer with nothing queued. Phase B (60%):
  // pipelined connections, so throughput_rps is what batching gets out of
  // the serving path.
  ProbeInputs in;
  in.served = state->registry.find_server(kModel);
  PhaseResult a, b;
  {
    QueueSampler sampler(in.served, &in.queued_rows);
    a = state->load->run_closed(1, 1, args.seconds * 0.4 + kWarmupNs / 1e9);
    b = state->load->run_closed(kWireConnections, kWireDepth,
                                args.seconds * 0.6);
  }
  out.peak_rss_mib = peak_rss_mib();
  out.attempted = a.sent + b.sent;
  out.failed = a.failed + b.failed;
  out.latency_us = a.latency_us;
  out.latency_start_ns = a.start_ns + kWarmupNs;
  out.latency_end_ns = a.end_ns;
  // A lone request's round trip is mostly socket calls and thread hand-offs
  // through the kernel, which slow like the scalar reference.
  out.latency_reference = Reference::kScalar;
  out.rate_start_ns = b.start_ns;
  out.rate_end_ns = b.end_ns;
  out.rate_window = kRateWindowRows;
  for (const Timeline::Point& p : b.latency_us.points(b.start_ns, b.end_ns)) {
    out.completed_rows.add(p.t_ns, 1.0);
  }

  // Output check: every 16th request, regenerated from (seed, id), must be
  // bitwise the serving version's Session::predict.
  const auto plan = state->registry.compiled(kRefV1);
  // A sampled id whose reply was not OK is already counted as failed.
  const auto& sampled = state->load->sampled();
  rt::Tensor rows({std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                                 sampled.size())),
                   3, 16, 16});
  rt::Tensor served({rows.dim(0), 10});
  std::int64_t r = 0;
  for (const auto& [id, logits] : sampled) {
    row(id, rows.data() + r * kRowFloats);
    std::copy(logits.begin(), logits.end(), served.data() + r * 10);
    ++r;
  }
  if (!sampled.empty()) {
    rt::Session session(plan, 64);
    out.failed += mismatched_rows(served, session.predict(rows));
  }

  const rt::serving::CacheStats cache = in.served->cache_stats();
  out.notes.push_back(format(
      "phase A: %.0f requests one at a time; phase B: %.0f requests, %.0f "
      "outstanding",
      static_cast<double>(a.sent), static_cast<double>(b.sent),
      kWireConnections * kWireDepth));
  out.notes.push_back(format("checked %.0f sampled replies bitwise",
                             static_cast<double>(sampled.size())));
  out.notes.push_back(format("cache hit_rows %.0f, evicted_rows %.0f",
                             static_cast<double>(cache.hit_rows),
                             static_cast<double>(cache.evicted_rows)));
  state->load.reset();  // joins the receiver before anything reads spans

  if (args.trace) {
    auto v2 = make_r18_omp90(10);
    in.model = state->model.get();
    in.model_v2 = v2.get();
    in.server = sopt;
    in.plan = plan;
    in.rows_per_request = 1;
    in.depth = 1;  // phase A
    in.row = row;
    for (std::uint64_t k = 1; k <= 4096; ++k) in.keys.push_back(k);
    probe_layers(in, out.per_layer);
  }
  return out;
}

// ---------------------------------------------------------------------------
// edge_zipf: the edge path with no network. Cache reads dominate, and every
// flip between v1 and v2 retags the cache epoch beside live predictions.
// ---------------------------------------------------------------------------

Outcome run_edge_zipf(const Args& args) {
  Outcome out;
  constexpr int kKeys = 500;
  constexpr int kCallers = 2;
  rt::serving::ServerOptions sopt;
  sopt.max_batch = 16;
  sopt.max_delay_ms = 0.0;
  sopt.cache.capacity_rows = 50;  // 10% of the keys
  sopt.cache.policy = rt::serving::CachePolicy::kArc;
  const std::uint64_t seed = args.seed;
  const auto row = [seed](std::uint64_t i, float* o) {
    fill_row(seed, kEdgeStream, i, o);
  };
  const auto warm = [seed](std::uint64_t i, float* o) {
    fill_row(seed, kWarmStream, i, o);
  };

  struct State {
    rt::registry::Registry registry{hermetic()};
    std::unique_ptr<rt::ResNet> v1, v2;
    rt::serving::Server* server = nullptr;
  };
  auto state = setup(args, [&] {
    auto s = std::make_unique<State>();
    s->v1 = make_r18_omp90(9);
    s->v2 = make_r18_omp90(10);
    {
      Span span("registry.publish");
      s->registry.publish(kModel, *s->v1);
      s->registry.publish(kModel, *s->v2);
    }
    {
      Span span("registry.serve");
      s->server = &s->registry.serve(kRefV1, sopt);
      s->registry.compiled(kRefV2);  // the first flip must not compile
    }
    {
      Span span("setup.warmup");
      for (std::uint64_t i = 0; i < 8; ++i) {
        s->server->predict(make_rows(warm, i, 1));
      }
    }
    return s;
  });

  std::vector<rt::Tensor> inputs;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    inputs.push_back(make_rows(row, k, 1));
  }
  const rt::Tensor all = make_rows(row, 0, kKeys);
  rt::Session s1(state->registry.compiled(kRefV1), 64);
  rt::Session s2(state->registry.compiled(kRefV2), 64);
  const rt::Tensor ref1 = s1.predict(all);
  const rt::Tensor ref2 = s2.predict(all);

  ProbeInputs in;
  in.served = state->server;
  std::atomic<bool> stop{false};
  struct CallerResult {
    Timeline latency_us;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
  };
  std::vector<CallerResult> results(kCallers);
  const std::int64_t start = now_ns() + kWarmupNs;
  const std::int64_t end =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  int flips = 0;
  {
    QueueSampler sampler(state->server, &in.queued_rows);
    std::vector<std::thread> callers;
    // Stops and joins the callers on every exit path.
    struct StopCallers {
      std::atomic<bool>& stop;
      std::vector<std::thread>& threads;
      ~StopCallers() {
        stop.store(true, std::memory_order_relaxed);
        for (std::thread& t : threads) t.join();
      }
    } stop_callers{stop, callers};
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        CallerResult& res = results[static_cast<std::size_t>(t)];
        res.latency_us.reserve(1 << 18);
        Zipf zipf(1.1, kKeys, seed, static_cast<std::uint64_t>(t));
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t k = zipf.next();
          const std::uint64_t req = ++res.attempted;
          const std::int64_t t0 = now_ns();
          try {
            std::future<rt::Tensor> f;
            {
              Span span("serving.submit", req);
              f = state->server->submit(rt::Tensor(inputs[k]));
            }
            const rt::Tensor logits = f.get();
            const std::int64_t t1 = now_ns();
            trace::record("serving.ready", t0, t1, req);
            const auto off = static_cast<std::int64_t>(k) * 10;
            if (logits.numel() != 10 ||
                !(same_bits(logits.data(), ref1.data() + off, 10) ||
                  same_bits(logits.data(), ref2.data() + off, 10))) {
              ++res.failed;
              continue;
            }
            res.latency_us.add(t1, static_cast<double>(t1 - t0) / 1e3);
          } catch (const std::exception&) {
            ++res.failed;
          }
        }
      });
    }
    // Flip between v1 and v2 at every sixth of the timed window, beside
    // live traffic.
    for (int i = 1; i < 6; ++i) {
      const std::int64_t at = start + (end - start) * i / 6;
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - now_ns()));
      Span span("registry.deploy");
      state->registry.deploy(i % 2 == 1 ? kRefV2 : kRefV1);
      ++flips;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(end - now_ns()));
  }
  out.peak_rss_mib = peak_rss_mib();
  for (const CallerResult& res : results) {
    out.attempted += res.attempted;
    out.failed += res.failed;
    out.latency_us.merge(res.latency_us);
  }
  out.latency_start_ns = out.rate_start_ns = start;
  out.latency_end_ns = out.rate_end_ns = end;
  // The median request is a cache hit, whose time is row_fingerprint's
  // FNV-1a chain; a miss (and so throughput) is vector work.
  out.latency_reference = Reference::kScalar;
  out.rate_window = kRateWindowRows;
  for (const Timeline::Point& p : out.latency_us.points(start, end)) {
    out.completed_rows.add(p.t_ns, 1.0);
  }
  const rt::serving::CacheStats cache = state->server->cache_stats();
  const double looked_up =
      static_cast<double>(cache.hit_rows + cache.miss_rows);
  out.notes.push_back(format("hot swaps %.0f; cache hit rate %.4f",
                             static_cast<double>(flips),
                             looked_up > 0 ? cache.hit_rows / looked_up : 0.0));
  out.notes.push_back("checked every reply bitwise against v1 or v2");

  if (args.trace) {
    in.model = state->v1.get();
    in.model_v2 = state->v2.get();
    in.server = sopt;
    in.plan = state->registry.compiled(kRefV1);
    in.rows_per_request = 1;
    in.depth = kCallers;
    in.row = row;
    Zipf zipf(1.1, kKeys, seed, 0);
    for (int i = 0; i < 4096; ++i) in.keys.push_back(zipf.next());
    probe_layers(in, out.per_layer);
  }
  return out;
}

// ---------------------------------------------------------------------------
// bulk_int8: offline evaluation through the int8-native plan. The work sits
// in the int8 kernels and request splitting; no network and no cache.
// ---------------------------------------------------------------------------

Outcome run_bulk_int8(const Args& args) {
  Outcome out;
  constexpr std::int64_t kRequestRows = 256;  // a multiple of max_batch
  constexpr int kRequests = 16;               // 4096 distinct rows
  constexpr int kInFlight = 4;
  rt::serving::ServerOptions sopt;
  sopt.max_batch = 64;
  sopt.max_delay_ms = 0.0;
  rt::CompileOptions copt;
  copt.int8_weights = true;  // executed natively (CompileOptions default)
  const std::uint64_t seed = args.seed;
  const auto row = [seed](std::uint64_t i, float* o) {
    fill_row(seed, kBulkStream, i, o);
  };
  const auto warm = [seed](std::uint64_t i, float* o) {
    fill_row(seed, kWarmStream, i, o);
  };

  struct State {
    std::unique_ptr<rt::ResNet> model;
    std::shared_ptr<const rt::CompiledTicket> plan;
    std::unique_ptr<rt::serving::Server> server;
  };
  auto state = setup(args, [&] {
    auto s = std::make_unique<State>();
    s->model = make_r18_omp90(9);
    {
      Span span("engine.compile");
      s->plan = std::make_shared<const rt::CompiledTicket>(
          rt::Engine::compile(*s->model, copt));
    }
    s->server = std::make_unique<rt::serving::Server>(s->plan, sopt);
    {
      Span span("setup.warmup");
      s->server->predict(make_rows(warm, 0, kRequestRows));
    }
    return s;
  });

  // Chunk boundaries coincide (256 rows = 4 x max_batch), so a Session at
  // max_batch 64 is the bitwise reference even with per-batch int8 scales.
  std::vector<rt::Tensor> requests, refs;
  rt::Session session(state->plan, 64);
  for (int j = 0; j < kRequests; ++j) {
    requests.push_back(make_rows(
        row, static_cast<std::uint64_t>(j) * kRequestRows, kRequestRows));
    refs.push_back(session.predict(requests.back()));
  }

  ProbeInputs in;
  in.served = state->server.get();
  struct InFlight {
    std::future<rt::Tensor> result;
    int request;
    std::uint64_t id;
    std::int64_t submitted_ns;
  };
  std::deque<InFlight> queue;
  std::uint64_t next_id = 0;
  int next_request = 0;
  const auto submit = [&] {
    const std::uint64_t id = ++next_id;
    const std::int64_t t0 = now_ns();
    std::future<rt::Tensor> f;
    {
      Span span("serving.submit", id);
      f = state->server->submit(rt::Tensor(requests[static_cast<std::size_t>(
          next_request)]));
    }
    queue.push_back({std::move(f), next_request, id, t0});
    next_request = (next_request + 1) % kRequests;
    ++out.attempted;
  };
  const std::int64_t start = now_ns() + kWarmupNs;
  const std::int64_t end =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  {
    QueueSampler sampler(state->server.get(), &in.queued_rows);
    for (int i = 0; i < kInFlight; ++i) submit();
    while (!queue.empty()) {
      InFlight f = std::move(queue.front());
      queue.pop_front();
      try {
        const rt::Tensor logits = f.result.get();
        const std::int64_t t1 = now_ns();
        trace::record("serving.ready", f.submitted_ns, t1, f.id);
        const rt::Tensor& ref = refs[static_cast<std::size_t>(f.request)];
        if (!logits.same_shape(ref) || mismatched_rows(logits, ref) != 0) {
          ++out.failed;
        } else {
          out.latency_us.add(t1,
                             static_cast<double>(t1 - f.submitted_ns) / 1e3);
        }
      } catch (const std::exception&) {
        ++out.failed;
      }
      if (now_ns() < end) submit();
    }
  }
  out.peak_rss_mib = peak_rss_mib();
  out.latency_start_ns = out.rate_start_ns = start;
  out.latency_end_ns = out.rate_end_ns = end;
  static_assert(kRequestRows == kRateWindowRows);
  out.rate_window = 1;
  for (const Timeline::Point& p : out.latency_us.points(start, end)) {
    out.completed_rows.add(p.t_ns, kRequestRows);
  }
  out.notes.push_back("checked every reply bitwise against Session(plan, 64)");

  if (args.trace) {
    auto v2 = make_r18_omp90(10);
    in.model = state->model.get();
    in.model_v2 = v2.get();
    in.compile = copt;
    in.server = sopt;
    in.plan = state->plan;
    in.rows_per_request = kRequestRows;
    in.depth = kInFlight;
    in.row = row;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t k = 0; k < kRequests * kRequestRows; ++k) {
        in.keys.push_back(k);
      }
    }
    probe_layers(in, out.per_layer);
  }
  return out;
}

}  // namespace e2e
