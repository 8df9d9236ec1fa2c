// Per-layer probes for the traced run.
//
// Every per-layer metric is the median (or stated quantile) of one span
// name. Where the workload itself calls a layer — the wire client encodes
// frames, edge_zipf deploys, ticket_draw runs PGD — those spans are the
// measurement. For calls the program makes internally (route_for_wire,
// submit -> ready, row_fingerprint + cache, run_rows), or layers a workload
// does not touch, a probe calls the layer's public entry point on the
// workload's own plan, settings and inputs, after the timed window. So
// every workload reports every layer, and a layer it bypasses is the
// "should not move" control for that layer.

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>

#include "attack/attack.hpp"
#include "common/rng.hpp"
#include "core/checkpoint_store.hpp"
#include "loadgen.hpp"
#include "net/net.hpp"
#include "net/protocol.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "registry/registry.hpp"
#include "serving/cache.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

/// Probe inputs start far past any index a workload uses, so the probes'
/// rows are fresh to every cache.
constexpr std::uint64_t kProbeBase = 1ULL << 40;
constexpr const char* kProbeModel = "probe";
constexpr const char* kProbeV1 = "probe@1";
constexpr const char* kProbeV2 = "probe@2";

double p50(const char* span) { return trace::durations_us(span).quantile(0.5); }

void probe_codec(const ProbeInputs& in) {
  const std::int64_t rows = in.rows_per_request;
  const int requests = rows == 1 ? 2000 : 64;
  rt::Tensor x({rows, 3, 16, 16});
  // The reply a server sends back: status OK, request id 1, the logits.
  std::vector<std::uint8_t> body, frame, reply;
  rt::net::encode_logits_body(rt::Tensor({rows, in.plan->num_classes()}),
                              body);
  rt::net::FrameHeader header;
  header.request_id = 1;
  header.body_len = static_cast<std::uint32_t>(body.size());
  rt::net::encode_header(header, reply);
  reply.insert(reply.end(), body.begin(), body.end());
  rt::Tensor decoded{std::vector<std::int64_t>{1}};
  for (int i = 0; i < requests; ++i) {
    for (std::int64_t r = 0; r < rows; ++r) {
      in.row(kProbeBase + static_cast<std::uint64_t>(i * rows + r),
             x.data() + r * kRowFloats);
    }
    {
      Span span("net.encode");
      encode_predict_frame(kProbeV1, 1, x, body, frame);
    }
    Span span("net.decode");
    decode_reply_frame(reply.data(), 1, &decoded);
  }
}

/// Replays the workload's key trace on a PredictionCache with the
/// workload's cache options (the wire_unique options when its cache is off).
void probe_cache(const ProbeInputs& in) {
  rt::serving::CacheOptions options = in.server.cache;
  if (options.capacity_rows == 0) options.capacity_rows = 4096;
  const int classes = in.plan->num_classes();
  rt::serving::PredictionCache cache(options, classes);
  std::vector<float> row(kRowFloats);
  std::vector<float> value(static_cast<std::size_t>(classes), 0.5f);
  std::vector<float> got(static_cast<std::size_t>(classes));
  for (const std::uint64_t k : in.keys) {
    in.row(k, row.data());
    std::uint64_t fingerprint = 0;
    {
      Span span("cache.fingerprint", k);
      fingerprint = rt::row_fingerprint(row.data(), row.size());
    }
    const std::uint64_t key = rt::serving::cache_key(fingerprint, 1);
    bool hit = false;
    {
      Span span("cache.lookup", k);
      hit = cache.lookup(key, got.data());
    }
    if (!hit) {
      Span span("cache.insert", k);
      cache.insert(key, value.data());
    }
  }
}

void probe_engine(const ProbeInputs& in) {
  rt::Session session(in.plan, 64);
  const rt::Tensor x = make_rows(in.row, kProbeBase, 64);
  std::vector<float> logits(64 * static_cast<std::size_t>(
                                     in.plan->num_classes()));
  session.run_rows(x.data(), 64, logits.data());  // warm the workspace
  for (int i = 0; i < 400; ++i) {
    Span span("engine.run_rows.b1");
    session.run_rows(x.data(), 1, logits.data());
  }
  for (int i = 0; i < 80; ++i) {
    Span span("engine.run_rows.b16");
    session.run_rows(x.data(), 16, logits.data());
  }
  for (int i = 0; i < 40; ++i) {
    Span span("engine.run_rows.b64");
    session.run_rows(x.data(), 64, logits.data());
  }
}

void probe_compile(const ProbeInputs& in) {
  for (int i = 0; i < 5; ++i) {
    Span span("engine.compile");
    const rt::CompiledTicket plan = rt::Engine::compile(*in.model, in.compile);
  }
}

/// PGD-5 and one SGD step on 32 of the workload's rows. Trains in.model
/// in place, so it runs last.
void probe_training(const ProbeInputs& in) {
  rt::ResNet& model = *in.model;
  const rt::Tensor x = make_rows(in.row, kProbeBase, 32);
  std::vector<int> y(32);
  for (int i = 0; i < 32; ++i) y[static_cast<std::size_t>(i)] = i % 10;
  rt::Rng rng(7);
  rt::Sgd sgd(model.parameters(), rt::SgdConfig{0.05f, 0.9f, 5e-4f});
  for (int i = 0; i < 4; ++i) {
    rt::Tensor adv;
    {
      Span span("attack.pgd");
      adv = rt::pgd_attack(model, x, y, rt::AttackConfig{0.08f, 0.02f, 5, true},
                           rng);
    }
    Span span("nn.step");
    model.set_training(true);
    model.zero_grad();
    const rt::Tensor logits = model.forward(adv);
    model.backward(rt::softmax_cross_entropy(logits, y).grad_logits);
    sgd.step();
  }
  model.set_training(false);
}

/// Closed-loop RTTs of fresh rows over loopback against submit -> ready on
/// the same server in-process, one request at a time on each side.
void probe_wire(rt::registry::Registry& registry, rt::serving::Server& server,
                const ProbeInputs& in) {
  rt::net::NetOptions options;
  options.serving = in.server;
  options.compile = in.compile;
  rt::net::InferenceServer wire(registry, options);
  rt::net::Client client("127.0.0.1", wire.port());
  const std::int64_t rows = in.rows_per_request;
  const int requests = rows == 1 ? 300 : 24;
  std::uint64_t next = kProbeBase + (1ULL << 20);
  for (int i = 0; i < requests + 4; ++i) {
    rt::Tensor a = make_rows(in.row, next, rows);
    rt::Tensor b = make_rows(in.row, next + static_cast<std::uint64_t>(rows),
                             rows);
    next += 2 * static_cast<std::uint64_t>(rows);
    const bool timed = i >= 4;  // the first requests warm both paths
    std::int64_t t0 = now_ns();
    client.predict(kProbeV1, a);
    std::int64_t t1 = now_ns();
    if (timed) trace::record("probe.wire_rtt", t0, t1);
    t0 = now_ns();
    server.predict(std::move(b));
    t1 = now_ns();
    if (timed) trace::record("probe.inproc_ready", t0, t1);
  }
}

/// The workload's traffic shape replayed in-process on `server`: `depth`
/// requests in flight.
void replay(rt::serving::Server& server, const ProbeInputs& in,
            double seconds, Samples* queued_rows) {
  struct Entry {
    std::future<rt::Tensor> result;
    std::int64_t submitted_ns;
    std::uint64_t id;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Entry> queue;  // guarded by mutex
  int outstanding = 0;      // guarded by mutex
  bool done = false;        // guarded by mutex

  std::thread waiter([&] {
    for (;;) {
      Entry e;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        e = std::move(queue.front());
        queue.pop_front();
      }
      try {
        e.result.get();
        trace::record("serving.ready", e.submitted_ns, now_ns(), e.id);
      } catch (const std::exception&) {
        // A rejected replay request has no ready time; the workload's own
        // checks are where failures count.
      }
      std::lock_guard<std::mutex> lock(mutex);
      --outstanding;
      cv.notify_all();
    }
  });

  // Lets the waiter finish and joins it on every exit path.
  struct StopWaiter {
    std::mutex& mutex;
    std::condition_variable& cv;
    bool& done;
    std::thread& waiter;
    ~StopWaiter() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
      }
      cv.notify_all();
      waiter.join();
    }
  } stop_waiter{mutex, cv, done, waiter};

  QueueSampler sampler(&server, queued_rows);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t id = 0;
  const std::int64_t rows = in.rows_per_request;
  while (now_ns() < end) {
    const std::uint64_t first =
        kProbeBase + (2ULL << 20) + id * static_cast<std::uint64_t>(rows);
    rt::Tensor x = make_rows(in.row, first, rows);
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return outstanding < in.depth; });
      ++outstanding;
    }
    ++id;
    Entry e;
    e.id = id;
    e.submitted_ns = now_ns();
    {
      Span span("serving.submit", id);
      e.result = server.submit(std::move(x));
    }
    std::lock_guard<std::mutex> lock(mutex);
    queue.push_back(std::move(e));
    cv.notify_all();
  }
}

}  // namespace

void probe_layers(ProbeInputs& in, std::map<std::string, Metric>& out) {
  if (trace::count("net.encode") == 0) probe_codec(in);
  probe_cache(in);
  probe_engine(in);
  if (trace::count("engine.compile") == 0) probe_compile(in);

  rt::registry::RegistryOptions ropt;
  ropt.cache_root = "";
  rt::registry::Registry registry(ropt);
  {
    Span span("registry.publish");
    registry.publish(kProbeModel, *in.model);
    registry.publish(kProbeModel, *in.model_v2);
  }
  rt::serving::Server& server = registry.serve(kProbeV1, in.server, in.compile);
  registry.compiled(kProbeV2, in.compile);  // flips below must not compile
  for (int i = 0; i < 500; ++i) {
    Span span("registry.route");
    registry.route_for_wire(kProbeV1, in.server, in.compile);
  }
  probe_wire(registry, server, in);
  if (trace::count("registry.deploy") == 0) {
    for (int i = 1; i <= 4; ++i) {  // ends on v1
      Span span("registry.deploy");
      registry.deploy(i % 2 == 1 ? kProbeV2 : kProbeV1, in.compile);
    }
  }

  // Serving counters describe the workload's own server when it has one,
  // else the replay's.
  rt::serving::ServerStats before{};
  rt::serving::CacheStats cache_before{};
  const rt::serving::Server* counted = in.served;
  Samples queued = in.queued_rows;
  if (counted == nullptr) {
    before = server.stats();
    cache_before = server.cache_stats();
    counted = &server;
  }
  if (trace::count("serving.ready") == 0) {
    Samples replay_queued;
    replay(server, in, 1.5, counted == &server ? &queued : &replay_queued);
  }
  const rt::serving::ServerStats after = counted->stats();
  const rt::serving::CacheStats cache_after = counted->cache_stats();

  if (trace::count("attack.pgd") == 0) probe_training(in);

  const double encode = p50("net.encode");
  const double decode = p50("net.decode");
  const double route = p50("registry.route");
  out["net.encode_us"] = {encode, "us"};
  out["net.decode_us"] = {decode, "us"};
  out["net.residual_us"] = {p50("probe.wire_rtt") -
                                p50("probe.inproc_ready") - encode - decode -
                                route,
                            "us"};
  out["registry.route_us"] = {route, "us"};
  out["registry.deploy_ms"] = {p50("registry.deploy") / 1e3, "ms"};

  Samples ready = trace::durations_us("serving.ready");
  out["serving.submit_us"] = {p50("serving.submit"), "us"};
  out["serving.ready_p50_us"] = {ready.quantile(0.5), "us"};
  out["serving.ready_p99_us"] = {ready.quantile(0.99), "us"};
  const double batches = static_cast<double>(after.batches - before.batches);
  out["serving.rows_per_batch"] = {
      batches > 0 ? static_cast<double>(after.batched_rows -
                                        before.batched_rows) /
                        batches
                  : 0.0,
      "rows"};
  out["serving.queued_rows_p99"] = {queued.quantile(0.99), "rows"};

  const double hits =
      static_cast<double>(cache_after.hit_rows - cache_before.hit_rows);
  const double misses =
      static_cast<double>(cache_after.miss_rows - cache_before.miss_rows);
  out["cache.hit_rate"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0,
                           "ratio"};
  out["cache.fingerprint_us"] = {p50("cache.fingerprint"), "us"};
  out["cache.lookup_us"] = {p50("cache.lookup"), "us"};
  out["cache.insert_us"] = {p50("cache.insert"), "us"};

  const double b64_us = p50("engine.run_rows.b64");
  out["engine.row_us.b1"] = {p50("engine.run_rows.b1"), "us"};
  out["engine.row_us.b16"] = {p50("engine.run_rows.b16") / 16.0, "us"};
  out["engine.row_us.b64"] = {b64_us / 64.0, "us"};
  // Operations computed from the plan's MAC count, not hardware counters.
  out["engine.gops"] = {2.0 * static_cast<double>(in.plan->effective_macs()) *
                            64.0 / (b64_us * 1e3),
                        "Gop/s"};
  out["engine.compile_ms"] = {p50("engine.compile") / 1e3, "ms"};
  out["engine.plan_mb"] = {
      static_cast<double>(in.plan->packed_bytes() +
                          in.plan->prepacked_bytes()) /
          (1024.0 * 1024.0),
      "MiB"};
  out["attack.pgd_ms"] = {p50("attack.pgd") / 1e3, "ms"};
  out["nn.step_ms"] = {p50("nn.step") / 1e3, "ms"};
  out["prune.omp_ms"] = {p50("prune.omp") / 1e3, "ms"};
}

}  // namespace e2e
