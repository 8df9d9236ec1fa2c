// Socket front-end micro-benchmarks (google-benchmark): what the wire adds
// on top of the in-process serving layer, measured on the paper's deployment
// artifact — a 90%-sparse MicroResNet-18 ticket served over loopback TCP.
//
//   BM_NetLatencyP50P99             closed-loop single client, one blocking
//                                   1-row predict at a time over a loopback
//                                   socket: framing + syscalls + the full
//                                   registry/serving dispatch path. Client-
//                                   side round-trip quantiles (p50_us /
//                                   p99_us) — the number a remote caller
//                                   actually experiences.
//   BM_NetThroughputConnections/    C long-lived connections, each driving a
//     conns/pipelined               burst of 1-row requests. pipelined=0
//                                   waits out every round trip (the blocking
//                                   baseline); pipelined=1 streams the burst
//                                   and drains replies in arrival order, so
//                                   the wire, the coalescer, and the shards
//                                   overlap. The 32-connection pipelined
//                                   row vs the 1-connection blocking row is
//                                   the front-end's concurrency headroom.
//   BM_NetInProcessBaseline         the same burst submitted straight to
//                                   serving::Server futures — no sockets.
//                                   The gap to the net rows is the total
//                                   cost of the wire.
//
// bench_net registers into the bench_serving binary too (like bench_cache),
// so scripts/check.sh --bench-json lands all of it in BENCH_serving.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "net/net.hpp"
#include "prune/baselines.hpp"
#include "registry/registry.hpp"
#include "serving/serving.hpp"
#include "tensor/tensor.hpp"

namespace {

constexpr int kRequestsPerConn = 32;

/// The deployment artifact every net bench serves: a 90%-per-layer-sparse
/// r18 whose convs pack as CSR (compiled at the default 16x16 geometry).
std::unique_ptr<rt::ResNet> net_sparse_r18(std::uint64_t seed) {
  rt::Rng rng(seed);
  auto model = rt::make_micro_resnet18(10, rng);
  rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
  model->set_training(false);
  return model;
}

/// One fleet config for every bench in this file: the production-shaped
/// coalescer (a real batching window, like ServerOptions' defaults). A
/// closed-loop blocking client finds no batch in flight, so its lone row
/// dispatches at once and never waits out the window, but it never fills a
/// batch either; pipelined connections keep a batch running, so the rows
/// behind it pack — that asymmetry is what the throughput rows quantify.
rt::serving::ServerOptions net_fleet_options() {
  rt::serving::ServerOptions opt;
  opt.max_batch = 64;
  opt.max_delay_ms = 0.2;
  opt.queue_capacity_rows = 1 << 16;
  return opt;
}

/// Registry with one published r18 and a warmed wire endpoint: the first
/// predict compiles the plan and spins up the fleet, which must not be
/// inside anyone's timed loop.
struct NetBenchHarness {
  rt::registry::Registry registry;
  std::unique_ptr<rt::net::InferenceServer> server;
  rt::Tensor row{std::vector<std::int64_t>{1}};

  NetBenchHarness() : registry(hermetic()) {
    auto model = net_sparse_r18(9);
    registry.publish("r18", *model);
    rt::net::NetOptions opt;
    opt.serving = net_fleet_options();
    server = std::make_unique<rt::net::InferenceServer>(registry, opt);
    rt::Rng rng(21);
    row = rt::Tensor::uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);
    rt::net::Client warm("127.0.0.1", server->port());
    warm.predict("r18@1", row);
  }

 private:
  static rt::registry::RegistryOptions hermetic() {
    rt::registry::RegistryOptions opt;
    opt.cache_root = "";  // never touches the disk cache
    return opt;
  }
};

void BM_NetLatencyP50P99(benchmark::State& state) {
  NetBenchHarness harness;
  rt::net::Client client("127.0.0.1", harness.server->port());

  std::vector<double> samples_us;
  samples_us.reserve(4096);
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(client.predict("r18@1", harness.row));
    const auto end = std::chrono::steady_clock::now();
    samples_us.push_back(
        std::chrono::duration<double, std::micro>(end - begin).count());
  }
  if (!samples_us.empty()) {
    auto quantile = [&](double q) {
      const auto rank = static_cast<std::ptrdiff_t>(
          q * static_cast<double>(samples_us.size() - 1));
      std::nth_element(samples_us.begin(), samples_us.begin() + rank,
                       samples_us.end());
      return samples_us[static_cast<std::size_t>(rank)];
    };
    state.counters["p50_us"] = quantile(0.50);
    state.counters["p99_us"] = quantile(0.99);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetLatencyP50P99)->UseRealTime();

void BM_NetThroughputConnections(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  const bool pipelined = state.range(1) == 1;
  NetBenchHarness harness;

  // Long-lived connections, opened once: the bench measures steady-state
  // request flow, not handshakes.
  std::vector<std::unique_ptr<rt::net::Client>> clients;
  clients.reserve(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<rt::net::Client>(
        "127.0.0.1", harness.server->port()));
  }

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(conns));
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        rt::net::Client& client = *clients[static_cast<std::size_t>(c)];
        if (pipelined) {
          std::vector<rt::net::Client::Reply> inflight;
          inflight.reserve(kRequestsPerConn);
          for (int r = 0; r < kRequestsPerConn; ++r) {
            inflight.push_back(client.submit("r18@1", harness.row));
          }
          for (auto& reply : inflight) benchmark::DoNotOptimize(reply.get());
        } else {
          for (int r = 0; r < kRequestsPerConn; ++r) {
            benchmark::DoNotOptimize(client.predict("r18@1", harness.row));
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  state.SetItemsProcessed(state.iterations() * conns * kRequestsPerConn);
}
BENCHMARK(BM_NetThroughputConnections)
    ->Args({1, 0})   // single connection, blocking round trips
    ->Args({1, 1})   // single connection, pipelined
    ->Args({8, 1})   // 8 connections, pipelined
    ->Args({32, 1})  // 32 connections, pipelined
    ->UseRealTime();

void BM_NetInProcessBaseline(benchmark::State& state) {
  // The no-socket comparator: identical fleet options, identical burst
  // shape, futures drained directly. Everything the net rows pay on top of
  // this is the wire.
  auto model = net_sparse_r18(9);
  auto plan = std::make_shared<const rt::CompiledTicket>(
      rt::Engine::compile(*model));
  rt::serving::Server server(plan, net_fleet_options());

  rt::Rng rng(21);
  const rt::Tensor row = rt::Tensor::uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    std::vector<std::future<rt::Tensor>> inflight;
    inflight.reserve(kRequestsPerConn);
    for (int r = 0; r < kRequestsPerConn; ++r) {
      inflight.push_back(server.submit(rt::Tensor(row)));
    }
    for (auto& f : inflight) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * kRequestsPerConn);
}
BENCHMARK(BM_NetInProcessBaseline)->UseRealTime();

}  // namespace
