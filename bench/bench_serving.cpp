// Serving front-end micro-benchmarks (google-benchmark): what the async
// coalescing layer costs and buys on the paper's deployment artifact — a
// 90%-sparse unstructured MicroResNet-18 ticket whose layers pack as CSR.
//
//   BM_ServerLatencyP50P99/shards   closed-loop single client, one 1-row
//                                   request at a time: the per-request
//                                   latency floor of the queue + coalescer +
//                                   serving-lane dispatch + future path,
//                                   reported as p50/p99 counters (us) read
//                                   from the server's own latency histogram
//                                   (ServerStats::latency) — the same
//                                   numbers an operator scrapes in
//                                   production, with no client-side timing.
//   BM_RegistryHotSwap              the rollout cost: a closed-loop client
//                                   against a registry-served model, first
//                                   at steady state, then while the
//                                   registry alternates zero-downtime
//                                   deploys between two published versions.
//                                   p99_steady_us vs p99_swap_us bounds the
//                                   latency tax a hot swap imposes on
//                                   in-flight traffic.
//   BM_ServerThroughputClients/     C clients each submit a burst of 1-row
//     clients/batched/shards        requests asynchronously and then drain
//                                   their futures. batched=0 serves every
//                                   request as its own micro-batch
//                                   (max_batch=1, the per-request baseline);
//                                   batched=1 lets the coalescer pack up to
//                                   16 rows, amortizing workspace checkout,
//                                   dispatch, and weight streaming across
//                                   the batch. The rows_per_batch counter
//                                   reports the achieved fill, and
//                                   idle_batch_share the fraction of
//                                   batches that dispatched partial because
//                                   no batch was in flight
//                                   (ServerStats::idle_batches / batches).
//
// scripts/check.sh --bench-json writes these to BENCH_serving.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "prune/baselines.hpp"
#include "registry/registry.hpp"
#include "serving/serving.hpp"
#include "tensor/tensor.hpp"

namespace {

/// The deployment artifact every serving bench runs: a 90%-per-layer-sparse
/// r18 whose convs pack as CSR (compiled at the default 16x16 geometry).
std::unique_ptr<rt::ResNet> sparse_r18_model(std::uint64_t seed) {
  rt::Rng rng(seed);
  auto model = rt::make_micro_resnet18(10, rng);
  rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
  model->set_training(false);
  return model;
}

std::shared_ptr<const rt::CompiledTicket> sparse_r18_plan() {
  return std::make_shared<const rt::CompiledTicket>(
      rt::Engine::compile(*sparse_r18_model(9)));
}

/// Histogram delta between two stats() snapshots of one server: the latency
/// distribution of exactly the requests completed in between.
rt::serving::LatencySnapshot snapshot_delta(
    const rt::serving::LatencySnapshot& after,
    const rt::serving::LatencySnapshot& before) {
  rt::serving::LatencySnapshot delta;
  delta.count = after.count - before.count;
  for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return delta;
}

void BM_ServerLatencyP50P99(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  auto plan = sparse_r18_plan();
  rt::serving::ServerOptions opt;
  opt.shards = shards;
  opt.max_batch = 16;
  opt.max_delay_ms = 0.05;
  rt::serving::Server server(plan, opt);

  rt::Rng rng(11);
  const rt::Tensor x = rt::Tensor::uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.predict(x));
  }
  // Quantiles come from the server's own log-scale histogram — no
  // client-side sample vector, and exactly what stats() exports.
  const rt::serving::LatencySnapshot lat = server.stats().latency;
  if (lat.count > 0) {
    state.counters["p50_us"] = lat.quantile_us(0.50);
    state.counters["p99_us"] = lat.quantile_us(0.99);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerLatencyP50P99)->Arg(1)->Arg(2)->UseRealTime();

void BM_ServerThroughputClients(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const bool batched = state.range(1) == 1;
  const int shards = static_cast<int>(state.range(2));
  auto plan = sparse_r18_plan();
  rt::serving::ServerOptions opt;
  opt.shards = shards;
  opt.max_batch = batched ? 16 : 1;
  // max_batch=1 fills every batch instantly, so the delay only matters for
  // the coalescing configuration.
  opt.max_delay_ms = batched ? 0.1 : 0.0;
  opt.queue_capacity_rows = 1 << 16;
  rt::serving::Server server(plan, opt);

  rt::Rng rng(12);
  const rt::Tensor x = rt::Tensor::uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);
  constexpr int kRequestsPerClient = 64;

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        std::vector<std::future<rt::Tensor>> inflight;
        inflight.reserve(kRequestsPerClient);
        for (int r = 0; r < kRequestsPerClient; ++r) {
          inflight.push_back(server.submit(rt::Tensor(x)));
        }
        for (auto& f : inflight) benchmark::DoNotOptimize(f.get());
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const rt::serving::ServerStats st = server.stats();
  if (st.batches > 0) {
    state.counters["rows_per_batch"] =
        static_cast<double>(st.batched_rows) / static_cast<double>(st.batches);
    state.counters["idle_batch_share"] =
        static_cast<double>(st.idle_batches) / static_cast<double>(st.batches);
  }
  state.SetItemsProcessed(state.iterations() * clients * kRequestsPerClient);
}
BENCHMARK(BM_ServerThroughputClients)
    ->Args({1, 0, 1})  // single client, per-request baseline
    ->Args({1, 1, 1})  // single client, micro-batching
    ->Args({4, 1, 1})  // 4 clients sharing one shard
    ->Args({4, 1, 2})  // 4 clients over a 2-shard fleet
    ->UseRealTime();

void BM_RegistryHotSwap(benchmark::State& state) {
  rt::registry::RegistryOptions ropt;
  ropt.cache_root = "";  // hermetic: the bench never touches the disk cache
  rt::registry::Registry reg(ropt);
  auto v1 = sparse_r18_model(9);
  auto v2 = sparse_r18_model(10);
  reg.publish("r18", *v1);
  reg.publish("r18", *v2);

  rt::serving::ServerOptions opt;
  opt.max_batch = 16;
  opt.max_delay_ms = 0.05;
  rt::serving::Server& server = reg.serve("r18@1", opt);
  // Warm both compiled plans so the swap loop measures the swap itself, not
  // a first-demand ticket compilation.
  const auto plan1 = reg.compiled("r18@1");
  const auto plan2 = reg.compiled("r18@2");

  rt::Rng rng(13);
  const rt::Tensor x = rt::Tensor::uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f);

  // Steady-state baseline (untimed): the same closed loop with no deploys.
  constexpr int kSteadyRequests = 128;
  for (int i = 0; i < kSteadyRequests; ++i) {
    benchmark::DoNotOptimize(server.predict(x));
  }
  const rt::serving::LatencySnapshot steady = server.stats().latency;
  const double p99_steady_us = steady.quantile_us(0.99);

  // Timed phase: the registry alternates zero-downtime deploys under the
  // same closed-loop client; the histogram delta isolates this phase.
  std::int64_t swaps = 0;
  std::int64_t i = 0;
  for (auto _ : state) {
    if (i % 16 == 0) {
      reg.deploy(swaps % 2 == 0 ? "r18@2" : "r18@1");
      ++swaps;
    }
    ++i;
    benchmark::DoNotOptimize(server.predict(x));
  }
  const rt::serving::LatencySnapshot swap_phase =
      snapshot_delta(server.stats().latency, steady);
  if (swap_phase.count > 0) {
    state.counters["p99_steady_us"] = p99_steady_us;
    state.counters["p99_swap_us"] = swap_phase.quantile_us(0.99);
  }
  state.counters["swaps"] = static_cast<double>(swaps);
  // Every deploy re-demands a compiled ticket; with the bounded PlanCache
  // retaining both versions, each one is a hit — zero recompilations across
  // the whole swap phase.
  state.counters["plan_cache_hits"] =
      static_cast<double>(reg.plan_cache_stats().hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryHotSwap)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
