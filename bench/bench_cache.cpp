// Prediction-cache benchmarks (google-benchmark): what each eviction policy
// buys on the paper's deployment artifact — a 90%-sparse MicroResNet-18
// ticket — under the canonical serving traffic shapes.
//
//   BM_CacheServing_<trace>_<policy>   closed-loop single client replaying a
//       deterministic 4096-reference trace of 1-row requests through a live
//       serving::Server, cache capacity 50 rows = 10% of the 500-key hot
//       population. Policies: off (baseline), lru, arc.
//       Traces:
//         zipf08   Zipf(s=0.8) over the hot population — mild skew
//         zipf11   Zipf(s=1.1) — production-shaped skew; the acceptance
//                  target (>= 2x items/s over `off` for the best policy)
//         uniform  every hot key equally likely — the worst case for any
//                  policy at 10% capacity
//         scan     bursts of Zipf(1.1) hot traffic interleaved with
//                  sequential sweeps over a 400-key cold range — the
//                  classic LRU-thrashing pattern; ARC keeps the hot set
//                  resident where LRU churns
//       Counters: hit_rate (cache rows answered / rows looked up), p50_us /
//       p99_us from the server's own latency histogram, items/s from the
//       closed loop.
//   BM_CacheLookupHit / BM_CacheLookupMiss   raw PredictionCache probe cost
//       (3 KiB row fingerprint + key mix + shard lock + map walk, plus the
//       10-float copy on a hit), the floor a hit pays instead of the full
//       coalesce->dispatch->kernel path. Both time the same fingerprint, so
//       their difference is the probe outcome alone.
//
// Every trace is generated by the constexpr-capable rt::Pcg32, so the
// reference streams are bit-identical across hosts and toolchains; numbers
// land in BENCH_serving.json via scripts/check.sh --bench-json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint_store.hpp"
#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "prune/baselines.hpp"
#include "serving/cache.hpp"
#include "serving/serving.hpp"
#include "tensor/tensor.hpp"

namespace {

constexpr int kHotKeys = 500;    // key population the skewed traces draw from
constexpr int kColdKeys = 400;   // sequential-sweep range (disjoint from hot)
constexpr std::int64_t kCapacity = 50;  // 10% of the hot population
constexpr int kTraceLen = 4096;

/// Zipf(s) next-key sampler over ranks [0, kHotKeys) by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(double s, std::uint64_t seed) : rng_(seed) {
    cdf_.reserve(kHotKeys);
    double total = 0.0;
    for (int k = 1; k <= kHotKeys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  int next() {
    const double u = rng_.uniform_double();
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  rt::Pcg32 rng_;
  std::vector<double> cdf_;
};

std::vector<int> zipf_trace(double s, std::uint64_t seed) {
  ZipfSampler zipf(s, seed);
  std::vector<int> trace(kTraceLen);
  for (int& key : trace) key = zipf.next();
  return trace;
}

std::vector<int> uniform_trace(std::uint64_t seed) {
  rt::Pcg32 rng(seed);
  std::vector<int> trace(kTraceLen);
  for (int& key : trace) {
    key = static_cast<int>(rng.next_below(kHotKeys));
  }
  return trace;
}

/// Bursts of skewed hot traffic interleaved with sequential cold sweeps:
/// 24 Zipf(1.1) references, then 40 consecutive keys of a cycling 400-key
/// scan (offset past the hot range, so scan keys never alias hot keys).
/// The sweeps carry no short-term reuse — exactly the traffic that flushes
/// a plain LRU while ARC's T1/T2 split keeps the hot set resident.
std::vector<int> scan_trace(std::uint64_t seed) {
  ZipfSampler zipf(1.1, seed);
  std::vector<int> trace;
  trace.reserve(kTraceLen);
  int sweep_pos = 0;
  while (static_cast<int>(trace.size()) < kTraceLen) {
    for (int i = 0; i < 24 && static_cast<int>(trace.size()) < kTraceLen;
         ++i) {
      trace.push_back(zipf.next());
    }
    for (int i = 0; i < 40 && static_cast<int>(trace.size()) < kTraceLen;
         ++i) {
      trace.push_back(kHotKeys + sweep_pos);
      sweep_pos = (sweep_pos + 1) % kColdKeys;
    }
  }
  return trace;
}

std::vector<int> make_trace(int trace_id) {
  switch (trace_id) {
    case 0:
      return zipf_trace(0.8, 71);
    case 1:
      return zipf_trace(1.1, 72);
    case 2:
      return uniform_trace(73);
    default:
      return scan_trace(74);
  }
}

/// One distinct input row per key, generated once per process. Row k is
/// deterministic in k, so its fingerprint — and therefore its cache key —
/// is stable across the whole run.
const std::vector<rt::Tensor>& key_rows() {
  static const std::vector<rt::Tensor> rows = [] {
    std::vector<rt::Tensor> out;
    out.reserve(kHotKeys + kColdKeys);
    for (int k = 0; k < kHotKeys + kColdKeys; ++k) {
      rt::Rng rng(1000 + static_cast<std::uint64_t>(k));
      out.push_back(rt::Tensor::uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f));
    }
    return out;
  }();
  return rows;
}

/// The deployment artifact (same as bench_serving's): 90%-sparse micro r18,
/// compiled once and shared across every cache bench.
std::shared_ptr<const rt::CompiledTicket> cache_bench_plan() {
  static const std::shared_ptr<const rt::CompiledTicket> plan = [] {
    rt::Rng rng(9);
    auto model = rt::make_micro_resnet18(10, rng);
    rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
    model->set_training(false);
    return std::make_shared<const rt::CompiledTicket>(
        rt::Engine::compile(*model));
  }();
  return plan;
}

/// policy_id 0 = cache off; 1 = lru; 2 = arc.
void run_cache_serving(benchmark::State& state, int trace_id, int policy_id) {
  const std::vector<int> trace = make_trace(trace_id);
  const std::vector<rt::Tensor>& rows = key_rows();

  rt::serving::ServerOptions opt;
  opt.max_batch = 16;
  opt.max_delay_ms = 0.0;
  opt.queue_capacity_rows = 1 << 16;
  if (policy_id > 0) {
    opt.cache.capacity_rows = kCapacity;
    static constexpr rt::serving::CachePolicy kPolicies[] = {
        rt::serving::CachePolicy::kLru, rt::serving::CachePolicy::kArc};
    opt.cache.policy = kPolicies[policy_id - 1];
  }
  rt::serving::Server server(cache_bench_plan(), opt);

  std::size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.predict(rt::Tensor(rows[static_cast<std::size_t>(
            trace[pos])])));
    pos = (pos + 1) % trace.size();
  }

  const rt::serving::CacheStats cs = server.cache_stats();
  if (cs.hit_rows + cs.miss_rows > 0) {
    state.counters["hit_rate"] =
        static_cast<double>(cs.hit_rows) /
        static_cast<double>(cs.hit_rows + cs.miss_rows);
  }
  const rt::serving::LatencySnapshot lat = server.stats().latency;
  if (lat.count > 0) {
    state.counters["p50_us"] = lat.quantile_us(0.50);
    state.counters["p99_us"] = lat.quantile_us(0.99);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CacheLookupHit(benchmark::State& state) {
  rt::serving::CacheOptions copt;
  copt.capacity_rows = kCapacity;
  rt::serving::PredictionCache cache(copt, 10);
  const rt::Tensor& row = key_rows()[0];
  const std::int64_t plane = row.numel();
  std::vector<float> logits(10, 0.5f);
  const std::uint64_t key = rt::serving::cache_key(
      rt::row_fingerprint(row.data(), static_cast<std::size_t>(plane)), 1);
  cache.insert(key, logits.data());
  std::vector<float> out(10);
  for (auto _ : state) {
    // The full hit path a served row pays: fingerprint + key mix + probe.
    const std::uint64_t k = rt::serving::cache_key(
        rt::row_fingerprint(row.data(), static_cast<std::size_t>(plane)), 1);
    benchmark::DoNotOptimize(cache.lookup(k, out.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheLookupMiss(benchmark::State& state) {
  rt::serving::CacheOptions copt;
  copt.capacity_rows = kCapacity;
  rt::serving::PredictionCache cache(copt, 10);
  const rt::Tensor& row = key_rows()[0];
  const std::int64_t plane = row.numel();
  std::vector<float> out(10);
  std::uint64_t tag = 0;
  for (auto _ : state) {
    // Same work as BM_CacheLookupHit (fingerprint + key mix + probe); a
    // fresh epoch tag per probe keeps every lookup a miss on an empty cache.
    const std::uint64_t k = rt::serving::cache_key(
        rt::row_fingerprint(row.data(), static_cast<std::size_t>(plane)),
        ++tag);
    benchmark::DoNotOptimize(cache.lookup(k, out.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupMiss);

/// Registers the 4 traces x 3 policies grid under readable names (the
/// BENCHMARK macro would only give numeric Args).
const int kRegisterCacheServing = [] {
  const char* traces[] = {"zipf08", "zipf11", "uniform", "scan"};
  const char* policies[] = {"off", "lru", "arc"};
  for (int t = 0; t < 4; ++t) {
    for (int p = 0; p < 3; ++p) {
      const std::string name =
          std::string("BM_CacheServing_") + traces[t] + "_" + policies[p];
      benchmark::RegisterBenchmark(
          name.c_str(),
          [t, p](benchmark::State& state) { run_cache_serving(state, t, p); })
          ->UseRealTime();
    }
  }
  return 0;
}();

}  // namespace
