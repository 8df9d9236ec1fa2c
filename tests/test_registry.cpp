// rt::registry — catalog, compile-cache, hot-swap, and A/B rollout tests.
//
// The acceptance contracts pinned here:
//   - hot swap under load: clients hammering a served model while the
//     registry alternates deploys see ZERO failed futures, and every
//     response is bitwise identical to Session::predict() on one of the two
//     deployed plans; after the drain the swapped-out CompiledTicket is
//     actually destroyed (the compile cache holds weak references).
//   - A/B routing is deterministic: with a fixed seed, the candidate-owned
//     request subset is exactly the one routes_to_candidate() recomputes,
//     and per-version stats reconcile row-for-row.
//   - CheckpointStore::load_or_store single-flights concurrent producers.
// The suite runs under the scripts/check.sh sanitizer passes (TSan/ASan/
// UBSan), so thread and request counts stay modest for the 1-CPU container.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/scheduler.hpp"
#include "core/checkpoint_store.hpp"
#include "data/synth.hpp"
#include "engine/engine.hpp"
#include "registry/registry.hpp"
#include "serving/serving.hpp"

namespace rt {
namespace {

std::unique_ptr<ResNet> tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "tr";
  return std::make_unique<ResNet>(cfg, rng);
}

/// Registry backed by memory only: catalog/compile/serving behavior is
/// independent of the disk cache, which has its own tests below.
registry::RegistryOptions memory_only() {
  registry::RegistryOptions opt;
  opt.cache_root = "";
  return opt;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "flat index " << i;
  }
}

TEST(RegistryCatalog, PublishResolveAndAliases) {
  registry::Registry reg(memory_only());
  auto m1 = tiny_model(11);
  auto m2 = tiny_model(12);

  EXPECT_EQ(reg.publish("cifar", *m1), 1);
  EXPECT_EQ(reg.publish("cifar", *m2), 2);
  EXPECT_EQ(reg.latest("cifar"), 2);
  EXPECT_EQ(reg.stable("cifar"), 0);

  // Bare name: @stable when set, @latest otherwise.
  EXPECT_EQ(reg.resolve("cifar"), 2);
  EXPECT_EQ(reg.resolve("cifar@1"), 1);
  EXPECT_EQ(reg.resolve("cifar@latest"), 2);
  reg.set_stable("cifar", 1);
  EXPECT_EQ(reg.resolve("cifar"), 1);
  EXPECT_EQ(reg.resolve("cifar@stable"), 1);

  const std::vector<registry::VersionInfo> versions = reg.versions("cifar");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].version, 1);
  EXPECT_EQ(versions[1].version, 2);
  // Different seeds -> different weights -> different content addresses.
  EXPECT_NE(versions[0].fingerprint, versions[1].fingerprint);
  EXPECT_NE(versions[0].checkpoint_key, versions[1].checkpoint_key);

  const std::vector<std::string> models = reg.models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0], "cifar");
}

TEST(RegistryCatalog, RejectsBadReferencesAndStates) {
  registry::Registry reg(memory_only());
  auto model = tiny_model(21);
  reg.publish("m", *model);

  EXPECT_THROW(reg.publish("bad@name", *model), std::invalid_argument);
  EXPECT_THROW(registry::parse_model_ref(""), std::invalid_argument);
  EXPECT_THROW(registry::parse_model_ref("m@"), std::invalid_argument);
  EXPECT_THROW(registry::parse_model_ref("m@v2"), std::invalid_argument);
  EXPECT_THROW(reg.resolve("ghost"), std::out_of_range);
  EXPECT_THROW(reg.resolve("m@7"), std::out_of_range);
  EXPECT_THROW(reg.resolve("m@stable"), std::logic_error);  // none set yet
  EXPECT_THROW(reg.set_stable("m", 9), std::out_of_range);

  // Rollout control needs a server first.
  EXPECT_THROW(reg.deploy("m@1"), std::logic_error);
  EXPECT_THROW(reg.start_ab("m", "m@1", 0.5, 1), std::logic_error);
  EXPECT_THROW(reg.promote("m"), std::logic_error);
  EXPECT_EQ(reg.find_server("m"), nullptr);
  EXPECT_EQ(reg.live_version("m"), 0);
}

TEST(RegistryCompileCache, SharesPlansAndDropsThemWhenUnreferenced) {
  // plan_cache_capacity = 0 selects pure weak memoization — this test pins
  // that contract (sharing while referenced, freed when dropped); bounded
  // retention has its own tests below.
  registry::RegistryOptions opt = memory_only();
  opt.plan_cache_capacity = 0;
  registry::Registry reg(opt);
  auto model = tiny_model(31);
  reg.publish("m", *model);

  // Equal (version, options) share one compiled plan instance.
  std::shared_ptr<const CompiledTicket> a = reg.compiled("m@1");
  std::shared_ptr<const CompiledTicket> b = reg.compiled("m@latest");
  EXPECT_EQ(a.get(), b.get());

  // A compile-affecting option lands on a distinct cache line.
  CompileOptions csr;
  csr.force_format = PackedFormat::kCsr;
  std::shared_ptr<const CompiledTicket> c = reg.compiled("m@1", csr);
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(registry::compile_options_fingerprint(CompileOptions{}),
            registry::compile_options_fingerprint(csr));

  // The cache is weak: dropping every strong reference frees the plan, and
  // the next demand rebuilds a fresh one instead of resurrecting a corpse.
  std::weak_ptr<const CompiledTicket> watch = a;
  a.reset();
  b.reset();
  c.reset();
  EXPECT_TRUE(watch.expired());
  std::shared_ptr<const CompiledTicket> rebuilt = reg.compiled("m@1");
  ASSERT_NE(rebuilt, nullptr);
}

TEST(RegistryCompileCache, BoundedRetentionSurvivesRefDropAndEvictsLru) {
  // plan_cache_capacity = 2 (LRU): the registry pins the two most recently
  // demanded tickets, so a swap-out/swap-in cycle — every strong reference
  // dropped in between — re-serves the SAME plan instance instead of
  // recompiling. The third version evicts the least-recently-used line.
  registry::RegistryOptions opt = memory_only();
  opt.plan_cache_capacity = 2;
  registry::Registry reg(opt);
  auto m1 = tiny_model(81);
  auto m2 = tiny_model(82);
  auto m3 = tiny_model(83);
  reg.publish("m", *m1);
  reg.publish("m", *m2);
  reg.publish("m", *m3);

  std::shared_ptr<const CompiledTicket> p1 = reg.compiled("m@1");
  std::shared_ptr<const CompiledTicket> p2 = reg.compiled("m@2");
  const CompiledTicket* raw1 = p1.get();
  std::weak_ptr<const CompiledTicket> watch1 = p1;
  p1.reset();
  p2.reset();

  // Retention holds both plans alive with zero outside references...
  EXPECT_FALSE(watch1.expired());
  // ...so re-demanding v1 is pointer-identical: the hot-swap-back path
  // skips recompilation entirely.
  std::shared_ptr<const CompiledTicket> again = reg.compiled("m@1");
  EXPECT_EQ(again.get(), raw1);
  again.reset();

  registry::PlanCache::Stats st = reg.plan_cache_stats();
  EXPECT_EQ(st.capacity, 2);
  EXPECT_EQ(st.retained, 2);
  EXPECT_EQ(st.hits, 1u);  // the m@1 re-demand; the first two were misses
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.evictions, 0u);

  // Re-demand v2 (refreshes it to MRU, making v1 the LRU line), then demand
  // a third distinct line: capacity 2 forces the v1 ticket out, and with no
  // strong holders left it is freed outright.
  std::weak_ptr<const CompiledTicket> watch2 = reg.compiled("m@2");
  EXPECT_FALSE(watch2.expired());  // retention hit: still pinned
  std::weak_ptr<const CompiledTicket> watch3 = reg.compiled("m@3");
  st = reg.plan_cache_stats();
  EXPECT_EQ(st.retained, 2);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_TRUE(watch1.expired()) << "v1 should be the evicted LRU line";
  EXPECT_FALSE(watch2.expired());
  EXPECT_FALSE(watch3.expired());
}

TEST(RegistryServe, ServerMatchesDirectSessionBitwise) {
  registry::Registry reg(memory_only());
  auto model = tiny_model(41);
  reg.publish("m", *model);

  serving::ServerOptions opt;
  opt.max_batch = 8;
  opt.max_delay_ms = 0.0;
  serving::Server& server = reg.serve("m@1", opt);
  EXPECT_EQ(&server, reg.find_server("m"));
  EXPECT_EQ(&server, &reg.serve("m@1", opt));  // second call: same endpoint
  EXPECT_EQ(reg.live_version("m"), 1);
  EXPECT_EQ(server.primary_version(), "m@1");

  Session reference(reg.compiled("m@1"), /*max_batch=*/8);
  const Dataset probe = generate_dataset(source_task_spec(), 6, 43);
  expect_bitwise(server.predict(probe.images), reference.predict(probe.images));
}

// Acceptance: N client threads against K registry hot swaps. Zero failed
// futures, zero rejects, every response bitwise one of the two deployed
// versions' Session outputs, and the swapped-out plan's memory is released
// once the drain completes.
TEST(RegistryHotSwap, ClientsSurviveSwapsBitwiseAndOldPlanIsFreed) {
  // Pure weak memoization (no retention): the "old plan is freed at drain"
  // half of the contract below only holds when nothing pins swapped-out
  // tickets.
  registry::RegistryOptions opt0 = memory_only();
  opt0.plan_cache_capacity = 0;
  registry::Registry reg(opt0);
  auto m1 = tiny_model(51);
  auto m2 = tiny_model(52);
  reg.publish("m", *m1);
  reg.publish("m", *m2);

  const Dataset probe = generate_dataset(source_task_spec(), 4, 53);
  Tensor expected1, expected2;
  std::weak_ptr<const CompiledTicket> watch2;
  {
    // Reference outputs come from the SAME shared plan instances the server
    // fleets use (compile-cache hits), so bitwise equality is exact.
    std::shared_ptr<const CompiledTicket> plan2 = reg.compiled("m@2");
    watch2 = plan2;
    Session ref1(reg.compiled("m@1"), 4);
    Session ref2(std::move(plan2), 4);
    expected1 = ref1.predict(probe.images);
    expected2 = ref2.predict(probe.images);
  }
  // The two versions must actually disagree, or "served by exactly one
  // epoch" would be vacuous.
  ASSERT_NE(expected1.linf_distance(expected2), 0.0f);

  serving::ServerOptions opt;
  opt.shards = 2;
  opt.max_batch = 8;
  opt.max_delay_ms = 0.2;
  serving::Server& server = reg.serve("m@1", opt);

  constexpr int kClients = 3;
  constexpr int kRepeats = 16;
  std::vector<Tensor> results(kClients * kRepeats);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRepeats; ++r) {
        // predict() throwing here is exactly the "failed future during a hot
        // swap" bug this test exists to rule out — it fails via std::terminate.
        results[static_cast<std::size_t>(c * kRepeats + r)] =
            server.predict(probe.images);
      }
    });
  }
  // The swapper: K alternating hot swaps while the clients run, ending on
  // version 1 so the m@2 fleet must fully retire.
  for (int swap = 0; swap < 6; ++swap) {
    reg.deploy(swap % 2 == 0 ? "m@2" : "m@1");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(reg.live_version("m"), 1);
  EXPECT_EQ(server.primary_version(), "m@1");

  // Every response is bitwise the output of exactly one deployed epoch —
  // no torn batches, no stale-plan mixing.
  int v1_hits = 0;
  for (const Tensor& got : results) {
    if (got.linf_distance(expected1) == 0.0f) {
      ++v1_hits;
    } else {
      expect_bitwise(got, expected2);
    }
  }
  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.completed_requests,
            static_cast<std::uint64_t>(kClients * kRepeats));
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_EQ(st.rejected_requests, 0u);
  EXPECT_GT(v1_hits, 0);  // the fleet it was born with served traffic

  // Drain-retirement: with the fleet back on m@1 and every in-flight batch
  // retired, nothing holds the m@2 plan — the weak compile cache must have
  // let it die (this is the "old CompiledTicket memory is released" half of
  // the hot-swap contract).
  server.drain();
  EXPECT_TRUE(watch2.expired());
}

// Acceptance: a fraction-f A/B split with a fixed seed routes a
// deterministic, client-recomputable subset to the candidate, per-version
// stats reconcile exactly, and promote() flips primary + @stable.
TEST(RegistryAb, DeterministicSplitReconcilesAndPromotes) {
  registry::Registry reg(memory_only());
  auto m1 = tiny_model(61);
  auto m2 = tiny_model(62);
  reg.publish("m", *m1);
  reg.publish("m", *m2);

  const Dataset probe = generate_dataset(source_task_spec(), 2, 63);
  Session ref1(reg.compiled("m@1"), 2);
  Session ref2(reg.compiled("m@2"), 2);
  const Tensor expected1 = ref1.predict(probe.images);
  const Tensor expected2 = ref2.predict(probe.images);
  ASSERT_NE(expected1.linf_distance(expected2), 0.0f);

  serving::ServerOptions opt;
  opt.max_batch = 8;
  opt.max_delay_ms = 0.0;
  serving::Server& server = reg.serve("m@1", opt);

  constexpr double kFraction = 0.25;
  constexpr std::uint64_t kSeed = 42;
  reg.start_ab("m", "m@2", kFraction, kSeed);
  EXPECT_EQ(reg.candidate_version("m"), 2);
  EXPECT_EQ(server.candidate_version(), "m@2");

  // One sequential client: request i gets sequence number i, so the routing
  // decision is recomputable client-side from (i, seed, fraction) alone.
  constexpr int kRequests = 32;
  int to_candidate = 0;
  for (int i = 0; i < kRequests; ++i) {
    const bool candidate = serving::routes_to_candidate(
        static_cast<std::uint64_t>(i), kSeed, kFraction);
    const Tensor got = server.predict(probe.images);
    expect_bitwise(got, candidate ? expected2 : expected1);
    to_candidate += candidate ? 1 : 0;
  }
  ASSERT_GT(to_candidate, 0);
  ASSERT_LT(to_candidate, kRequests);

  // Per-version attribution reconciles row-for-row with the routing rule.
  const std::vector<serving::VersionStats> per_version = server.version_stats();
  ASSERT_EQ(per_version.size(), 2u);
  const serving::VersionStats& v1 = per_version[0];
  const serving::VersionStats& v2 = per_version[1];
  EXPECT_EQ(v1.version, "m@1");
  EXPECT_EQ(v2.version, "m@2");
  EXPECT_EQ(v2.requests, static_cast<std::uint64_t>(to_candidate));
  EXPECT_EQ(v1.requests, static_cast<std::uint64_t>(kRequests - to_candidate));
  EXPECT_EQ(v2.rows, static_cast<std::uint64_t>(2 * to_candidate));
  EXPECT_EQ(v1.completed_requests + v2.completed_requests,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(v1.failed_requests + v2.failed_requests, 0u);
  EXPECT_EQ(v1.latency.count, v1.completed_requests);
  EXPECT_EQ(v2.latency.count, v2.completed_requests);

  // Promote: candidate becomes primary, @stable moves, the A/B test ends,
  // and all subsequent traffic is served by version 2.
  EXPECT_EQ(reg.promote("m"), 2);
  EXPECT_EQ(reg.live_version("m"), 2);
  EXPECT_EQ(reg.candidate_version("m"), 0);
  EXPECT_EQ(reg.stable("m"), 2);
  EXPECT_EQ(reg.resolve("m@stable"), 2);
  EXPECT_EQ(server.primary_version(), "m@2");
  EXPECT_EQ(server.candidate_version(), "");
  expect_bitwise(server.predict(probe.images), expected2);
}

TEST(RegistryAb, ValidatesCandidateAndStopRestoresPrimaryOnly) {
  registry::Registry reg(memory_only());
  auto m1 = tiny_model(71);
  auto other = tiny_model(72);
  reg.publish("m", *m1);
  reg.publish("m", *m1);
  reg.publish("other", *other);
  reg.serve("m@1");

  // The candidate must be a version of the same model.
  EXPECT_THROW(reg.start_ab("m", "other@1", 0.5, 7), std::invalid_argument);
  EXPECT_THROW(reg.start_ab("m", "m@2", 1.5, 7), std::invalid_argument);
  EXPECT_THROW(reg.start_ab("m", "m@2", -0.1, 7), std::invalid_argument);

  reg.start_ab("m", "m@2", 0.5, 7);
  EXPECT_EQ(reg.candidate_version("m"), 2);
  reg.stop_ab("m");
  EXPECT_EQ(reg.candidate_version("m"), 0);
  EXPECT_EQ(reg.live_version("m"), 1);
  EXPECT_THROW(reg.promote("m"), std::logic_error);  // nothing to promote
}

TEST(RegistryStore, PublishPersistsThroughCheckpointStore) {
  const std::string root = "/tmp/rticket_test_registry_rt";
  std::filesystem::remove_all(root);
  {
    registry::RegistryOptions opt;
    opt.cache_root = root;
    registry::Registry reg(opt);
    auto model = tiny_model(81);
    reg.publish("m", *model);
    EXPECT_TRUE(reg.store().enabled());
  }
  bool found_checkpoint = false;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.path().extension() == ".rtk") found_checkpoint = true;
  }
  EXPECT_TRUE(found_checkpoint);
  std::filesystem::remove_all(root);
}

TEST(CheckpointStoreFlight, ConcurrentLoadOrStoreComputesOnce) {
  const std::string root = "/tmp/rticket_test_flight_rt";
  std::filesystem::remove_all(root);
  CheckpointStore store(root);
  CheckpointKey key;
  key.add("kind", "flight-unit").add("seed", std::int64_t{9});

  // The canonical bytes every racer must agree with, and a counter proving
  // the producer ran exactly once across all of them.
  const auto make_state = [] {
    Rng rng(99);
    StateDict state;
    state.emplace("w", Tensor::randn({4, 3}, rng));
    return state;
  };
  const StateDict canonical = make_state();
  std::atomic<int> computes{0};

  constexpr int kRacers = 4;
  std::atomic<int> mismatches{0};
  auto racer = [&] {
    const StateDict got = store.load_or_store(key, [&] {
      computes.fetch_add(1, std::memory_order_relaxed);
      // Widen the race window so laggards really do hit the in-flight wait
      // path rather than the fast double-checked load.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return make_state();
    });
    const bool consistent =
        got.size() == 1 &&
        got.at("w").linf_distance(canonical.at("w")) == 0.0f;
    if (!consistent) mismatches.fetch_add(1, std::memory_order_relaxed);
  };
  // Spawned through the scheduler on purpose: this is the same TaskGroup
  // machinery a training run races the store from. spawn() references the
  // closure, so one lvalue serves all racers.
  TaskGroup group;
  for (int i = 0; i < kRacers; ++i) group.spawn(racer);
  group.wait();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(mismatches.load(), 0);
  // Warm path afterwards: served from disk, no recompute.
  const StateDict warm = store.load_or_store(key, [&] {
    computes.fetch_add(1, std::memory_order_relaxed);
    return make_state();
  });
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(warm.at("w").linf_distance(canonical.at("w")), 0.0f);

  // Disabled store: no cache to coordinate through, every call produces.
  CheckpointStore disabled{std::string()};
  (void)disabled.load_or_store(key, [&] {
    computes.fetch_add(1, std::memory_order_relaxed);
    return make_state();
  });
  EXPECT_EQ(computes.load(), 2);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace rt
