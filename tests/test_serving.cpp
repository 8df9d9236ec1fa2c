// serving::Server — coalescing, sharding, admission and determinism tests.
//
// The serving front-end's core contract: however requests are coalesced into
// cross-request micro-batches, split across batches, or routed to shards,
// every response is BITWISE identical to a direct per-request
// Session::predict() on the same plan. The suite also pins admission-control
// backpressure, the work-conserving dispatch rule (a partial batch waits
// only behind a running one), future exception propagation,
// heterogeneous-shard routing, option validation, and a multi-client stress
// case (wired into the scripts/check.sh --tsan pass).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/synth.hpp"
#include "engine/engine.hpp"
#include "prune/omp.hpp"
#include "serving/serving.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

std::unique_ptr<ResNet> tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "ts";
  return std::make_unique<ResNet>(cfg, rng);
}

/// Briefly trained + 90%-pruned model, so BN folding and the CSR executor
/// are both non-trivial.
std::unique_ptr<ResNet> served_model(std::uint64_t seed) {
  auto model = tiny_model(seed);
  const Dataset train = generate_dataset(source_task_spec(), 48, seed ^ 0x11);
  TrainLoopConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  Rng rng(seed ^ 0x5EEDULL);
  train_classifier(*model, train, cfg, rng);
  OmpConfig prune_cfg;
  prune_cfg.sparsity = 0.9f;
  omp_prune(*model, prune_cfg);
  model->set_training(false);
  return model;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "flat index " << i;
  }
}

TEST(ServingOptions, ValidatedAtConstruction) {
  auto model = tiny_model(7);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));

  serving::ServerOptions bad_shards;
  bad_shards.shards = 0;
  EXPECT_THROW(serving::Server(plan, bad_shards), std::invalid_argument);

  serving::ServerOptions bad_batch;
  bad_batch.max_batch = 0;
  EXPECT_THROW(serving::Server(plan, bad_batch), std::invalid_argument);

  serving::ServerOptions bad_delay;
  bad_delay.max_delay_ms = -0.5;
  EXPECT_THROW(serving::Server(plan, bad_delay), std::invalid_argument);

  serving::ServerOptions bad_capacity;
  bad_capacity.queue_capacity_rows = 0;
  EXPECT_THROW(serving::Server(plan, bad_capacity), std::invalid_argument);

  // Heterogeneous fleets must agree on geometry and class count.
  CompileOptions wide;
  wide.height = 32;
  wide.width = 32;
  auto wide_plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model, wide));
  EXPECT_THROW(serving::Server({plan, wide_plan}, serving::ServerOptions{}),
               std::invalid_argument);

  // The Session layer rejects nonpositive batches the same way now.
  EXPECT_THROW(Session(plan, SessionOptions{.max_batch = 0}),
               std::invalid_argument);
}

TEST(ServingParity, CoalescedMatchesSerialBitwise) {
  auto model = served_model(101);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));
  Session reference(plan, /*max_batch=*/8);
  const Dataset probe = generate_dataset(source_task_spec(), 24, 103);

  serving::ServerOptions opt;
  opt.shards = 2;  // identical plans: routing cannot change bits
  opt.max_batch = 8;
  // Rows that arrive behind a running batch wait for company for up to
  // this long, far longer than the burst takes to submit, so a scheduling
  // stall cannot split the burst into one batch per request. Nothing waits
  // out the bound: the last batch finishing dispatches whatever is pending,
  // and the test completes in milliseconds.
  opt.max_delay_ms = 500.0;
  serving::Server server(plan, opt);

  // Burst of odd-sized requests submitted together: the coalescer packs
  // rows from different requests into shared micro-batches and splits
  // across batch boundaries.
  const std::vector<std::int64_t> sizes{1, 3, 2, 5, 4, 1, 6, 2};
  std::vector<Tensor> inputs;
  std::vector<std::future<Tensor>> futures;
  std::int64_t begin = 0;
  for (const std::int64_t n : sizes) {
    inputs.push_back(probe.images.slice_rows(begin, n));
    begin += n;
    futures.push_back(server.submit(Tensor(inputs.back())));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Tensor got = futures[i].get();
    expect_bitwise(got, reference.predict(inputs[i]));
  }

  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.completed_requests, sizes.size());
  EXPECT_EQ(st.batched_rows, 24u);
  // Coalescing happened: fewer micro-batches than requests.
  EXPECT_LT(st.batches, sizes.size());
  EXPECT_EQ(st.queued_rows, 0);
}

TEST(ServingParity, RequestLargerThanBatchIsSplitBitwise) {
  auto model = served_model(111);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));
  Session reference(plan, /*max_batch=*/64);
  const Dataset probe = generate_dataset(source_task_spec(), 23, 113);

  serving::ServerOptions opt;
  opt.max_batch = 5;  // 23 rows -> 5 micro-batches
  opt.max_delay_ms = 0.0;
  serving::Server server(plan, opt);

  const Tensor got = server.predict(probe.images);
  expect_bitwise(got, reference.predict(probe.images));
  EXPECT_GE(server.stats().batches, 5u);
}

TEST(ServingParity, HeterogeneousShardsRouteRoundRobin) {
  auto model = served_model(121);
  CompileOptions dense_opt;
  dense_opt.force_format = PackedFormat::kDense;
  CompileOptions csr_opt;
  csr_opt.force_format = PackedFormat::kCsr;
  auto dense_plan = std::make_shared<const CompiledTicket>(
      Engine::compile(*model, dense_opt));
  auto csr_plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model, csr_opt));
  auto auto_plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));

  serving::ServerOptions opt;
  opt.max_batch = 8;
  opt.max_delay_ms = 0.0;  // each request dispatches as exactly one batch
  serving::Server server({dense_plan, csr_plan, auto_plan}, opt);
  EXPECT_EQ(server.shards(), 3);

  Session dense_ref(dense_plan, 8);
  Session csr_ref(csr_plan, 8);
  Session auto_ref(auto_plan, 8);
  Session* refs[3] = {&dense_ref, &csr_ref, &auto_ref};

  // A single sequential client: request i lands on shard i % 3, so each
  // response must be bitwise the assigned format's output — which differ
  // from each other in float rounding, proving routing really alternates.
  const Dataset probe = generate_dataset(source_task_spec(), 18, 123);
  for (int i = 0; i < 6; ++i) {
    const Tensor x = probe.images.slice_rows(i * 3, 3);
    const Tensor got = server.predict(x);
    expect_bitwise(got, refs[i % 3]->predict(x));
  }
  EXPECT_EQ(server.stats().batches, 6u);
}

TEST(ServingAdmission, SaturatedQueueRejectsWithBackpressure) {
  auto model = served_model(131);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));
  Session reference(plan, /*max_batch=*/16);

  serving::ServerOptions opt;
  opt.max_batch = 64;
  opt.max_delay_ms = 1000.0;
  opt.queue_capacity_rows = 16;
  serving::Server server(plan, opt);
  const Dataset probe = generate_dataset(source_task_spec(), 17, 133);

  // No check below depends on how fast a batch runs. A request larger than
  // the whole bound is rejected whatever else is in flight.
  EXPECT_THROW(server.submit(Tensor(probe.images)).get(),
               serving::ServerOverloaded);

  // Exactly the bound is admitted, and a resolved future has released its
  // rows: the full bound is free again for the next request.
  const Tensor sixteen = probe.images.slice_rows(0, 16);
  expect_bitwise(server.predict(Tensor(sixteen)), reference.predict(sixteen));
  EXPECT_EQ(server.stats().queued_rows, 0);
  expect_bitwise(server.predict(Tensor(sixteen)), reference.predict(sixteen));
  EXPECT_EQ(server.stats().queued_rows, 0);

  // A burst of thirty 1-row requests: each one is either served or
  // rejected with ServerOverloaded, never lost. How many of each depends
  // on how many rows finished mid-burst.
  const Tensor row = probe.images.slice_rows(16, 1);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 30; ++i) futures.push_back(server.submit(Tensor(row)));
  int completed = 0;
  int rejected = 0;
  for (std::future<Tensor>& f : futures) {
    try {
      f.get();
      ++completed;
    } catch (const serving::ServerOverloaded&) {
      ++rejected;
    }
  }
  EXPECT_EQ(completed + rejected, 30);

  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted_requests, 33u);
  EXPECT_EQ(st.completed_requests, 2u + static_cast<std::uint64_t>(completed));
  EXPECT_EQ(st.rejected_requests, 1u + static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(st.queued_rows, 0);
  EXPECT_EQ(st.capacity_rows, 16);
}

TEST(ServingCoalescer, LoneRequestDispatchesWhenNoBatchIsInFlight) {
  auto model = served_model(191);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));
  Session reference(plan, /*max_batch=*/1);
  const Dataset probe = generate_dataset(source_task_spec(), 20, 193);

  serving::ServerOptions opt;
  opt.max_batch = 64;
  opt.max_delay_ms = 10000.0;  // a row held to its deadline waits 10 s
  serving::Server server(plan, opt);

  // A sequential client never has company and never finds a batch in
  // flight, so each 1-row request dispatches at once instead of waiting
  // out the coalescing bound.
  std::vector<Tensor> got;
  const auto begin = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < 20; ++i) {
    got.push_back(server.predict(probe.images.slice_rows(i, 1)));
  }
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(2));
  for (std::int64_t i = 0; i < 20; ++i) {
    const Tensor row = probe.images.slice_rows(i, 1);
    expect_bitwise(got[static_cast<std::size_t>(i)], reference.predict(row));
  }

  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.completed_requests, 20u);
  EXPECT_EQ(st.batches, 20u);
  EXPECT_EQ(st.idle_batches, 20u);
  EXPECT_EQ(st.queued_rows, 0);
}

TEST(ServingCoalescer, BurstBehindARunningBatchStillCoalesces) {
  auto model = served_model(195);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));
  Session reference(plan, /*max_batch=*/64);
  const Dataset probe = generate_dataset(source_task_spec(), 80, 197);

  serving::ServerOptions opt;
  opt.max_batch = 64;
  opt.max_delay_ms = 10000.0;
  serving::Server server(plan, opt);

  // A full 64-row request dispatches at once and runs while the 16 1-row
  // requests behind it are submitted; they wait for company behind it
  // instead of dispatching one by one. When it finishes, nothing is in
  // flight and they dispatch together, long before the 10 s bound.
  std::vector<Tensor> inputs{probe.images.slice_rows(0, 64)};
  for (std::int64_t i = 64; i < 80; ++i) {
    inputs.push_back(probe.images.slice_rows(i, 1));
  }
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::future<Tensor>> futures;
  for (const Tensor& x : inputs) futures.push_back(server.submit(Tensor(x)));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_bitwise(futures[i].get(), reference.predict(inputs[i]));
  }
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(5));

  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.completed_requests, inputs.size());
  EXPECT_EQ(st.batched_rows, 80u);
  EXPECT_LT(st.batches, inputs.size());
  EXPECT_EQ(st.queued_rows, 0);
}

TEST(ServingErrors, FutureCarriesInvalidInput) {
  auto model = tiny_model(141);
  serving::Server server(Engine::compile(*model), serving::ServerOptions{});

  Rng rng(142);
  const Tensor wrong_extent = Tensor::uniform({2, 3, 8, 8}, rng, 0.0f, 1.0f);
  EXPECT_THROW(server.submit(wrong_extent).get(), std::invalid_argument);

  const Tensor wrong_rank = Tensor::uniform({2, 3}, rng, 0.0f, 1.0f);
  EXPECT_THROW(server.predict(wrong_rank), std::invalid_argument);

  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.failed_requests, 2u);
  EXPECT_EQ(st.completed_requests, 0u);
}

TEST(ServingStress, ManyClientsStayBitwiseDeterministic) {
  auto model = served_model(151);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));
  Session reference(plan, /*max_batch=*/16);
  const Dataset probe = generate_dataset(source_task_spec(), 16, 153);
  const Tensor expected = reference.predict(probe.images);

  serving::ServerOptions opt;
  opt.shards = 2;
  opt.max_batch = 8;
  opt.max_delay_ms = 0.2;
  serving::Server server(plan, opt);

  constexpr int kClients = 4;
  constexpr int kRepeats = 3;
  std::vector<Tensor> results(kClients * kRepeats);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRepeats; ++r) {
        results[static_cast<std::size_t>(c * kRepeats + r)] =
            server.predict(probe.images);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (const Tensor& got : results) expect_bitwise(got, expected);
  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.completed_requests,
            static_cast<std::uint64_t>(kClients * kRepeats));
  EXPECT_EQ(st.rejected_requests, 0u);
  EXPECT_EQ(st.queued_rows, 0);
}

TEST(ServingLatency, BucketGeometryIsMonotoneAndCovering) {
  // Monotone: a larger latency never lands in a smaller bucket, and the
  // reported upper bound really bounds every nanosecond value the bucket
  // receives (the quantile over-estimate is at most one sub-bucket width).
  int prev = -1;
  for (const std::uint64_t ns :
       {0ull, 1ull, 3ull, 4ull, 5ull, 7ull, 8ull, 100ull, 1000ull, 4095ull,
        4096ull, 1ull << 20, 1ull << 40, ~0ull}) {
    const int bucket = serving::latency_bucket(ns);
    ASSERT_GE(bucket, prev) << "ns=" << ns;
    ASSERT_LT(bucket, serving::kLatencyBuckets);
    ASSERT_GE(serving::latency_bucket_upper_us(bucket) * 1000.0,
              static_cast<double>(ns) * (1.0 - 1e-9))
        << "ns=" << ns << " bucket=" << bucket;
    prev = bucket;
  }
  // Exact low buckets, first split octave, and the relative-resolution bound:
  // each bucket spans at most ~+25% of its lower edge.
  EXPECT_EQ(serving::latency_bucket(3), 3);
  EXPECT_EQ(serving::latency_bucket(4), 4);
  EXPECT_NE(serving::latency_bucket(4), serving::latency_bucket(5));
  // Octave [8, 16) is the first whose 4-way split makes neighbors share.
  EXPECT_EQ(serving::latency_bucket(8), serving::latency_bucket(9));
  EXPECT_NE(serving::latency_bucket(9), serving::latency_bucket(10));
}

TEST(ServingLatency, SnapshotQuantilesOrderAndMerge) {
  serving::LatencySnapshot snap;
  EXPECT_EQ(snap.quantile_us(0.5), 0.0);  // empty: no observations
  // 90 fast observations and 10 slow ones: p50 sits in the fast bucket,
  // p99 in the slow one, and quantiles are monotone in p.
  snap.buckets[static_cast<std::size_t>(serving::latency_bucket(1000))] = 90;
  snap.buckets[static_cast<std::size_t>(serving::latency_bucket(1u << 20))] =
      10;
  snap.count = 100;
  const double p50 = snap.quantile_us(0.5);
  const double p99 = snap.quantile_us(0.99);
  EXPECT_EQ(p50, serving::latency_bucket_upper_us(serving::latency_bucket(1000)));
  EXPECT_EQ(p99,
            serving::latency_bucket_upper_us(serving::latency_bucket(1u << 20)));
  EXPECT_LE(p50, p99);

  serving::LatencySnapshot other = snap;
  other.merge(snap);
  EXPECT_EQ(other.count, 200u);
  EXPECT_EQ(other.quantile_us(0.5), p50);
}

TEST(ServingLatency, ServerRecordsOneObservationPerCompletedRequest) {
  auto model = tiny_model(171);
  serving::ServerOptions opt;
  opt.max_delay_ms = 0.0;
  serving::Server server(Engine::compile(*model), opt);
  const Dataset probe = generate_dataset(source_task_spec(), 2, 173);
  for (int i = 0; i < 5; ++i) server.predict(probe.images);

  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.latency.count, st.completed_requests);
  EXPECT_GT(st.latency.quantile_us(0.5), 0.0);
  EXPECT_GE(st.latency.quantile_us(0.99), st.latency.quantile_us(0.5));

  // The per-version slice carries the same histogram: one version, so the
  // aggregate and the slice agree exactly.
  const std::vector<serving::VersionStats> per_version = server.version_stats();
  ASSERT_EQ(per_version.size(), 1u);
  EXPECT_EQ(per_version[0].version, "v0");
  EXPECT_EQ(per_version[0].latency.count, st.latency.count);
}

TEST(ServingRouting, CandidateDecisionIsPureAndProportional) {
  // Pure: same (seq, seed, fraction) -> same answer, always.
  for (const std::uint64_t seq : {0ull, 1ull, 17ull, 1000ull}) {
    EXPECT_EQ(serving::routes_to_candidate(seq, 42, 0.25),
              serving::routes_to_candidate(seq, 42, 0.25));
  }
  // Degenerate fractions are exact, not probabilistic.
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_FALSE(serving::routes_to_candidate(seq, 7, 0.0));
    EXPECT_TRUE(serving::routes_to_candidate(seq, 7, 1.0));
  }
  // Roughly proportional over a modest window, and seed-sensitive.
  int hits42 = 0, hits43 = 0;
  bool differs = false;
  for (std::uint64_t seq = 0; seq < 400; ++seq) {
    const bool a = serving::routes_to_candidate(seq, 42, 0.25);
    const bool b = serving::routes_to_candidate(seq, 43, 0.25);
    hits42 += a ? 1 : 0;
    hits43 += b ? 1 : 0;
    differs = differs || (a != b);
  }
  EXPECT_TRUE(differs);
  EXPECT_GT(hits42, 400 / 8);
  EXPECT_LT(hits42, 400 / 2);
  EXPECT_GT(hits43, 400 / 8);
  EXPECT_LT(hits43, 400 / 2);
}

TEST(ServingFleet, SwapAndCandidateValidateAgainstFrozenGeometry) {
  auto model = tiny_model(181);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model));

  serving::ServerOptions bad_version;
  bad_version.version = "";
  EXPECT_THROW(serving::Server(plan, bad_version), std::invalid_argument);

  serving::Server server(plan, serving::ServerOptions{});
  EXPECT_EQ(server.primary_version(), "v0");
  EXPECT_EQ(server.candidate_version(), "");
  EXPECT_THROW(server.promote_candidate(), std::logic_error);

  // Empty fleet, empty label, geometry mismatch: all rejected up front.
  EXPECT_THROW(server.swap_fleet({"v1", {}}), std::invalid_argument);
  EXPECT_THROW(server.swap_fleet({"", {plan}}), std::invalid_argument);
  CompileOptions wide;
  wide.height = 32;
  wide.width = 32;
  auto wide_plan =
      std::make_shared<const CompiledTicket>(Engine::compile(*model, wide));
  EXPECT_THROW(server.swap_fleet({"v1", {wide_plan}}), std::invalid_argument);
  EXPECT_THROW(server.set_candidate({"v1", {plan}}, /*fraction=*/1.5, 1),
               std::invalid_argument);

  // A valid swap + candidate + promotion sequence, no traffic involved.
  server.swap_fleet({"v1", {plan}});
  EXPECT_EQ(server.primary_version(), "v1");
  server.set_candidate({"v2", {plan, plan}}, 0.5, 9);
  EXPECT_EQ(server.candidate_version(), "v2");
  EXPECT_EQ(server.promote_candidate(), "v2");
  EXPECT_EQ(server.primary_version(), "v2");
  EXPECT_EQ(server.candidate_version(), "");
  EXPECT_EQ(server.shards(), 2);  // the candidate fleet kept its shard count

  server.clear_candidate();  // no candidate: a no-op, not an error
  const Dataset probe = generate_dataset(source_task_spec(), 2, 183);
  Session reference(plan, 2);
  expect_bitwise(server.predict(probe.images), reference.predict(probe.images));
}

TEST(ServingEval, ServerHelpersMatchSessionHelpers) {
  auto model = served_model(161);
  const Dataset probe = generate_dataset(source_task_spec(), 40, 163);

  Session session = make_eval_session(*model, probe, 16);
  serving::Server server = make_eval_server(*model, probe, 16, /*shards=*/2);

  const float session_acc = evaluate_accuracy(session, probe);
  const float server_acc = evaluate_accuracy(server, probe);
  EXPECT_FLOAT_EQ(session_acc, server_acc);

  const Tensor session_probs = predict_probabilities(session, probe);
  const Tensor server_probs = predict_probabilities(server, probe);
  expect_bitwise(server_probs, session_probs);

  // Datasets larger than the admission bound are served in blocking waves:
  // the helpers must keep the Session overloads' any-size contract instead
  // of surfacing ServerOverloaded.
  CompileOptions copt;
  copt.height = probe.images.dim(2);
  copt.width = probe.images.dim(3);
  serving::ServerOptions tight;
  tight.max_batch = 16;
  tight.max_delay_ms = 0.0;
  tight.queue_capacity_rows = 8;  // 4-row waves: 10 for the 40-row probe
  serving::Server tight_server(Engine::compile(*model, copt), tight);
  EXPECT_FLOAT_EQ(evaluate_accuracy(tight_server, probe), session_acc);
  expect_bitwise(predict_probabilities(tight_server, probe), session_probs);
}

}  // namespace
}  // namespace rt
