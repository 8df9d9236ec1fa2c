// tests/test_audit.cpp — RT_AUDIT runtime hooks (common/audit.hpp).
//
// These tests have teeth only in -DRT_AUDIT=ON builds (check.sh --lint runs
// them there); in normal builds every test skips. They pin the dynamic half
// of the RT_HOT contract: after per-thread warm-up, the annotated hot paths
// perform zero heap allocations — measured by the counting global allocator,
// not inferred from code reading. LockOrderGuard's rank discipline is
// exercised on its legal orderings (violations abort by design, which a unit
// test cannot observe without death-test machinery).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/audit.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "linalg/gemm.hpp"
#include "models/resnet.hpp"
#include "prune/omp.hpp"

namespace rt {
namespace {

#define RT_AUDIT_TEST_GUARD()                                       \
  do {                                                              \
    if (!audit::enabled()) {                                        \
      GTEST_SKIP() << "RT_AUDIT off: alloc counting is a no-op";    \
    }                                                               \
  } while (false)

TEST(AllocGuard, CountsHeapAllocations) {
  RT_AUDIT_TEST_GUARD();
  audit::AllocGuard guard("test");
  EXPECT_EQ(guard.allocations(), 0);
  auto* p = new int(7);
  EXPECT_EQ(guard.allocations(), 1);
  std::vector<double> v(1024);
  EXPECT_EQ(guard.allocations(), 2);
  delete p;  // deallocation is not an allocation
  EXPECT_EQ(guard.allocations(), 2);
}

TEST(AllocGuard, NestedGuardsCountIndependently) {
  RT_AUDIT_TEST_GUARD();
  audit::AllocGuard outer("outer");
  auto before = std::make_unique<int>(1);
  {
    audit::AllocGuard inner("inner");
    EXPECT_EQ(inner.allocations(), 0);
    auto scoped = std::make_unique<int>(2);
    EXPECT_EQ(inner.allocations(), 1);
  }
  EXPECT_GE(outer.allocations(), 2);  // sees both its own and inner's
}

TEST(LockOrderGuard, AscendingRanksAreLegal) {
  // Compiles and runs in all builds (the no-op version must also accept
  // this); under RT_AUDIT a violation would abort the process.
  audit::LockOrderGuard serving(audit::LockRank::kServingQueue);
  {
    audit::LockOrderGuard sched(audit::LockRank::kSchedInject);
    audit::LockOrderGuard group(audit::LockRank::kSchedGroup);
  }
  // Re-acquiring a higher rank after the nested scope unwound is legal.
  audit::LockOrderGuard park(audit::LockRank::kSchedPark);
}

TEST(RtHot, PackedGemmIsAllocationFree) {
  RT_AUDIT_TEST_GUARD();
  // Every transpose variant: all four run packed_core out of its fixed
  // thread_local pack buffers, with no per-call scan or transpose copy.
  // Serial, as Session runs its head: from a non-worker thread the
  // scheduler's inject queue may allocate, which is not gemm's cost.
  const std::int64_t m = 64, n = 96, k = 80;
  Rng rng(101);
  const Tensor a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform({k, n}, rng, -1.0f, 1.0f);
  Tensor c({m, n});
  const GemmOpts opts{.accumulate = false, .parallel = false};
  using Gemm = void (*)(std::int64_t, std::int64_t, std::int64_t,
                        const float*, const float*, float*, const GemmOpts&);
  const std::pair<const char*, Gemm> variants[] = {
      {"gemm_nn", gemm_nn}, {"gemm_nt", gemm_nt},
      {"gemm_tn", gemm_tn}, {"gemm_tt", gemm_tt}};
  for (const auto& [name, gemm] : variants) {
    gemm(m, n, k, a.data(), b.data(), c.data(), opts);  // warm-up
    audit::AllocGuard guard(name);
    gemm(m, n, k, a.data(), b.data(), c.data(), opts);
    EXPECT_EQ(guard.allocations(), 0) << name;
  }
}

TEST(RtHot, SessionRunRowsIsAllocationFreeAfterWarmup) {
  RT_AUDIT_TEST_GUARD();
  Rng rng(202);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "audit";
  ResNet model(cfg, rng);
  model.set_training(false);
  // A 70%-channel-pruned model too: its compact layers run the packed
  // kernel over their kept rows and expand them in place. And a 90%-pruned
  // one with every layer forced to CSR, whose convs run panels expanded
  // from the CSR values wherever conv_prefers_taps says taps lose.
  ResNet chan_model(cfg, rng);
  omp_prune(chan_model,
            OmpConfig{0.7f, Granularity::kChannel, /*include_head=*/false});
  chan_model.set_training(false);
  ResNet csr_model(cfg, rng);
  omp_prune(csr_model,
            OmpConfig{0.9f, Granularity::kElement, /*include_head=*/false});
  csr_model.set_training(false);
  const Tensor x = Tensor::uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);

  for (const char* variant : {"dense", "channel", "CSR panels"}) {
    SCOPED_TRACE(variant);
    const bool chan = std::strcmp(variant, "channel") == 0;
    const bool csr = std::strcmp(variant, "CSR panels") == 0;
    CompileOptions options;
    options.height = 8;
    options.width = 8;
    if (csr) options.force_format = PackedFormat::kCsr;
    const CompiledTicket plan = Engine::compile(
        chan ? chan_model : (csr ? csr_model : model), options);
    if (chan) {
      int compact = 0;
      for (const LayerPlan& l : plan.layers()) {
        if (l.format == PackedFormat::kChannelCompact) ++compact;
      }
      EXPECT_GT(compact, 0);
    }
    if (csr) {
      int panels = 0;
      for (const LayerPlan& l : plan.layers()) {
        if (l.name != "audit.head" && l.prepacked_bytes > 0) ++panels;
      }
      EXPECT_GT(panels, 0);
    }
    Session session(plan, /*max_batch=*/4);

    Tensor logits({4, 10});
    // Warm-up: grows the thread's DecodeTable to this geometry and touches
    // the pooled workspace, whose conv staging was fitted at construction;
    // the steady state must then be allocation-free.
    session.run_rows(x.data(), 4, logits.data());
    audit::AllocGuard guard("Session::run_rows");
    session.run_rows(x.data(), 4, logits.data());
    EXPECT_EQ(guard.allocations(), 0)
        << "run_rows steady state must recycle the workspace pool, whose "
           "conv staging is fitted to every layer";
    // The output still has to be real: the audit build must not have
    // traded correctness for allocation-freedom.
    Tensor again({4, 10});
    session.run_rows(x.data(), 4, again.data());
    EXPECT_EQ(logits.linf_distance(again), 0.0f)
        << "repeat runs must be bitwise deterministic";
  }
}

TEST(RtHot, Int8RunRowsIsAllocationFreeAfterWarmup) {
  RT_AUDIT_TEST_GUARD();
  Rng rng(303);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "audit8";
  ResNet model(cfg, rng);
  model.set_training(false);
  const Tensor x = Tensor::uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);

  // The dense model on panels; then the same model 90%-pruned with every
  // layer forced to CSR, where compile splits its convs between the integer
  // tap table and panels (conv_prefers_taps);
  // then a 70%-channel-pruned model, whose compact layers run the kernel
  // over their kept rows and scatter in place. Every variant quantizes some
  // convs' inputs into the Workspace's channel-quad planes.
  ResNet chan_model(cfg, rng);
  omp_prune(chan_model,
            OmpConfig{0.7f, Granularity::kChannel, /*include_head=*/false});
  chan_model.set_training(false);
  for (const char* variant : {"dense", "forced CSR", "channel"}) {
    SCOPED_TRACE(variant);
    const bool csr = std::strcmp(variant, "forced CSR") == 0;
    const bool chan = std::strcmp(variant, "channel") == 0;
    if (csr) omp_prune(model, OmpConfig{0.9f, Granularity::kElement, false});
    CompileOptions options;
    options.height = 8;
    options.width = 8;
    options.int8_weights = true;  // int8-native execution (the default path)
    if (csr) options.force_format = PackedFormat::kCsr;
    const CompiledTicket plan =
        Engine::compile(chan ? chan_model : model, options);
    ASSERT_TRUE(plan.int8_native());
    EXPECT_GT(plan.s8_quad_bytes(), 0);
    if (csr) {
      int taps = 0, panels = 0;
      for (const LayerPlan& l : plan.layers()) {
        if (l.name == "audit8.head") continue;
        ++(l.prepacked_bytes == 0 ? taps : panels);
      }
      EXPECT_GT(taps, 0);
      EXPECT_GT(panels, 0);
    }
    if (chan) {
      int compact = 0;
      for (const LayerPlan& l : plan.layers()) {
        if (l.format == PackedFormat::kChannelCompact) ++compact;
      }
      EXPECT_GT(compact, 0);
    }
    Session session(plan, /*max_batch=*/4);

    Tensor logits({4, 10});
    // Warm-up: first touch of the quantized scratch (the qin/acc workspace
    // slabs) and the Session's workspace pool.
    session.run_rows(x.data(), 4, logits.data());
    audit::AllocGuard guard("Session::run_rows int8");
    session.run_rows(x.data(), 4, logits.data());
    EXPECT_EQ(guard.allocations(), 0)
        << "int8 run_rows steady state must run out of the arena workspace "
           "(no per-call quantize/acc buffers)";
    Tensor again({4, 10});
    session.run_rows(x.data(), 4, again.data());
    EXPECT_EQ(logits.linf_distance(again), 0.0f)
        << "int8 repeat runs must be bitwise deterministic";
  }
}

}  // namespace
}  // namespace rt
