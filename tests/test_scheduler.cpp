// Work-stealing scheduler tests: nested parallel_for correctness under
// contention, TaskGroup exception propagation, bitwise determinism of
// fixed-tree reductions and of the tile-parallel conv kernels under
// arbitrary stealing, training bits that do not depend on the lane count,
// and a multi-session engine stress test over one shared scheduler.
//
// Every test constructs its own Scheduler so thread counts are explicit and
// independent of RT_THREADS; oversubscription relative to the host's cores
// is intentional — preemption shuffles the steal order, which is exactly the
// nondeterminism the determinism contract must survive.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"
#include "common/scheduler.hpp"
#include "data/synth.hpp"
#include "engine/engine.hpp"
#include "linalg/conv.hpp"
#include "linalg/gemm.hpp"
#include "models/resnet.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "prune/baselines.hpp"

namespace rt {
namespace {

TEST(FunctionRef, InvokesReferencedCallable) {
  int calls = 0;
  auto fn = [&](std::int64_t b, std::int64_t e) {
    calls += static_cast<int>(e - b);
  };
  FunctionRef<void(std::int64_t, std::int64_t)> ref = fn;
  ASSERT_TRUE(static_cast<bool>(ref));
  ref(3, 7);
  EXPECT_EQ(calls, 4);
  EXPECT_FALSE(
      static_cast<bool>(FunctionRef<void(std::int64_t, std::int64_t)>()));
}

TEST(Scheduler, CoversFullRangeOnceAtEveryGrain) {
  Scheduler sched(4);
  for (const std::int64_t grain : {0, 1, 7, 100, 5000}) {
    std::vector<std::atomic<int>> hits(3001);
    sched.parallel_for(
        3001,
        [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) {
            hits[static_cast<std::size_t>(i)]++;
          }
        },
        grain);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(Scheduler, DeeplyNestedParallelForUnderContention) {
  // Three levels of nesting across repeated rounds: every (outer, mid,
  // inner) cell must fire exactly once per round even while workers steal
  // subranges from each other. The old flat pool ran the inner levels
  // inline-serial; the scheduler actually decomposes them, so this also
  // exercises task-group completion counting under real interleaving.
  Scheduler sched(4);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<int>> hits(8 * 8 * 8);
    sched.parallel_for(8, [&](std::int64_t ob, std::int64_t oe) {
      for (std::int64_t o = ob; o < oe; ++o) {
        sched.parallel_for(8, [&, o](std::int64_t mb, std::int64_t me) {
          for (std::int64_t m = mb; m < me; ++m) {
            sched.parallel_for(8, [&, o, m](std::int64_t ib, std::int64_t ie) {
              for (std::int64_t i = ib; i < ie; ++i) {
                hits[static_cast<std::size_t>((o * 8 + m) * 8 + i)]++;
              }
            });
          }
        });
      }
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(Scheduler, ManyExternalThreadsShareOneScheduler) {
  // N external threads each run fork/join regions against the same
  // scheduler concurrently — the multi-session serving shape. Each region
  // must see only its own completion.
  Scheduler sched(3);
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<std::int64_t> local{0};
        sched.parallel_for(97, [&](std::int64_t b, std::int64_t e) {
          local += e - b;
        });
        ASSERT_EQ(local.load(), 97);
        total += local.load();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), static_cast<std::int64_t>(kThreads) * kRounds * 97);
}

TEST(TaskGroup, SpawnedClosuresAllRunAndWaitBlocks) {
  Scheduler sched(4);
  std::atomic<int> ran{0};
  TaskGroup group(sched);
  auto task = [&] { ran++; };
  for (int i = 0; i < 64; ++i) group.spawn(task);
  group.wait();
  EXPECT_EQ(ran.load(), 64);
  // Reusable after wait().
  group.spawn(task);
  group.wait();
  EXPECT_EQ(ran.load(), 65);
}

TEST(TaskGroup, ServingPriorityOvertakesQueuedBulk) {
  // A 1-lane scheduler has no workers: queued tasks execute only when a
  // waiter helps, which makes the drain order observable and single-
  // threaded. Bulk spawns from this (external) thread land in the injection
  // queue, serving spawns in the urgent queue; the first wait() must drain
  // the urgent queue before any bulk task even though the bulk tasks were
  // submitted first.
  Scheduler sched(1);
  std::vector<int> order;
  TaskGroup bulk(sched);
  TaskGroup serving(sched, TaskPriority::kServing);
  auto bulk_task = [&] { order.push_back(0); };
  auto serving_task = [&] { order.push_back(1); };
  bulk.spawn(bulk_task);
  bulk.spawn(bulk_task);
  serving.spawn(serving_task);
  serving.spawn(serving_task);
  bulk.wait();  // helps: executes everything queued, urgent lane first
  serving.wait();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 0);
  EXPECT_EQ(order[3], 0);
}

TEST(TaskGroup, PropagatesFirstExceptionAndCancelsRest) {
  Scheduler sched(4);
  TaskGroup group(sched);
  std::atomic<int> ran{0};
  auto ok = [&] { ran++; };
  auto boom = [&]() -> void { throw std::runtime_error("task failed"); };
  group.spawn(ok);
  group.spawn(boom);
  for (int i = 0; i < 16; ++i) group.spawn(ok);
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The group is reusable after the failure was consumed.
  group.spawn(ok);
  group.wait();
  EXPECT_GE(ran.load(), 1);
}

TEST(Scheduler, ParallelForPropagatesLeafException) {
  Scheduler sched(4);
  EXPECT_THROW(
      sched.parallel_for(1000,
                         [&](std::int64_t b, std::int64_t) {
                           if (b >= 500) throw std::invalid_argument("leaf");
                         },
                         /*grain=*/10),
      std::invalid_argument);
  // The caller runs the lowest leaves inline; a throw there must also be
  // held until every stolen subtask drained (they point into the caller's
  // frame), then rethrown.
  EXPECT_THROW(
      sched.parallel_for(1000,
                         [&](std::int64_t b, std::int64_t) {
                           if (b < 10) throw std::invalid_argument("root");
                         },
                         /*grain=*/10),
      std::invalid_argument);
  // The scheduler stays usable after a failed region.
  std::atomic<std::int64_t> sum{0};
  sched.parallel_for(100, [&](std::int64_t b, std::int64_t e) {
    sum += e - b;
  });
  EXPECT_EQ(sum.load(), 100);
}

TEST(Scheduler, FixedTreeReductionIsBitwiseStableUnderStealing) {
  // The Conv2d::backward reduction pattern: private per-slot partials over
  // a fixed slot partition, folded by a pairwise tree. Slot boundaries and
  // tree shape depend only on (slots, n), so the float bits must be
  // identical run to run no matter how leaves are stolen — with inputs
  // spanning ~12 orders of magnitude so any reassociation would show.
  Scheduler sched(4);
  constexpr std::int64_t kN = 40000;
  std::vector<float> values(kN);
  Rng rng(1234);
  for (auto& v : values) {
    v = rng.normal() * std::pow(10.0f, rng.uniform(-6.0f, 6.0f));
  }
  const std::int64_t slots = sched.num_threads();

  const auto reduce_once = [&] {
    std::vector<float> partial(static_cast<std::size_t>(slots), 0.0f);
    sched.parallel_for(slots, [&](std::int64_t s0, std::int64_t s1) {
      for (std::int64_t s = s0; s < s1; ++s) {
        const std::int64_t begin = s * kN / slots;
        const std::int64_t end = (s + 1) * kN / slots;
        float acc = 0.0f;
        for (std::int64_t i = begin; i < end; ++i) {
          acc += values[static_cast<std::size_t>(i)];
        }
        partial[static_cast<std::size_t>(s)] = acc;
      }
    });
    for (std::int64_t stride = 1; stride < slots; stride *= 2) {
      for (std::int64_t s = 0; s + stride < slots; s += 2 * stride) {
        partial[static_cast<std::size_t>(s)] +=
            partial[static_cast<std::size_t>(s + stride)];
      }
    }
    return partial[0];
  };

  const float reference = reduce_once();
  for (int run = 0; run < 20; ++run) {
    const float result = reduce_once();
    ASSERT_EQ(std::memcmp(&result, &reference, sizeof(float)), 0)
        << "run " << run << ": " << result << " vs " << reference;
  }
}

TEST(Scheduler, GemmBitwiseStableAcrossRuns) {
  // Row-block tasks are stolen in arbitrary order; each C row's accumulation
  // order is internal to its leaf, so repeated runs must agree bit for bit.
  Scheduler sched(4);
  SchedulerScope scope(sched);
  constexpr std::int64_t kN = 160;  // above the parallel threshold
  Rng rng(77);
  const Tensor a = Tensor::randn({kN, kN}, rng);
  const Tensor b = Tensor::randn({kN, kN}, rng);
  Tensor c0({kN, kN}), c1({kN, kN});
  gemm_nn(kN, kN, kN, a.data(), b.data(), c0.data());
  for (int run = 0; run < 5; ++run) {
    gemm_nn(kN, kN, kN, a.data(), b.data(), c1.data());
    ASSERT_EQ(std::memcmp(c0.data(), c1.data(),
                          static_cast<std::size_t>(kN * kN) * sizeof(float)),
              0)
        << "run " << run;
  }
}

TEST(Scheduler, TileParallelConvMatchesSerialBitwise) {
  // parallel_tiles splits the forward/wgrad output-tile loops into
  // stealable subtasks; tiles write disjoint outputs with unchanged
  // per-element accumulation order, so the bits must match the serial path
  // exactly — including with pre-packed weight panels.
  Scheduler sched(4);
  SchedulerScope scope(sched);
  constexpr std::int64_t kCh = 24, kH = 13, kW = 17;
  const ConvGeometry geom{3, 1, 1};
  const std::int64_t ckk = kCh * 9;
  Rng rng(99);
  const Tensor x = Tensor::randn({kCh, kH, kW}, rng);
  const Tensor w = Tensor::randn({kCh, ckk}, rng, 0.05f);
  const Tensor g = Tensor::randn({kCh, kH, kW}, rng);

  ConvKernelOpts serial;
  serial.algo = ConvAlgo::kImplicit;
  ConvKernelOpts tiled = serial;
  tiled.parallel_tiles = true;
  PackedWeights packed;
  packed.pack(w.data(), kCh, ckk, /*forward=*/true, /*dgrad=*/true);
  ConvKernelOpts prepacked = tiled;
  prepacked.packed_weights = &packed;

  Tensor y_ref({kCh, kH, kW}), y_tiled({kCh, kH, kW}), y_pack({kCh, kH, kW});
  conv2d_forward_plane(x.data(), kCh, kH, kW, geom, w.data(), kCh,
                       y_ref.data(), nullptr, false, serial);
  conv2d_forward_plane(x.data(), kCh, kH, kW, geom, w.data(), kCh,
                       y_tiled.data(), nullptr, false, tiled);
  conv2d_forward_plane(x.data(), kCh, kH, kW, geom, w.data(), kCh,
                       y_pack.data(), nullptr, false, prepacked);
  const auto bytes = static_cast<std::size_t>(y_ref.numel()) * sizeof(float);
  EXPECT_EQ(std::memcmp(y_ref.data(), y_tiled.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(y_ref.data(), y_pack.data(), bytes), 0);

  Tensor dw_ref({kCh, ckk}), dw_tiled({kCh, ckk});
  dw_ref.fill_(0.0f);
  dw_tiled.fill_(0.0f);
  conv2d_wgrad_plane(g.data(), x.data(), kCh, kH, kW, geom, kCh,
                     dw_ref.data(), serial);
  conv2d_wgrad_plane(g.data(), x.data(), kCh, kH, kW, geom, kCh,
                     dw_tiled.data(), tiled);
  EXPECT_EQ(std::memcmp(dw_ref.data(), dw_tiled.data(),
                        static_cast<std::size_t>(dw_ref.numel()) *
                            sizeof(float)),
            0);

  Tensor dx_ref({kCh, kH, kW}), dx_pack({kCh, kH, kW});
  dx_ref.fill_(0.0f);
  dx_pack.fill_(0.0f);
  conv2d_dgrad_plane(w.data(), kCh, g.data(), kCh, kH, kW, geom,
                     dx_ref.data(), serial);
  conv2d_dgrad_plane(w.data(), kCh, g.data(), kCh, kH, kW, geom,
                     dx_pack.data(), prepacked);
  EXPECT_EQ(std::memcmp(dx_ref.data(), dx_pack.data(), bytes), 0);
}

/// Trains a freshly seeded micro-r18 for `steps` SGD steps on `batch`-row
/// batches under a `lanes`-wide scheduler and returns every parameter value.
std::vector<float> train_micro_r18(int lanes, std::int64_t batch, int steps) {
  Scheduler sched(lanes);
  SchedulerScope scope(sched);
  Rng rng(77);
  auto model = make_micro_resnet18(10, rng);
  model->set_training(true);
  Sgd sgd(model->parameters(), SgdConfig{0.05f, 0.9f, 1e-4f});
  const Dataset data = generate_dataset(
      source_task_spec(), static_cast<int>(batch) * steps, 78);
  for (int step = 0; step < steps; ++step) {
    const std::int64_t begin = step * batch;
    const std::vector<int> labels(data.labels.begin() + begin,
                                  data.labels.begin() + begin + batch);
    sgd.zero_grad();
    const LossResult loss = softmax_cross_entropy(
        model->forward(data.images.slice_rows(begin, batch)), labels);
    model->backward(loss.grad_logits);
    sgd.step();
  }
  std::vector<float> values;
  for (const Parameter* p : model->parameters()) {
    values.insert(values.end(), p->value.data(),
                  p->value.data() + p->value.numel());
  }
  return values;
}

TEST(Scheduler, TrainingBitsIndependentOfLaneCount) {
  // Every reduction partition (the conv wgrad partials above all) follows
  // the batch, never the lane count, so a model trains to the same bits on
  // any host. Batch 32 is the default training batch; 12 leaves a ragged
  // last partial; 2 runs below the lane count, where the conv kernels
  // switch to parallel_tiles.
  for (const std::int64_t batch : {32, 12, 2}) {
    const std::vector<float> one = train_micro_r18(1, batch, 2);
    const std::vector<float> four = train_micro_r18(4, batch, 2);
    ASSERT_EQ(one.size(), four.size());
    EXPECT_EQ(std::memcmp(one.data(), four.data(), one.size() * sizeof(float)),
              0)
        << "batch " << batch;
  }
}

TEST(Scheduler, DefaultThreadCountHonorsRtThreadsEnv) {
  const char* saved = std::getenv("RT_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("RT_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(Scheduler::default_thread_count(), 3);
  setenv("RT_THREADS", "0", 1);  // non-positive falls back to hardware
  EXPECT_GE(Scheduler::default_thread_count(), 1);
  setenv("RT_THREADS", "junk", 1);
  EXPECT_GE(Scheduler::default_thread_count(), 1);
  if (saved != nullptr) {
    setenv("RT_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("RT_THREADS");
  }
}

TEST(Scheduler, CurrentComposesNestedLoops) {
  // The entry point every library loop uses: Scheduler::current() resolves
  // to the scoped scheduler on the calling thread and inside its workers,
  // nested calls decompose rather than flatten, and results cover the range
  // exactly once.
  Scheduler sched(4);
  SchedulerScope scope(sched);
  std::vector<std::atomic<int>> hits(48 * 32);
  Scheduler::current().parallel_for(48, [&](std::int64_t ob, std::int64_t oe) {
    EXPECT_EQ(&Scheduler::current(), &sched);
    for (std::int64_t o = ob; o < oe; ++o) {
      const auto inner = [&, o](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i) {
          hits[static_cast<std::size_t>(o * 32 + i)]++;
        }
      };
      Scheduler::current().parallel_for(32, inner);
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(Scheduler, MultiSessionEngineStress) {
  // Several Sessions over one compiled ticket, hammered by external threads
  // while a shared scheduler runs their chunk tasks: every call must return
  // logits bitwise equal to a serial single-workspace reference.
  Rng rng(2026);
  auto model = make_micro_resnet18(10, rng);
  layerwise_magnitude_prune(*model, 0.9f, Granularity::kElement);
  model->set_training(false);
  const Tensor x = Tensor::uniform({24, 3, 16, 16}, rng, 0.0f, 1.0f);

  auto plan = std::make_shared<const CompiledTicket>(Engine::compile(*model));
  Session serial(plan, /*max_batch=*/24);
  const Tensor reference = serial.predict(x);

  Scheduler sched(4);
  SchedulerScope scope(sched);
  SessionOptions options;
  options.max_batch = 8;  // 3 chunk tasks per predict
  options.shared_scheduler = true;
  Session s1(plan, options);
  Session s2(plan, options);

  constexpr int kThreads = 4;
  constexpr int kCalls = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SchedulerScope thread_scope(sched);
      Session& session = (t % 2 == 0) ? s1 : s2;
      for (int c = 0; c < kCalls; ++c) {
        const Tensor logits = session.predict(x);
        if (logits.numel() != reference.numel() ||
            std::memcmp(logits.data(), reference.data(),
                        static_cast<std::size_t>(reference.numel()) *
                            sizeof(float)) != 0) {
          mismatches++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace rt
