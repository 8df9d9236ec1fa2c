// Kernel micro-benchmarks (google-benchmark): the compute primitives whose
// cost dominates the experiment harness. Useful for spotting performance
// regressions in the substrate rather than reproducing a paper figure.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/scheduler.hpp"

#include "attack/attack.hpp"
#include "attack/trades.hpp"
#include "engine/engine.hpp"
#include "hw/shrink.hpp"
#include "linalg/conv.hpp"
#include "linalg/gemm.hpp"
#include "models/resnet.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "prune/baselines.hpp"
#include "prune/omp.hpp"
#include "tensor/tensor.hpp"

namespace {

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  rt::Rng rng(1);
  const rt::Tensor a = rt::Tensor::randn({n, n}, rng);
  const rt::Tensor b = rt::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Raw kernel throughput (items == FLOPs) for the shared hot path; the Arg is
// the square problem size. Sparse variants zero the given percentage of the
// weight operand: gemm multiplies zeros like any other value, so these rows
// show what a masked weight costs when no executor skips it.
void BM_GemmNN(benchmark::State& state) {
  const auto n = state.range(0);
  const float sparsity = static_cast<float>(state.range(1)) / 100.0f;
  rt::Rng rng(2);
  rt::Tensor a = rt::Tensor::randn({n, n}, rng);
  const rt::Tensor b = rt::Tensor::randn({n, n}, rng);
  rt::Tensor c({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (rng.uniform() < sparsity) a[i] = 0.0f;
  }
  for (auto _ : state) {
    rt::gemm_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)
    ->Args({128, 0})
    ->Args({256, 0})
    ->Args({256, 90})
    ->Args({512, 0})
    ->Args({512, 90});

void BM_GemmNT(benchmark::State& state) {
  const auto n = state.range(0);
  const float sparsity = static_cast<float>(state.range(1)) / 100.0f;
  rt::Rng rng(3);
  const rt::Tensor a = rt::Tensor::randn({n, n}, rng);
  rt::Tensor b = rt::Tensor::randn({n, n}, rng);
  rt::Tensor c({n, n});
  // Channel-style pruning: zero whole rows of B.
  const auto zero_rows = static_cast<std::int64_t>(
      sparsity * static_cast<float>(n));
  for (std::int64_t j = 0; j < zero_rows; ++j) {
    for (std::int64_t kk = 0; kk < n; ++kk) b[j * n + kk] = 0.0f;
  }
  for (auto _ : state) {
    rt::gemm_nt(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)->Args({256, 0})->Args({256, 70})->Args({512, 0});

// Multi-thread GEMM scaling on a private work-stealing scheduler: Arg 0 is
// the scheduler's lane count. Row-block leaves are stolen dynamically, so
// items_per_second over the single-thread entry is the scheduler's parallel
// efficiency at this size.
void BM_GemmNNThreads(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  constexpr std::int64_t n = 512;
  rt::Rng rng(12);
  const rt::Tensor a = rt::Tensor::randn({n, n}, rng);
  const rt::Tensor b = rt::Tensor::randn({n, n}, rng);
  rt::Tensor c({n, n});
  rt::Scheduler sched(threads);
  rt::SchedulerScope scope(sched);
  for (auto _ : state) {
    rt::gemm_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The training-path convolution pair (forward + full backward) across the
// four ResNet-18 residual-body shapes at 32x32 input resolution, measured at
// the kernel layer: forward, dgrad and wgrad as one batched call each, as
// Conv2d runs them, on the implicit-GEMM kernels. Items == FLOPs. Its one
// Arg, 1, keeps the recorded row name BM_ConvTrain/1.
void BM_ConvTrain(benchmark::State& state) {
  struct Shape {
    std::int64_t ch, h, w;
  };
  // 64@32^2 -> 128@16^2 -> 256@8^2 -> 512@4^2: equal MACs per layer, the
  // full range of plane-vs-channel aspect ratios the kernels must tile.
  constexpr Shape kShapes[] = {
      {64, 32, 32}, {128, 16, 16}, {256, 8, 8}, {512, 4, 4}};
  constexpr std::int64_t kBatch = 4;
  const rt::ConvGeometry geom{3, 1, 1};

  rt::Rng rng(11);
  std::vector<rt::Tensor> xs, ws, gs, ys, dxs, dws;
  std::int64_t flops_per_iter = 0;
  for (const Shape& s : kShapes) {
    const std::int64_t ckk = s.ch * 9;
    xs.push_back(rt::Tensor::randn({kBatch, s.ch, s.h, s.w}, rng));
    ws.push_back(rt::Tensor::randn({s.ch, ckk}, rng, 0.05f));
    gs.push_back(rt::Tensor::randn({kBatch, s.ch, s.h, s.w}, rng));
    ys.push_back(rt::Tensor({kBatch, s.ch, s.h, s.w}));
    dxs.push_back(rt::Tensor({kBatch, s.ch, s.h, s.w}));
    dws.push_back(rt::Tensor({s.ch, ckk}));
    // forward + wgrad + dgrad each cost 2 * ch^2 * 9 * h * w MACs per sample.
    flops_per_iter += 3 * kBatch * 2 * s.ch * ckk * s.h * s.w;
  }
  rt::ConvScratch scratch;
  rt::PackedWeights packed;
  rt::ConvKernelOpts opts;
  opts.scratch = &scratch;
  opts.packed_weights = &packed;

  for (auto _ : state) {
    for (std::size_t l = 0; l < xs.size(); ++l) {
      const Shape& s = kShapes[l];
      dws[l].fill_(0.0f);
      dxs[l].fill_(0.0f);
      // The weight panels, packed once per layer and batch as Conv2d does.
      packed.pack(ws[l].data(), s.ch, s.ch, geom, true, true);
      rt::conv2d_forward(xs[l].data(), kBatch, s.ch, s.h, s.w, geom,
                         ws[l].data(), s.ch, ys[l].data(), nullptr, false,
                         opts);
      rt::conv2d_wgrad(gs[l].data(), xs[l].data(), kBatch, s.ch, s.h, s.w,
                       geom, s.ch, dws[l].data(), opts);
      rt::conv2d_dgrad(ws[l].data(), s.ch, gs[l].data(), kBatch, s.ch, s.h,
                       s.w, geom, dxs[l].data(), opts);
      benchmark::DoNotOptimize(ys[l].data());
      benchmark::DoNotOptimize(dws[l].data());
      benchmark::DoNotOptimize(dxs[l].data());
    }
  }
  state.SetItemsProcessed(state.iterations() * flops_per_iter);
}
BENCHMARK(BM_ConvTrain)->Arg(1);

/// The executing thread's staging for the packed conv kernels, as Conv2d
/// keeps one per scheduler thread.
rt::ConvScratch& thread_conv_scratch() {
  thread_local rt::ConvScratch scratch;
  return scratch;
}

// Multi-lane conv training step with the batch deliberately smaller than
// the lane count. Arg 1 == 0 runs the batch-outer composition (one task per
// sample running its forward, wgrad and dgrad serially), which strands the
// lanes the batch cannot fill; Arg 1 == 1 runs Conv2d's: forward and dgrad
// split whole slivers of the batch's column space across the lanes, and the
// batch's one wgrad call splits its output tiles. Arg 0 is the scheduler
// lane count; both modes produce the same forward and dgrad bits, and the
// same dW up to wgrad's per-call summation order, so items_per_second
// isolates the composition.
void BM_ConvTrainMT(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  const bool split = state.range(1) == 1;
  struct Shape {
    std::int64_t ch, h, w;
  };
  constexpr Shape kShapes[] = {
      {64, 32, 32}, {128, 16, 16}, {256, 8, 8}, {512, 4, 4}};
  constexpr std::int64_t kBatch = 2;  // < threads: the compose-or-idle case
  const rt::ConvGeometry geom{3, 1, 1};

  rt::Rng rng(13);
  std::vector<rt::Tensor> xs, ws, gs, ys, dxs, dws;
  std::int64_t flops_per_iter = 0;
  for (const Shape& s : kShapes) {
    const std::int64_t ckk = s.ch * 9;
    xs.push_back(rt::Tensor::randn({kBatch, s.ch, s.h, s.w}, rng));
    ws.push_back(rt::Tensor::randn({s.ch, ckk}, rng, 0.05f));
    gs.push_back(rt::Tensor::randn({kBatch, s.ch, s.h, s.w}, rng));
    ys.push_back(rt::Tensor({kBatch, s.ch, s.h, s.w}));
    dxs.push_back(rt::Tensor({kBatch, s.ch, s.h, s.w}));
    dws.push_back(rt::Tensor({kBatch, s.ch, ckk}));  // per-sample dw slots
    flops_per_iter += 3 * kBatch * 2 * s.ch * ckk * s.h * s.w;
  }
  rt::Scheduler sched(threads);
  rt::SchedulerScope scope(sched);
  rt::PackedWeights packed;
  rt::ConvKernelOpts opts;
  opts.packed_weights = &packed;

  for (auto _ : state) {
    for (std::size_t l = 0; l < xs.size(); ++l) {
      const Shape& s = kShapes[l];
      const std::int64_t plane = s.ch * s.h * s.w;
      const std::int64_t ckk = s.ch * 9;
      dws[l].fill_(0.0f);
      dxs[l].fill_(0.0f);
      packed.pack(ws[l].data(), s.ch, s.ch, geom, true, true);
      const float* xd = xs[l].data();
      const float* wd = ws[l].data();
      const float* gd = gs[l].data();
      float* yd = ys[l].data();
      float* dxd = dxs[l].data();
      float* dwd = dws[l].data();
      const auto leaf = [&](std::int64_t b0, std::int64_t b1) {
        rt::ConvKernelOpts o = opts;
        o.sliver_begin = b0;
        o.sliver_end = b1;
        o.scratch = &thread_conv_scratch();
        return o;
      };
      if (split) {
        sched.parallel_for(
            rt::conv_forward_slivers(kBatch, s.h, s.w, geom),
            [&](std::int64_t b0, std::int64_t b1) {
              rt::conv2d_forward(xd, kBatch, s.ch, s.h, s.w, geom, wd, s.ch,
                                 yd, nullptr, false, leaf(b0, b1));
            });
        sched.parallel_for(
            rt::conv_dgrad_slivers(kBatch, s.h, s.w, geom),
            [&](std::int64_t b0, std::int64_t b1) {
              rt::conv2d_dgrad(wd, s.ch, gd, kBatch, s.ch, s.h, s.w, geom,
                               dxd, leaf(b0, b1));
            });
        // The batch is one wgrad slot; its tiles split like Conv2d's.
        const std::int64_t tiles = rt::conv_wgrad_tiles(s.ch, s.ch, geom);
        const std::int64_t parts = std::min<std::int64_t>(tiles, threads);
        sched.parallel_for(
            parts,
            [&](std::int64_t p0, std::int64_t p1) {
              rt::conv2d_wgrad(gd, xd, kBatch, s.ch, s.h, s.w, geom, s.ch,
                               dwd, leaf(p0 * tiles / parts,
                                         p1 * tiles / parts));
            },
            /*grain=*/1);
      } else {
        sched.parallel_for(
            kBatch,
            [&](std::int64_t b0, std::int64_t b1) {
              for (std::int64_t i = b0; i < b1; ++i) {
                const rt::ConvKernelOpts o = leaf(0, -1);
                rt::conv2d_forward(xd + i * plane, 1, s.ch, s.h, s.w, geom,
                                   wd, s.ch, yd + i * plane, nullptr, false,
                                   o);
                rt::conv2d_dgrad(wd, s.ch, gd + i * plane, 1, s.ch, s.h, s.w,
                                 geom, dxd + i * plane, o);
                rt::conv2d_wgrad(gd + i * plane, xd + i * plane, 1, s.ch,
                                 s.h, s.w, geom, s.ch, dwd + i * s.ch * ckk,
                                 o);
              }
            },
            /*grain=*/1);
      }
      benchmark::DoNotOptimize(ys[l].data());
      benchmark::DoNotOptimize(dws[l].data());
      benchmark::DoNotOptimize(dxs[l].data());
    }
  }
  state.SetItemsProcessed(state.iterations() * flops_per_iter);
}
BENCHMARK(BM_ConvTrainMT)->Args({4, 0})->Args({4, 1})->UseRealTime();

// Masked 3x3 stride-1 conv on both executors: the tap table and the packed
// implicit GEMM, with the table resolved and the panels packed once outside
// the timed loop. Args: output plane side (OH = OW), channels (c_in =
// out_ch), percent zero weights. The reported time is forward + dgrad over
// kBatch samples on the executor the tap rule (conv_prefers_taps) picks;
// the counters give each executor's forward and dgrad µs per sample and
// their taps/packed ratios (< 1: taps win). The grid the tap rule is
// checked against.
void BM_ConvTapsVsPacked(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const std::int64_t side = state.range(0);
  const std::int64_t ch = state.range(1);
  const float zero_fraction = static_cast<float>(state.range(2)) / 100.0f;
  constexpr std::int64_t kBatch = 8;
  const rt::ConvGeometry geom{3, 1, 1};
  const std::int64_t ckk = ch * 9;

  rt::Rng rng(17);
  const rt::Tensor x = rt::Tensor::randn({kBatch, ch, side, side}, rng);
  const rt::Tensor g = rt::Tensor::randn({kBatch, ch, side, side}, rng);
  rt::Tensor w = rt::Tensor::randn({ch, ckk}, rng, 0.05f);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    if (rng.uniform(0.0f, 1.0f) < zero_fraction) w[i] = 0.0f;
  }
  rt::Tensor y({kBatch, ch, side, side});
  rt::Tensor dx({kBatch, ch, side, side});

  rt::PackedWeights packed;
  packed.pack(w.data(), ch, ch, geom, /*forward=*/true, /*dgrad=*/true);
  rt::ConvScratch scratch;
  rt::ConvKernelOpts packed_opts;
  packed_opts.packed_weights = &packed;
  packed_opts.scratch = &scratch;
  rt::ConvTapTable table;
  std::vector<float> values;
  table.resolve(w.data(), ch, ch, side, side, geom, values);
  const bool rule_taps = rt::conv_prefers_taps(
      rt::count_nonzeros(w.data(), w.numel()), ch, ckk, side * side);

  // Seconds of forward (first) and dgrad (second) over the batch.
  const auto run = [&](bool taps) {
    const auto t0 = Clock::now();
    if (taps) {
      rt::conv2d_forward_taps(table, values.data(), x.data(), kBatch,
                              y.data(), 0, nullptr, false);
    } else {
      rt::conv2d_forward(x.data(), kBatch, ch, side, side, geom, w.data(), ch,
                         y.data(), nullptr, false, packed_opts);
    }
    const auto t1 = Clock::now();
    if (taps) {
      rt::conv2d_dgrad_taps(table, values.data(), g.data(), kBatch,
                            dx.data());
    } else {
      rt::conv2d_dgrad(w.data(), ch, g.data(), kBatch, ch, side, side, geom,
                       dx.data(), packed_opts);
    }
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
    return std::pair<double, double>{
        std::chrono::duration<double>(t1 - t0).count(),
        std::chrono::duration<double>(t2 - t1).count()};
  };

  double taps_fwd = 0.0, taps_dgrad = 0.0, packed_fwd = 0.0, packed_dgrad = 0.0;
  for (auto _ : state) {
    const auto [tf, td] = run(true);
    const auto [pf, pd] = run(false);
    taps_fwd += tf;
    taps_dgrad += td;
    packed_fwd += pf;
    packed_dgrad += pd;
    state.SetIterationTime(rule_taps ? tf + td : pf + pd);
  }
  const double per_sample_us =
      1e6 / static_cast<double>(state.iterations() * kBatch);
  state.counters["taps_fwd_us"] = taps_fwd * per_sample_us;
  state.counters["taps_dgrad_us"] = taps_dgrad * per_sample_us;
  state.counters["packed_fwd_us"] = packed_fwd * per_sample_us;
  state.counters["packed_dgrad_us"] = packed_dgrad * per_sample_us;
  state.counters["fwd_ratio"] = taps_fwd / packed_fwd;
  state.counters["dgrad_ratio"] = taps_dgrad / packed_dgrad;
  state.counters["rule_taps"] = rule_taps ? 1.0 : 0.0;
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ConvTapsVsPacked)
    ->ArgsProduct({{4, 8, 16, 32}, {16, 64}, {90, 97, 99}})
    ->UseManualTime();

void BM_ResNetForward(benchmark::State& state) {
  rt::Rng rng(2);
  auto model = state.range(0) == 18 ? rt::make_micro_resnet18(10, rng)
                                    : rt::make_micro_resnet50(10, rng);
  model->set_training(false);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ResNetForward)->Arg(18)->Arg(50);

// One training step (forward + backward, no optimizer) at batch 16. Arg 0
// is the model depth, Arg 1 the OMP element sparsity percentage (0 = dense):
// the {18, 90} arm is the masked ticket a finetune trains, whose layers past
// 80% zeros sit on 4x4 and 2x2 planes.
void BM_ResNetTrainStep(benchmark::State& state) {
  rt::Rng rng(3);
  auto model = state.range(0) == 18 ? rt::make_micro_resnet18(10, rng)
                                    : rt::make_micro_resnet50(10, rng);
  if (state.range(1) > 0) {
    rt::omp_prune(*model,
                  rt::OmpConfig{static_cast<float>(state.range(1)) / 100.0f,
                                rt::Granularity::kElement,
                                /*include_head=*/false});
  }
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    model->zero_grad();
    const rt::Tensor logits = model->forward(x);
    const rt::LossResult loss = rt::softmax_cross_entropy(logits, y);
    benchmark::DoNotOptimize(model->backward(loss.grad_logits));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ResNetTrainStep)->Args({18, 0})->Args({50, 0})->Args({18, 90});

void BM_PgdAttack(benchmark::State& state) {
  rt::Rng rng(4);
  auto model = rt::make_micro_resnet18(10, rng);
  model->set_training(false);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 10);
  rt::AttackConfig cfg;
  cfg.steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::pgd_attack(*model, x, y, cfg, rng));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_PgdAttack)->Arg(1)->Arg(5)->Arg(10);

void BM_TradesStep(benchmark::State& state) {
  rt::Rng rng(5);
  auto model = rt::make_micro_resnet18(10, rng);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 10);
  rt::TradesConfig cfg;
  cfg.attack.steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    model->zero_grad();
    benchmark::DoNotOptimize(rt::trades_step(*model, x, y, cfg, rng));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_TradesStep)->Arg(1)->Arg(5);

void BM_OptimizerStep(benchmark::State& state) {
  rt::Rng rng(6);
  auto model = rt::make_micro_resnet50(10, rng);
  auto params = model->parameters();
  for (rt::Parameter* p : params) p->grad.fill_(0.01f);
  const bool adam = state.range(0) == 1;
  rt::Sgd sgd(params, {});
  rt::Adam adam_opt(params, {});
  for (auto _ : state) {
    if (adam) {
      adam_opt.step();
    } else {
      sgd.step();
    }
  }
  state.SetItemsProcessed(state.iterations() * model->num_parameters());
}
BENCHMARK(BM_OptimizerStep)->Arg(0)->Arg(1);  // 0 = SGD, 1 = Adam

void BM_ShrunkVsMaskedForward(benchmark::State& state) {
  // The shrink compiler's payoff measured at the kernel level: forward cost
  // of a 70%-channel-pruned r50, masked (range 0) vs physically shrunk (1).
  rt::Rng rng(7);
  auto model = rt::make_micro_resnet50(10, rng);
  rt::OmpConfig cfg;
  cfg.sparsity = 0.7f;
  cfg.granularity = rt::Granularity::kChannel;
  rt::omp_prune(*model, cfg);
  rt::neutralize_dead_internal_channels(*model);
  if (state.range(0) == 1) {
    rt::shrink_internal_channels(*model, rng);
  }
  model->set_training(false);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ShrunkVsMaskedForward)->Arg(0)->Arg(1);

// Serving-path throughput on a micro-r18 ticket. Arg 0 is the execution
// mode: 0 = eager Module::forward, 1 = compiled engine (fp32 kernels),
// 2 = compiled engine with native int8 execution (s8 weights, u8 offset
// activations, int32 accumulation, fused requant). Arg 1 is the layerwise
// element sparsity percentage: 90 and 98 pack every conv as CSR, 0 as
// dense. Convs of both precisions pick their executor per layer
// (conv_prefers_taps): 90 runs every conv on panels, 98 keeps every conv on
// the tap table. items_per_second of {2, s} over {1, s}
// is the end-to-end int8 win.
void BM_EngineThroughput(benchmark::State& state) {
  const auto mode = state.range(0);
  const float sparsity = static_cast<float>(state.range(1)) / 100.0f;
  rt::Rng rng(9);
  auto model = rt::make_micro_resnet18(10, rng);
  if (sparsity > 0.0f) {
    rt::layerwise_magnitude_prune(*model, sparsity, rt::Granularity::kElement);
  }
  model->set_training(false);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);

  if (mode == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(model->forward(x));
    }
  } else {
    rt::CompileOptions options;
    options.int8_weights = mode == 2;
    rt::Session session(rt::Engine::compile(*model, options),
                        /*max_batch=*/16);
    for (auto _ : state) {
      benchmark::DoNotOptimize(session.predict(x));
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EngineThroughput)
    ->Args({0, 90})
    ->Args({1, 90})
    ->Args({2, 90})
    ->Args({1, 98})
    ->Args({2, 98})
    ->Args({1, 0})
    ->Args({2, 0});

// int8 serving at one batch size: the r18_omp90 ticket the serving
// benchmark deploys (OMP 90%, head unpruned), compiled int8-native, run
// through an int8 Session whose max_batch is the Arg. Arg 1 is the
// per-request edge shape, Arg 64 the bulk shape; items are rows.
void BM_EngineRowsInt8(benchmark::State& state) {
  const auto batch = state.range(0);
  rt::Rng rng(9);
  auto model = rt::make_micro_resnet18(10, rng);
  rt::omp_prune(*model, rt::OmpConfig{0.9f, rt::Granularity::kElement,
                                      /*include_head=*/false});
  model->set_training(false);
  rt::CompileOptions options;
  options.int8_weights = true;
  rt::Session session(rt::Engine::compile(*model, options),
                      static_cast<int>(batch));
  const rt::Tensor x =
      rt::Tensor::uniform({batch, 3, 16, 16}, rng, 0.0f, 1.0f);
  rt::Tensor logits({batch, 10});
  for (auto _ : state) {
    session.run_rows(x.data(), batch, logits.data());
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EngineRowsInt8)->Arg(1)->Arg(64);

// Session scaling: Arg concurrent threads hammering one shared Session.
// Near-linear items/sec scaling (up to the core count) is the target; on a
// single-core host this degenerates to a contention check.
void BM_EngineSessionThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  rt::Rng rng(10);
  auto model = rt::make_micro_resnet18(10, rng);
  rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
  rt::Session session(rt::Engine::compile(*model), /*max_batch=*/16);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);

  constexpr int kCallsPerThread = 4;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (int c = 0; c < kCallsPerThread; ++c) {
          benchmark::DoNotOptimize(session.predict(x));
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * kCallsPerThread * 16);
}
BENCHMARK(BM_EngineSessionThreads)->Arg(1)->Arg(2)->Arg(4);

// Shared-scheduler serving: 4 concurrent Sessions (one caller thread each)
// over one compiled ticket and one work-stealing scheduler at the given
// lane count. Arg 1 == 0 is the flat baseline — each predict() runs its
// chunks serially on its calling thread, the only concurrency the old pool
// offered the engine — while Arg 1 == 1 splits every call's max_batch
// chunks into stealable tasks so the calls cooperatively fill the machine
// even when callers are fewer or slower than lanes. Logits are bitwise
// identical across modes.
void BM_EngineThroughputMT(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  const bool shared = state.range(1) == 1;
  constexpr int kSessions = 4;
  constexpr int kCallsPerSession = 2;
  constexpr std::int64_t kBatch = 32;

  rt::Rng rng(14);
  auto model = rt::make_micro_resnet18(10, rng);
  rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
  model->set_training(false);
  const rt::Tensor x =
      rt::Tensor::uniform({kBatch, 3, 16, 16}, rng, 0.0f, 1.0f);

  auto plan = std::make_shared<const rt::CompiledTicket>(
      rt::Engine::compile(*model));
  rt::SessionOptions options;
  options.max_batch = 8;  // 4 chunk tasks per call
  options.shared_scheduler = shared;
  std::vector<std::unique_ptr<rt::Session>> sessions;
  sessions.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<rt::Session>(plan, options));
  }
  rt::Scheduler sched(threads);

  for (auto _ : state) {
    std::vector<std::thread> callers;
    callers.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      callers.emplace_back([&, s] {
        rt::SchedulerScope scope(sched);
        for (int c = 0; c < kCallsPerSession; ++c) {
          benchmark::DoNotOptimize(sessions[static_cast<std::size_t>(s)]
                                       ->predict(x));
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
  }
  state.SetItemsProcessed(state.iterations() * kSessions * kCallsPerSession *
                          kBatch);
}
BENCHMARK(BM_EngineThroughputMT)->Args({4, 0})->Args({4, 1})->UseRealTime();

void BM_KlDivergence(benchmark::State& state) {
  rt::Rng rng(8);
  const auto n = state.range(0);
  const rt::Tensor a = rt::Tensor::randn({n, 10}, rng);
  const rt::Tensor b = rt::Tensor::randn({n, 10}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::kl_divergence(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KlDivergence)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
