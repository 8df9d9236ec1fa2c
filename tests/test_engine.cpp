// Engine-vs-eager parity and Session concurrency tests.
//
// Engine::compile must reproduce eval-mode Module::forward within float
// rounding for every architecture, pretraining objective, sparsity level and
// packed storage format; the sweep trains tiny models briefly so batch-norm
// running statistics (the folded part) are non-trivial. Session must be
// usable from many threads at once and stay bitwise deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synth.hpp"
#include "engine/engine.hpp"
#include "hw/quant.hpp"
#include "linalg/conv.hpp"
#include "models/blocks.hpp"
#include "models/resnet.hpp"
#include "prune/baselines.hpp"
#include "prune/omp.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

std::unique_ptr<ResNet> tiny_model(bool bottleneck, std::uint64_t seed) {
  Rng rng(seed);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = bottleneck ? "tb" : "ta";
  if (bottleneck) {
    cfg.block = ResNetConfig::BlockType::kBottleneck;
    cfg.bottleneck_expansion = 2;
  }
  return std::make_unique<ResNet>(cfg, rng);
}

/// Brief natural or adversarial training so BN running statistics move away
/// from their initialization — the part conv+BN folding must reproduce.
void train_briefly(ResNet& model, bool adversarial, std::uint64_t seed) {
  const Dataset train = generate_dataset(source_task_spec(), 48, seed);
  TrainLoopConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  if (adversarial) {
    cfg.adversarial = true;
    cfg.attack = AttackConfig{0.06f, 0.02f, 2, true};
  }
  Rng rng(seed ^ 0x5EEDULL);
  train_classifier(model, train, cfg, rng);
}

float max_logit_gap(const Tensor& a, const Tensor& b) {
  return a.linf_distance(b);
}

TEST(EngineParity, ArchSchemeSparsityFormatSweep) {
  const Dataset probe = generate_dataset(source_task_spec(), 24, 77);
  const std::vector<std::optional<PackedFormat>> formats{
      std::nullopt, PackedFormat::kDense, PackedFormat::kChannelCompact,
      PackedFormat::kCsr};

  for (const bool bottleneck : {false, true}) {
    for (const bool adversarial : {false, true}) {
      auto model = tiny_model(bottleneck, 11 + (bottleneck ? 1 : 0));
      train_briefly(*model, adversarial, adversarial ? 21 : 22);

      for (const float sparsity : {0.0f, 0.5f, 0.9f}) {
        for (const Granularity granularity :
             {Granularity::kElement, Granularity::kChannel}) {
          if (sparsity == 0.0f && granularity == Granularity::kChannel) {
            continue;  // identical to the element case at zero sparsity
          }
          OmpConfig prune_cfg;
          prune_cfg.sparsity = sparsity;
          prune_cfg.granularity = granularity;
          omp_prune(*model, prune_cfg);

          model->set_training(false);
          const Tensor eager = model->forward(probe.images);

          for (const auto& format : formats) {
            CompileOptions options;
            options.force_format = format;
            const CompiledTicket plan = Engine::compile(*model, options);
            Workspace ws(plan, 8);  // smaller than the probe: chunked path
            const Tensor compiled = plan.predict(probe.images, ws);
            EXPECT_LE(max_logit_gap(eager, compiled), 1e-4f)
                << "bottleneck=" << bottleneck << " adv=" << adversarial
                << " sparsity=" << sparsity << " granularity="
                << granularity_name(granularity) << " format="
                << (format ? packed_format_name(*format) : "auto");
          }
        }
      }
    }
  }
}

TEST(EngineParity, AutoFormatMatchesMaskStructure) {
  auto model = tiny_model(false, 31);
  train_briefly(*model, false, 33);

  // Unstructured 90%: every prunable conv layer should pack as CSR.
  OmpConfig unstructured;
  unstructured.sparsity = 0.9f;
  omp_prune(*model, unstructured);
  const CompiledTicket csr_plan = Engine::compile(*model);
  bool saw_csr = false;
  for (const LayerPlan& l : csr_plan.layers()) {
    if (l.format == PackedFormat::kCsr) saw_csr = true;
  }
  EXPECT_TRUE(saw_csr);
  EXPECT_LT(csr_plan.effective_macs(), csr_plan.dense_macs() / 4);

  // Channel-structured 70%: row-pruned weights should go channel-compact.
  auto chan_model = tiny_model(false, 35);
  train_briefly(*chan_model, false, 36);
  OmpConfig channel;
  channel.sparsity = 0.7f;
  channel.granularity = Granularity::kChannel;
  omp_prune(*chan_model, channel);
  const CompiledTicket compact_plan = Engine::compile(*chan_model);
  bool saw_compact = false;
  for (const LayerPlan& l : compact_plan.layers()) {
    if (l.format == PackedFormat::kChannelCompact) saw_compact = true;
  }
  EXPECT_TRUE(saw_compact);

  // A dense model stays dense and packs to exactly its fp32 footprint.
  auto dense_model = tiny_model(false, 37);
  const CompiledTicket dense_plan = Engine::compile(*dense_model);
  for (const LayerPlan& l : dense_plan.layers()) {
    EXPECT_EQ(l.format, PackedFormat::kDense) << l.name;
    EXPECT_EQ(l.nnz, l.rows * l.cols) << l.name;
  }
}

TEST(EngineParity, Int8MatchesFakeQuantizedEagerModel) {
  auto model = tiny_model(false, 41);
  train_briefly(*model, false, 42);
  OmpConfig prune_cfg;
  prune_cfg.sparsity = 0.5f;
  omp_prune(*model, prune_cfg);

  CompileOptions options;
  options.int8_weights = true;
  // Pin the simulated-PTQ path: this test bounds WEIGHT quantization error
  // against the eager model. Native execution adds activation quantization
  // on top and is guarded separately in test_quant_kernels.cpp.
  options.int8_native = false;
  const CompiledTicket plan = Engine::compile(*model, options);

  // Engine int8 quantizes FOLDED weights, so parity against the eager model
  // holds only approximately; the error must be bounded by the quantization
  // step, far below what plain fp32 folding produces.
  const Dataset probe = generate_dataset(source_task_spec(), 16, 43);
  model->set_training(false);
  const Tensor eager = model->forward(probe.images);
  Workspace ws(plan, 16);
  const Tensor compiled = plan.predict(probe.images, ws);
  EXPECT_LE(eager.linf_distance(compiled), 0.15f);

  // The plan must carry the shippable int8 sidecar and price it as such.
  std::int64_t fp32_bytes = 0;
  for (const LayerPlan& l : plan.layers()) {
    EXPECT_TRUE(l.quantized);
    fp32_bytes += l.rows * l.cols * 4;
  }
  EXPECT_LT(plan.packed_bytes(), fp32_bytes);
}

TEST(EngineSession, ChunksArbitraryBatchSizes) {
  auto model = tiny_model(false, 51);
  train_briefly(*model, false, 52);
  model->set_training(false);
  const Dataset probe = generate_dataset(source_task_spec(), 23, 53);
  const Tensor eager = model->forward(probe.images);

  Session session(Engine::compile(*model), /*max_batch=*/5);
  const Tensor out = session.predict(probe.images);
  EXPECT_EQ(out.dim(0), 23);
  EXPECT_LE(eager.linf_distance(out), 1e-4f);

  const std::vector<int> classes = session.classify(probe.images);
  EXPECT_EQ(classes.size(), 23u);
}

TEST(EngineSession, ConcurrentPredictIsDeterministic) {
  auto model = tiny_model(true, 61);
  train_briefly(*model, false, 62);
  OmpConfig prune_cfg;
  prune_cfg.sparsity = 0.8f;
  omp_prune(*model, prune_cfg);

  Session session(Engine::compile(*model), /*max_batch=*/8);
  const Dataset probe = generate_dataset(source_task_spec(), 16, 63);
  const Tensor reference = session.predict(probe.images);

  constexpr int kThreads = 4;
  constexpr int kRepeats = 3;
  std::vector<Tensor> results(kThreads * kRepeats);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        results[static_cast<std::size_t>(t * kRepeats + r)] =
            session.predict(probe.images);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (const Tensor& out : results) {
    ASSERT_TRUE(out.same_shape(reference));
    // Bitwise equality: serial per-call execution means thread scheduling
    // cannot perturb float accumulation order.
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], reference[i]);
    }
  }
}

TEST(EngineSession, EvalHelpersAgreeWithEagerPath)
{
  auto model = tiny_model(false, 71);
  train_briefly(*model, false, 72);
  const Dataset probe = generate_dataset(source_task_spec(), 40, 73);

  Session session = make_eval_session(*model, probe, 16);
  const float engine_acc = evaluate_accuracy(session, probe);
  const float eager_acc = evaluate_accuracy(*model, probe, 16);
  EXPECT_NEAR(engine_acc, eager_acc, 1e-6f);

  const Tensor engine_probs = predict_probabilities(session, probe);
  const Tensor eager_probs = predict_probabilities(*model, probe, 16);
  EXPECT_LE(engine_probs.linf_distance(eager_probs), 1e-4f);
}

/// Executors the convs of a plan run: {tap-executed, panel-executed}
/// (prepacked_bytes is nonzero exactly when a conv carries panels; the
/// head is the last layer record).
std::pair<int, int> conv_executors(const CompiledTicket& plan) {
  int taps = 0, panels = 0;
  for (std::size_t i = 0; i + 1 < plan.layers().size(); ++i) {
    ++(plan.layers()[i].prepacked_bytes == 0 ? taps : panels);
  }
  return {taps, panels};
}

TEST(EngineParity, TinyGeometryKeepsCsrTapsInBounds) {
  // Regression: at a 4x4 compiled geometry the deepest stride-2 conv sees a
  // 1x1 input, where trunc-toward-zero division used to emit a tap reading
  // out of bounds (o1 = 1 instead of 0) and parity silently broke. At 90%
  // sparsity conv_prefers_taps puts every conv of this plan on panels, so 98%
  // keeps the tap windows (stride-2 ones included) under test.
  std::pair<int, int> seen{0, 0};
  for (const float sparsity : {0.9f, 0.98f}) {
    SCOPED_TRACE(testing::Message() << "sparsity=" << sparsity);
    auto model = tiny_model(false, 91);
    train_briefly(*model, false, 92);
    OmpConfig prune_cfg;
    prune_cfg.sparsity = sparsity;
    omp_prune(*model, prune_cfg);
    model->set_training(false);

    Rng rng(93);
    const Tensor x = Tensor::uniform({6, 3, 4, 4}, rng, 0.0f, 1.0f);
    const Tensor eager = model->forward(x);

    CompileOptions options;
    options.height = 4;
    options.width = 4;
    options.force_format = PackedFormat::kCsr;
    const CompiledTicket plan = Engine::compile(*model, options);
    const auto [taps, panels] = conv_executors(plan);
    seen.first += taps;
    seen.second += panels;
    Workspace ws(plan, 6);
    EXPECT_LE(eager.linf_distance(plan.predict(x, ws)), 1e-4f);
  }
  EXPECT_GT(seen.first, 0);
  EXPECT_GT(seen.second, 0);
}

TEST(EngineParity, TinyGeometryInt8CsrMatchesDenseBitwise) {
  // The int8-native twin of the test above: the forced-CSR plan picks each
  // conv's executor (tap table or panels, conv_prefers_taps) down to
  // the 1x1 input of the last stride-2 conv, and must reproduce the
  // forced-dense int8 plan bit for bit. The rule ignores the format, so
  // both plans run the same executors: this holds compiling from CSR to
  // compiling from dense. QuantConv.TapTableMatchesReference checks the
  // int8 tap executor itself against the exact integer reference at these
  // 4x4 to 1x1 extents.
  std::pair<int, int> seen{0, 0};
  for (const float sparsity : {0.9f, 0.98f}) {
    SCOPED_TRACE(testing::Message() << "sparsity=" << sparsity);
    auto model = tiny_model(false, 91);
    train_briefly(*model, false, 92);
    OmpConfig prune_cfg;
    prune_cfg.sparsity = sparsity;
    omp_prune(*model, prune_cfg);
    model->set_training(false);

    Rng rng(93);
    const Tensor x = Tensor::uniform({6, 3, 4, 4}, rng, 0.0f, 1.0f);

    CompileOptions options;
    options.height = 4;
    options.width = 4;
    options.int8_weights = true;
    options.force_format = PackedFormat::kCsr;
    const CompiledTicket plan = Engine::compile(*model, options);
    ASSERT_TRUE(plan.int8_native());
    const auto [taps, panels] = conv_executors(plan);
    seen.first += taps;
    seen.second += panels;
    options.force_format = PackedFormat::kDense;
    const CompiledTicket dense = Engine::compile(*model, options);
    Workspace ws(plan, 6), dense_ws(dense, 6);
    const Tensor got = plan.predict(x, ws);
    const Tensor want = dense.predict(x, dense_ws);
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0)
        << "linf " << got.linf_distance(want);
  }
  EXPECT_GT(seen.first, 0);
  EXPECT_GT(seen.second, 0);
}

TEST(EngineParity, Fp32CsrExecutorsAgreeWithDenseAndEager) {
  // conv_prefers_taps picks every CSR conv's executor, fp32 as well as int8.
  // The serving benchmark's r18_omp90 ticket keeps its CSR convs on 4x4 and
  // 2x2 planes, where panels expanded from the CSR values win: each must
  // carry panels, and since those panels are the ones the forced-dense plan
  // packs from the same folded weights, the logits must match it bit for
  // bit. A layerwise-98% ticket keeps every CSR conv on the tap loop, which
  // sums in a different order, so it is held to eager parity instead.
  Rng omp_rng(9);
  auto omp90 = make_micro_resnet18(10, omp_rng);
  omp_prune(*omp90, OmpConfig{0.9f, Granularity::kElement,
                              /*include_head=*/false});
  omp90->set_training(false);
  Rng lw_rng(9);
  auto lw98 = make_micro_resnet18(10, lw_rng);
  layerwise_magnitude_prune(*lw98, 0.98f, Granularity::kElement);
  lw98->set_training(false);

  Rng rng(101);
  const Tensor x = Tensor::uniform({37, 3, 16, 16}, rng, 0.0f, 1.0f);
  for (ResNet* model : {omp90.get(), lw98.get()}) {
    const bool is_omp90 = model == omp90.get();
    SCOPED_TRACE(is_omp90 ? "r18_omp90" : "layerwise98");
    const CompiledTicket plan = Engine::compile(*model);
    ASSERT_FALSE(plan.int8_native());
    // prepacked_bytes is nonzero exactly when a conv carries panels. The
    // head, the last layer record, is left out: it is unpruned here.
    const std::vector<LayerPlan>& layers = plan.layers();
    int csr = 0;
    for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
      const LayerPlan& l = layers[i];
      if (l.format != PackedFormat::kCsr) continue;
      ++csr;
      const std::int64_t ohw = l.dense_macs / (l.rows * l.cols);
      const bool taps = conv_prefers_taps(l.nnz, l.rows, l.cols, ohw);
      EXPECT_EQ(l.prepacked_bytes == 0, taps) << l.name;
      EXPECT_EQ(taps, !is_omp90) << l.name << " density "
                                 << static_cast<double>(l.nnz) /
                                        static_cast<double>(l.rows * l.cols);
    }
    EXPECT_GT(csr, 0);

    if (is_omp90) {
      CompileOptions dense_options;
      dense_options.force_format = PackedFormat::kDense;
      auto dense = std::make_shared<const CompiledTicket>(
          Engine::compile(*model, dense_options));
      auto auto_plan = std::make_shared<const CompiledTicket>(plan);
      for (const int batch : {1, 16}) {
        SCOPED_TRACE(testing::Message() << "batch=" << batch);
        Session got_session(auto_plan, batch), want_session(dense, batch);
        const Tensor got = got_session.predict(x);
        const Tensor want = want_session.predict(x);
        ASSERT_EQ(got.numel(), want.numel());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              static_cast<std::size_t>(got.numel()) *
                                  sizeof(float)),
                  0)
            << "linf " << got.linf_distance(want);
      }
    } else {
      Workspace ws(plan, 16);
      EXPECT_LE(plan.predict(x, ws).linf_distance(model->forward(x)), 1e-4f);
    }
  }
}

/// The rule's choice for each conv of `plan` (the head, the last record,
/// excluded) as Engine::compile applies it to the executed matrix, and as
/// Conv2d applies it to the same conv's raw weight in `model`; the compiled
/// layer must carry panels exactly when the rule says panels.
void expect_rule_routes(ResNet& model, const CompiledTicket& plan,
                        bool taps) {
  std::map<std::string, const Parameter*> weights;
  for (const Parameter* p : model.parameters()) weights[p->name] = p;
  const std::vector<LayerPlan>& layers = plan.layers();
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    const LayerPlan& l = layers[i];
    const std::int64_t ohw = l.dense_macs / (l.rows * l.cols);
    const std::int64_t rows =
        l.format == PackedFormat::kChannelCompact ? l.kept_rows : l.rows;
    EXPECT_EQ(conv_prefers_taps(l.nnz, rows, l.cols, ohw), taps) << l.name;
    EXPECT_EQ(l.prepacked_bytes == 0, taps) << l.name;
    ASSERT_EQ(weights.count(l.name + ".weight"), 1u) << l.name;
    const Parameter& w = *weights[l.name + ".weight"];
    EXPECT_EQ(conv_prefers_taps(count_nonzeros(w.value.data(), w.value.numel()),
                                l.rows, l.cols, ohw),
              taps)
        << "Conv2d " << l.name;
  }
}

TEST(ConvTapRule, OneRuleRoutesCompiledAndTrainingConvs) {
  // conv_prefers_taps is the one rule Conv2d applies per call and
  // Engine::compile freezes per conv, whatever the format or precision.
  // The serving benchmark's r18_omp90 ticket keeps its sparsest convs (86%
  // and 96% zeros) on 4x4 and 2x2 planes, where panels win: compiled at
  // 16x16, auto-formatted or all dense, each conv must carry panels, and
  // Conv2d's call on the same weight must run panels too.
  Rng omp_rng(9);
  auto r18_omp90 = make_micro_resnet18(10, omp_rng);
  omp_prune(*r18_omp90, OmpConfig{0.9f, Granularity::kElement,
                                  /*include_head=*/false});
  r18_omp90->set_training(false);
  CompileOptions options;
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "r18_omp90 dense" : "r18_omp90");
    options.force_format = dense ? std::optional(PackedFormat::kDense)
                                 : std::nullopt;
    expect_rule_routes(*r18_omp90, Engine::compile(*r18_omp90, options),
                       /*taps=*/false);
  }

  // A layerwise-98% ticket keeps every conv on the tap table, in either
  // format, fp32 and int8 alike.
  Rng lw_rng(9);
  auto lw98 = make_micro_resnet18(10, lw_rng);
  layerwise_magnitude_prune(*lw98, 0.98f, Granularity::kElement);
  lw98->set_training(false);
  for (const bool dense : {false, true}) {
    for (const bool int8 : {false, true}) {
      SCOPED_TRACE(testing::Message() << "layerwise98 dense=" << dense
                                      << " int8=" << int8);
      options.force_format = dense ? std::optional(PackedFormat::kDense)
                                   : std::nullopt;
      options.int8_weights = int8;
      expect_rule_routes(*lw98, Engine::compile(*lw98, options),
                         /*taps=*/true);
    }
  }
  options.int8_weights = false;

  // A 32x32 conv with 97% zeros is where the tap table wins (4x at c64).
  Rng rng(41);
  auto wide = make_micro_resnet18(10, rng);
  layerwise_magnitude_prune(*wide, 0.97f, Granularity::kElement);
  wide->set_training(false);
  options.force_format = PackedFormat::kDense;
  options.height = 32;
  options.width = 32;
  const CompiledTicket wide_plan = Engine::compile(*wide, options);
  const LayerPlan& first = wide_plan.layers()[1];  // stage0, 8 channels
  ASSERT_EQ(first.dense_macs / (first.rows * first.cols), 32 * 32);
  ASSERT_LE(first.nnz, (first.rows * first.cols * 3 + 99) / 100);
  EXPECT_TRUE(conv_prefers_taps(first.nnz, first.rows, first.cols, 32 * 32));
  EXPECT_EQ(first.prepacked_bytes, 0) << "runs the tap table";
  EXPECT_TRUE(conv_prefers_taps(64 * 576 * 3 / 100, 64, 576, 32 * 32));
  const Tensor x = Tensor::uniform({3, 3, 32, 32}, rng, 0.0f, 1.0f);
  Workspace ws(wide_plan, 3);
  EXPECT_LE(wide->forward(x).linf_distance(wide_plan.predict(x, ws)), 1e-4f);

  // A 16x16 c16 conv with every tenth weight kept (density 0.1003) runs
  // panels: a rule that divided the plane by the channel count sent it to
  // taps, where it ran 1.6x slower than panels.
  Rng conv_rng(43);
  Conv2d conv(16, 16, 3, 1, 1, /*with_bias=*/false, conv_rng, "c16");
  Tensor mask(conv.weight().value.shape());
  for (std::int64_t i = 0; i < mask.numel(); i += 10) mask[i] = 1.0f;
  conv.weight().set_mask(mask);
  const Tensor& w = conv.weight().value;
  EXPECT_FALSE(conv_prefers_taps(count_nonzeros(w.data(), w.numel()), 16,
                                 16 * 9, 16 * 16));
}

TEST(EngineCompile, FoldedBiasIsOneFusedMultiplyAdd) {
  // Conv + BN folding computes each channel's bias as one fused
  // multiply-add, fma(s, conv_bias - mean, beta), so a plan's bits do not
  // depend on whether the compiler contracts a multiply and an add (it does
  // so only under -march=native). With every conv weight zero, a conv
  // emits its folded bias; the last block's c2 channels then reach the
  // logits through the shortcut add (its projection folds to an exact 0),
  // GAP and an identity head, so each logit is a replayable function of
  // one folded bias. The check has teeth only where the compiler does not
  // contract, which is why the portable-ISA CI build runs it.
  Rng rng(57);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 12;
  cfg.name = "fold";
  ResNet model(cfg, rng);
  for (Parameter* p : model.parameters()) {
    if (p->kind == ParamKind::kConvWeight) p->value.fill_(0.0f);
    if (p->kind == ParamKind::kBias) p->value.fill_(0.0f);
    if (p->kind == ParamKind::kLinearWeight) {
      p->value.fill_(0.0f);
      for (std::int64_t j = 0; j < 12; ++j) p->value.data()[j * 12 + j] = 1.0f;
    }
  }
  auto* last = dynamic_cast<BasicBlock*>(
      &model.trunk_module(model.trunk_size() - 1));
  ASSERT_NE(last, nullptr);
  ASSERT_TRUE(last->has_projection());
  BatchNorm2d& bn = last->bn2();
  for (std::int64_t c = 0; c < 12; ++c) {
    bn.gamma().value[c] = rng.uniform(0.5f, 1.5f);
    bn.beta().value[c] = rng.uniform(0.5f, 1.5f);
    bn.running_mean()[c] = rng.uniform(-0.5f, 0.5f);
    bn.running_var()[c] = rng.uniform(0.5f, 2.0f);
  }
  model.set_training(false);

  CompileOptions options;
  options.height = 8;
  options.width = 8;
  const CompiledTicket plan = Engine::compile(model, options);
  Workspace ws(plan, 2);
  const Tensor logits = plan.predict(Tensor::uniform({2, 3, 8, 8}, rng, 0.0f, 1.0f), ws);
  ASSERT_EQ(logits.dim(1), 12);
  // GAP over the 4x4 plane, summed in the executor's order.
  const auto gap = [](float v) {
    float acc = 0.0f;
    for (int j = 0; j < 16; ++j) acc += v;
    return acc * (1.0f / 16.0f);
  };
  int unfused_misses = 0;
  for (std::int64_t c = 0; c < 12; ++c) {
    const float s = bn.gamma().value[c] /
                    std::sqrt(bn.running_var()[c] + bn.eps());
    const float bias = std::fma(s, 0.0f - bn.running_mean()[c],
                                bn.beta().value[c]);
    ASSERT_GT(bias, 0.0f);  // the block's ReLU passes it unchanged
    const float want = gap(bias);
    for (std::int64_t i = 0; i < 2; ++i) {
      ASSERT_EQ(logits.data()[i * 12 + c], want) << "channel " << c;
    }
    // The same bias rounded twice (volatile blocks contraction).
    volatile float product = s * (0.0f - bn.running_mean()[c]);
    if (gap(product + bn.beta().value[c]) != want) ++unfused_misses;
  }
  EXPECT_GT(unfused_misses, 0) << "no channel separates one rounding from two";
}

TEST(EngineCompile, RejectsMismatchedGeometry) {
  auto model = tiny_model(false, 81);
  Session session(Engine::compile(*model), 8);
  Rng rng(82);
  const Tensor wrong = Tensor::uniform({2, 3, 8, 8}, rng, 0.0f, 1.0f);
  EXPECT_THROW(session.predict(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace rt
