// bitprint: prints XXH64 digests (common/hash) of the bits this build
// computes, one "<name> <16 hex digits>" line each, so two builds can be
// compared with diff. Bits must depend only on the inputs and the plan —
// not on the ISA flags, the micro-tile width or the lane count — so a build
// with -march=native and a build with other -march flags (or another
// commit) must print the same lines.
//
// What it digests, in order:
//   dataset.*        synthetic datasets (source, a downstream task, OoD)
//   rng.*            streams of Rng::uniform(lo, hi) and Rng::normal(mean,
//                    stddev), each one fused multiply-add per draw
//   params.pretrain  micro-r18 after 3 PGD-5 adversarial SGD steps
//   params.omp90     after global one-shot magnitude pruning to 90%
//   params.finetune  after 2 whole-model finetuning steps
//   logits.fp32.bN   Session logits of the compiled ticket at batch N
//   logits.int8.bN   the same for the int8-native plan
//   int8.<plan>.bN   int8-native Session logits of five untrained plans
//                    with randomized BN statistics (so every folded bias is
//                    nonzero): micro-r18 dense, OMP-90%, layerwise-98% and
//                    70%-channel, and micro-r50 dense
//   fp32.<plan>.bN   fp32 Session logits of the same five plans; every conv
//                    of the layerwise-98% plan runs the fp32 tap table
//
// Build: the `bitprint` target (CMakeLists.txt). Run: ./build/bitprint
// (takes about a second). The CI job builds it natively and with
// -DRT_MARCH_NATIVE=OFF -DCMAKE_CXX_FLAGS=-march=x86-64-v3, which pits
// 16-lane fp32 tiles against 8-lane ones on an AVX-512 host, and diffs the
// two outputs. A portable build (-DRT_MARCH_NATIVE=OFF, no FMA in its fp32
// kernels) trains different tickets, so only its dataset.*, rng.* and
// int8.* lines, which involve no fp32 training, must match too; its fp32.*
// lines differ because its fp32 kernels round each product on its own.
//
// tools/bitprint/expected.txt holds those dataset.*, rng.* and int8.* lines
// as every build must print them, and CI diffs both the native and the
// portable build against it, so a change that moves them on every build at
// once fails as well. A change that moves them on purpose regenerates it
// by keeping exactly those lines of ./build/bitprint's output, in order.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/attack.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/checkpoint_store.hpp"
#include "data/synth.hpp"
#include "data/tasks.hpp"
#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "prune/baselines.hpp"
#include "prune/omp.hpp"
#include "transfer/finetune.hpp"
#include "transfer/pretrain.hpp"

namespace {

void print(const char* name, std::uint64_t digest) {
  std::printf("%-22s %016" PRIx64 "\n", name, digest);
}

std::uint64_t tensor_digest(const rt::Tensor& t) {
  return rt::hash64(t.data(),
                    static_cast<std::size_t>(t.numel()) * sizeof(float));
}

std::uint64_t floats_digest(const std::vector<float>& v) {
  return rt::hash64(v.data(), v.size() * sizeof(float));
}

/// Draws every BN layer's gamma, beta, running mean and running variance
/// at random, so the compiled plan folds a nonzero bias into every conv.
void randomize_bn(rt::ResNet& model, rt::Rng& rng) {
  for (rt::Parameter* p : model.parameters()) {
    if (p->kind != rt::ParamKind::kBnGamma &&
        p->kind != rt::ParamKind::kBnBeta) {
      continue;
    }
    const bool gamma = p->kind == rt::ParamKind::kBnGamma;
    for (std::int64_t c = 0; c < p->value.numel(); ++c) {
      p->value[c] = gamma ? rng.uniform(0.5f, 1.5f) : rng.uniform(-0.5f, 0.5f);
    }
  }
  std::vector<rt::Module::NamedTensor> buffers;
  model.collect_buffers(buffers);
  for (auto& [name, t] : buffers) {
    const bool var = name.ends_with(".running_var");
    for (std::int64_t c = 0; c < t->numel(); ++c) {
      (*t)[c] = var ? rng.uniform(0.5f, 2.0f) : rng.uniform(-0.5f, 0.5f);
    }
  }
  model.set_training(false);
}

}  // namespace

int main() {
  const rt::SynthTaskSpec source_spec = rt::source_task_spec();
  print("dataset.source", rt::dataset_fingerprint(
                              rt::generate_dataset(source_spec, 64, 7)));
  const rt::TaskData task = rt::load_task("cifar10", 64, 67);
  print("dataset.cifar10.train", rt::dataset_fingerprint(task.train));
  print("dataset.cifar10.test", rt::dataset_fingerprint(task.test));
  print("dataset.ood",
        rt::dataset_fingerprint(rt::generate_ood_dataset(32, 5)));

  rt::Rng draws(21);
  std::vector<float> stream(4096);
  for (float& v : stream) v = draws.uniform(3.5f, 5.0f);
  print("rng.uniform", floats_digest(stream));
  for (float& v : stream) v = draws.normal(0.3f, 0.7f);
  print("rng.normal", floats_digest(stream));

  rt::Rng init(9);
  const std::unique_ptr<rt::ResNet> model = rt::make_micro_resnet18(10, init);
  rt::PretrainConfig pc;
  pc.scheme = rt::PretrainScheme::kAdversarial;
  pc.epochs = 1;
  pc.batch_size = 32;
  pc.attack = rt::AttackConfig{0.08f, 0.02f, 5, true};  // PGD-5, eps 0.08
  rt::Rng order(17, 0xD8A3);
  rt::pretrain(*model, rt::generate_dataset(source_spec, 96, 17), pc, order);
  print("params.pretrain", rt::state_dict_fingerprint(model->state_dict()));

  rt::omp_prune(*model, rt::OmpConfig{0.9f, rt::Granularity::kElement,
                                      /*include_head=*/false});
  print("params.omp90", rt::state_dict_fingerprint(model->state_dict()));

  rt::FinetuneConfig fc;
  fc.epochs = 1;
  fc.batch_size = 32;
  rt::Rng finetune_order(3, 0xD8A3);
  rt::finetune_whole_model(*model, task, fc, finetune_order);
  print("params.finetune", rt::state_dict_fingerprint(model->state_dict()));

  rt::CompileOptions int8;
  int8.int8_weights = true;
  const auto fp32_plan =
      std::make_shared<const rt::CompiledTicket>(rt::Engine::compile(*model));
  const auto int8_plan = std::make_shared<const rt::CompiledTicket>(
      rt::Engine::compile(*model, int8));
  char name[32];
  for (const int batch : {1, 16, 64}) {
    std::snprintf(name, sizeof(name), "logits.fp32.b%d", batch);
    print(name, tensor_digest(rt::Session(fp32_plan, batch)
                                  .predict(task.test.images)));
    std::snprintf(name, sizeof(name), "logits.int8.b%d", batch);
    print(name, tensor_digest(rt::Session(int8_plan, batch)
                                  .predict(task.test.images)));
  }

  std::vector<std::pair<const char*, std::unique_ptr<rt::ResNet>>> plans;
  for (const char* plan : {"r18_dense", "r18_omp90", "r18_lw98", "r18_chan70"}) {
    rt::Rng weights(9);
    plans.emplace_back(plan, rt::make_micro_resnet18(10, weights));
  }
  rt::omp_prune(*plans[1].second, rt::OmpConfig{0.9f, rt::Granularity::kElement,
                                                /*include_head=*/false});
  rt::layerwise_magnitude_prune(*plans[2].second, 0.98f,
                                rt::Granularity::kElement);
  rt::omp_prune(*plans[3].second, rt::OmpConfig{0.7f, rt::Granularity::kChannel,
                                                /*include_head=*/false});
  rt::Rng r50_weights(9);
  plans.emplace_back("r50_dense", rt::make_micro_resnet50(10, r50_weights));
  rt::Rng bn(5);
  for (auto& [plan_name, net] : plans) {
    randomize_bn(*net, bn);
    const auto plan = std::make_shared<const rt::CompiledTicket>(
        rt::Engine::compile(*net, int8));
    const auto fp32 = std::make_shared<const rt::CompiledTicket>(
        rt::Engine::compile(*net));
    for (const int batch : {1, 16, 64}) {
      std::snprintf(name, sizeof(name), "int8.%s.b%d", plan_name, batch);
      print(name, tensor_digest(rt::Session(plan, batch)
                                    .predict(task.test.images)));
    }
    for (const int batch : {1, 16, 64}) {
      std::snprintf(name, sizeof(name), "fp32.%s.b%d", plan_name, batch);
      print(name, tensor_digest(rt::Session(fp32, batch)
                                    .predict(task.test.images)));
    }
  }
  return 0;
}
