// bitprint: prints XXH64 digests (common/hash) of the bits this build
// computes, one "<name> <16 hex digits>" line each, so two builds can be
// compared with diff. Bits must depend only on the inputs and the plan —
// not on the ISA flags, the micro-tile width or the lane count — so a build
// with -march=native and a build with other -march flags (or another
// commit) must print the same lines.
//
// What it digests, in order:
//   dataset.*        synthetic datasets (source, a downstream task, OoD)
//   params.pretrain  micro-r18 after 3 PGD-5 adversarial SGD steps
//   params.omp90     after global one-shot magnitude pruning to 90%
//   params.finetune  after 2 whole-model finetuning steps
//   logits.fp32.bN   Session logits of the compiled ticket at batch N
//   logits.int8.bN   the same for the int8-native plan
//
// Build: the `bitprint` target (CMakeLists.txt). Run: ./build/bitprint
// (takes about a second). The CI job builds it natively and with
// -DRT_MARCH_NATIVE=OFF -DCMAKE_CXX_FLAGS=-march=x86-64-v3, which pits
// 16-lane fp32 tiles against 8-lane ones on an AVX-512 host, and diffs the
// two outputs.

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "attack/attack.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/checkpoint_store.hpp"
#include "data/synth.hpp"
#include "data/tasks.hpp"
#include "engine/engine.hpp"
#include "models/resnet.hpp"
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
  return 0;
}
