// ticket_draw: the paper's pipeline for one robust ticket — PGD adversarial
// pretraining on the source task, global one-shot magnitude pruning to 90%,
// whole-model finetuning on the cifar10 stand-in, Engine::compile, and
// evaluation. It touches nothing in the serving stack, so it is the
// "no change" control for serving optimisations (and the reverse).
//
// A draw is a fixed amount of work, about 3 s on one lane; the run repeats
// it until --seconds are used up (at least once). Throughput is training
// rows per second of each draw. The latency samples are the adversarial
// training steps (PGD-5 and one SGD step on a 32-row batch): the unit of
// the work a user waits for, and the most expensive step of the recipe.
//
// The pretraining corpus and its training order are fixed, as ImageNet is
// for the paper; --seed draws the downstream task (the user's data) and the
// finetuning order. So every seed prunes the same robust backbone and ships
// a plan with the same layer formats.

#include <cmath>
#include <cstdio>

#include "attack/attack.hpp"
#include "data/tasks.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "prune/mask.hpp"
#include "prune/omp.hpp"
#include "transfer/finetune.hpp"
#include "transfer/pretrain.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

constexpr int kSourceRows = 320;
constexpr int kPretrainEpochs = 1;
constexpr int kFinetuneRows = 400;
constexpr int kFinetuneEpochs = 1;
constexpr int kTestRows = 500;
constexpr std::uint64_t kPretrainSeed = 17;  // the fixed pretraining corpus

rt::PretrainConfig pretrain_config() {
  rt::PretrainConfig c;
  c.scheme = rt::PretrainScheme::kAdversarial;
  c.epochs = kPretrainEpochs;
  c.batch_size = 32;
  c.attack = rt::AttackConfig{0.08f, 0.02f, 5, true};  // PGD-5, eps 0.08
  return c;
}

/// rt::pretrain's adversarial loop (train_classifier with adversarial=true)
/// driven batch by batch, so each step is timed into `step_us` and PGD and
/// the SGD step are separate spans. It consumes `rng` in the same order, so
/// it trains the same weights.
void pretrain_adversarial(rt::ResNet& model, const rt::Dataset& train,
                          const rt::PretrainConfig& c, rt::Rng& rng,
                          Timeline& step_us) {
  rt::Sgd sgd(model.parameters(), c.sgd);
  const rt::MultiStepLr schedule(c.sgd.lr, {c.epochs / 2, (3 * c.epochs) / 4},
                                 0.1f);
  for (int epoch = 0; epoch < c.epochs; ++epoch) {
    sgd.set_lr(schedule.lr_at(epoch));
    for (const auto& idx :
         rt::make_batches(static_cast<int>(train.size()), c.batch_size, rng)) {
      const std::int64_t t0 = now_ns();
      Span step("train.step");
      rt::Tensor x = rt::gather_images(train.images, idx);
      const std::vector<int> y = rt::gather_labels(train.labels, idx);
      {
        Span span("attack.pgd");
        x = rt::pgd_attack(model, x, y, c.attack, rng);
      }
      Span span("nn.step");
      model.set_training(true);
      model.zero_grad();
      const rt::Tensor logits = model.forward(x);
      const rt::LossResult loss = rt::softmax_cross_entropy(logits, y);
      model.backward(loss.grad_logits);
      sgd.step();
      const std::int64_t t1 = now_ns();
      step_us.add(t1, static_cast<double>(t1 - t0) / 1e3);
    }
  }
}

struct Data {
  rt::Dataset source;
  rt::TaskData task;
};

struct Draw {
  double seconds = 0.0;
  float acc_eager = 0.0f;
  float acc_session = 0.0f;
  double sparsity = 0.0;
  std::unique_ptr<rt::ResNet> ticket;
  std::shared_ptr<const rt::CompiledTicket> plan;
};

Draw draw_ticket(const Data& data, std::uint64_t seed, Timeline& step_us) {
  Span span("draw");
  const std::int64_t t0 = now_ns();
  Draw d;
  rt::Rng init(9);
  d.ticket = rt::make_micro_resnet18(10, init);
  {
    Span pretrain("transfer.pretrain");
    rt::Rng order(kPretrainSeed, 0xD8A3);
    pretrain_adversarial(*d.ticket, data.source, pretrain_config(), order,
                         step_us);
  }
  rt::Rng rng(seed, 0xD8A3);
  {
    Span prune("prune.omp");
    rt::omp_prune(*d.ticket, rt::OmpConfig{0.9f, rt::Granularity::kElement,
                                           /*include_head=*/false});
  }
  {
    Span finetune("transfer.finetune");
    rt::FinetuneConfig fc;
    fc.epochs = kFinetuneEpochs;
    fc.batch_size = 32;
    d.acc_eager = rt::finetune_whole_model(*d.ticket, data.task, fc, rng);
  }
  d.sparsity = rt::model_sparsity(d.ticket->prunable_parameters());
  {
    Span compile("engine.compile");
    d.plan = std::make_shared<const rt::CompiledTicket>(
        rt::Engine::compile(*d.ticket));
  }
  rt::Tensor logits;
  {
    Span predict("engine.predict");
    logits = rt::Session(d.plan, 64).predict(data.task.test.images);
  }
  const std::vector<int> predicted = rt::argmax_rows(logits);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == data.task.test.labels[i]) ++correct;
  }
  d.acc_session = static_cast<float>(correct) / static_cast<float>(kTestRows);
  d.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return d;
}

}  // namespace

Outcome run_ticket_draw(const Args& args) {
  Outcome out;
  const std::uint64_t seed = args.seed;
  auto data = setup(args, [&] {
    auto d = std::make_unique<Data>();
    d->source = rt::generate_dataset(rt::source_task_spec(), kSourceRows,
                                     kPretrainSeed);
    d->task.spec = rt::task_spec("cifar10");
    d->task.train =
        rt::generate_dataset(d->task.spec, kFinetuneRows, seed * 2 + 1);
    d->task.test = rt::generate_dataset(d->task.spec, kTestRows, seed * 2 + 2);
    return d;
  });

  constexpr double kRowsPerDraw = kPretrainEpochs * kSourceRows +
                                  kFinetuneEpochs * kFinetuneRows;
  std::vector<double> draw_s;
  Draw last;
  const std::int64_t start = now_ns();
  for (;;) {
    // Released first, so peak_rss_mb is one draw's whatever the draw count.
    last = Draw{};
    last = draw_ticket(*data, seed, out.latency_us);
    ++out.attempted;
    // The ticket must be the 90% one asked for, and the compiled plan must
    // classify like the eager model: summation order differs between the
    // two, so one borderline test sample may flip, never more.
    const bool ok =
        std::fabs(last.sparsity - 0.9) <= 1e-3 &&
        std::fabs(last.acc_session - last.acc_eager) * kTestRows <= 1.0 + 1e-3;
    if (ok) {
      out.completed_rows.add(now_ns(), kRowsPerDraw);
    } else {
      ++out.failed;
    }
    draw_s.push_back(last.seconds);

    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (elapsed + median(draw_s) > args.seconds) break;
  }
  out.peak_rss_mib = peak_rss_mib();
  out.latency_start_ns = out.rate_start_ns = start;
  out.latency_end_ns = out.rate_end_ns = now_ns();

  char line[256];
  std::snprintf(line, sizeof(line),
                "draws %zu, draw_s median %.3f; ticket_acc %.4f (eager %.4f), "
                "sparsity %.5f",
                draw_s.size(), median(draw_s), last.acc_session,
                last.acc_eager, last.sparsity);
  out.notes.push_back(line);

  if (args.trace) {
    ProbeInputs in;
    in.model = last.ticket.get();
    in.model_v2 = last.ticket.get();
    in.server.max_batch = 64;  // make_eval_server's bulk-evaluation settings
    in.server.max_delay_ms = 0.0;
    in.plan = last.plan;
    in.rows_per_request = 1;
    in.depth = 1;
    const Data* d = data.get();
    in.row = [d](std::uint64_t i, float* o) {
      const float* t =
          d->task.test.images.data() + (i % kTestRows) * kRowFloats;
      std::copy(t, t + kRowFloats, o);
    };
    for (std::uint64_t k = 0; k < kTestRows; ++k) in.keys.push_back(k);
    probe_layers(in, out.per_layer);
  }
  return out;
}

}  // namespace e2e
