#include "train/loop.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "attack/trades.hpp"
#include "common/scheduler.hpp"
#include "nn/loss.hpp"

namespace rt {

TrainStats train_classifier(Module& model, std::vector<Parameter*> params,
                            const Dataset& train, const TrainLoopConfig& config,
                            Rng& rng) {
  Sgd sgd(std::move(params), config.sgd);
  const MultiStepLr schedule(config.sgd.lr, config.lr_milestones,
                             config.lr_gamma);
  const int n = static_cast<int>(train.size());
  TrainStats stats;
  FreePerturbation free_delta(config.attack.epsilon);
  const TradesConfig trades{config.trades_beta, config.attack};

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    sgd.set_lr(schedule.lr_at(epoch));
    double loss_acc = 0.0;
    std::int64_t correct = 0;
    const auto batches = make_batches(n, config.batch_size, rng);
    for (const auto& idx : batches) {
      Tensor x = gather_images(train.images, idx);
      const std::vector<int> y = gather_labels(train.labels, idx);
      if (config.augment.enabled()) {
        x = augment_batch(x, config.augment, rng);
      }

      float batch_loss = 0.0f;
      Tensor logits;
      if (config.adversarial) {
        x = pgd_attack(model, x, y, config.attack, rng);
      } else if (config.gaussian_sigma > 0.0f) {
        x = gaussian_augment(x, config.gaussian_sigma, rng);
      }

      if (config.trades_beta > 0.0f) {
        model.zero_grad();
        const TradesStepResult step = trades_step(model, x, y, trades, rng);
        sgd.step();
        batch_loss = step.loss;
        logits = step.clean_logits;
      } else if (config.free_replays > 1) {
        // Free-AT: replay the batch, recycling the input gradient of each
        // step to advance a persistent perturbation.
        model.set_training(true);
        for (int r = 0; r < config.free_replays; ++r) {
          const Tensor x_adv = free_delta.apply(x);
          model.zero_grad();
          logits = model.forward(x_adv);
          const LossResult loss = softmax_cross_entropy(logits, y);
          const Tensor input_grad = model.backward(loss.grad_logits);
          sgd.step();
          free_delta.update(input_grad);
          batch_loss = loss.loss;
        }
      } else {
        model.set_training(true);
        model.zero_grad();
        logits = model.forward(x);
        const LossResult loss = softmax_cross_entropy(logits, y);
        model.backward(loss.grad_logits);
        sgd.step();
        batch_loss = loss.loss;
      }

      loss_acc +=
          static_cast<double>(batch_loss) * static_cast<double>(idx.size());
      const auto pred = argmax_rows(logits);
      for (std::size_t i = 0; i < pred.size(); ++i) {
        if (pred[i] == y[i]) ++correct;
      }
    }
    stats.final_loss = static_cast<float>(loss_acc / n);
    stats.final_train_accuracy =
        static_cast<float>(correct) / static_cast<float>(n);
    if (config.verbose) {
      std::printf("  epoch %2d  lr %.4f  loss %.4f  acc %.4f\n", epoch,
                  sgd.lr(), stats.final_loss, stats.final_train_accuracy);
    }
  }
  return stats;
}

TrainStats train_classifier(Module& model, const Dataset& train,
                            const TrainLoopConfig& config, Rng& rng) {
  return train_classifier(model, model.parameters(), train, config, rng);
}

namespace {

std::int64_t count_correct(const std::vector<int>& pred,
                           const std::vector<int>& labels) {
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == labels[i]) ++correct;
  }
  return correct;
}

}  // namespace

float evaluate_accuracy(Session& session, const Dataset& test) {
  const auto n = static_cast<std::int64_t>(test.size());
  if (n <= 0) return 0.0f;
  // A shared-scheduler session already splits one whole-dataset predict into
  // max_batch chunk tasks with zero copies — use it directly. Same for a
  // single-lane scheduler, where sharding would pay gather copies for no
  // parallelism.
  if (session.shared_scheduler() ||
      Scheduler::current().num_threads() == 1) {
    const std::vector<int> pred = session.classify(test.images);
    return static_cast<float>(count_correct(pred, test.labels)) /
           static_cast<float>(test.size());
  }
  // Flat session on a multi-lane scheduler: shard the dataset into one task
  // per max_batch chunk ourselves (Session::predict is thread-safe; each
  // shard checks out its own workspace), gathering each shard into a
  // sub-batch tensor. Shard boundaries are fixed by max_batch and each
  // correct-count lands in its own slot before the serial sum, so the
  // result is independent of scheduling.
  const std::int64_t chunk = session.max_batch();
  const std::int64_t shards = (n + chunk - 1) / chunk;
  std::vector<std::int64_t> correct(static_cast<std::size_t>(shards), 0);
  Scheduler::current().parallel_for(
      shards,
      [&](std::int64_t s0, std::int64_t s1) {
        for (std::int64_t s = s0; s < s1; ++s) {
          const std::int64_t begin = s * chunk;
          const std::int64_t end = std::min<std::int64_t>(n, begin + chunk);
          const Tensor x = test.images.slice_rows(begin, end - begin);
          const std::vector<int> pred = session.classify(x);
          std::int64_t hits = 0;
          for (std::size_t i = 0; i < pred.size(); ++i) {
            if (pred[i] == test.labels[static_cast<std::size_t>(begin) + i]) {
              ++hits;
            }
          }
          correct[static_cast<std::size_t>(s)] = hits;
        }
      },
      /*grain=*/1);
  std::int64_t total = 0;
  for (const std::int64_t c : correct) total += c;
  return static_cast<float>(total) / static_cast<float>(test.size());
}

Tensor predict_probabilities(Session& session, const Dataset& data) {
  return session.predict_probabilities(data.images);
}

namespace {

/// Serves a whole (N, C, H, W) image batch through the front-end. Fitting
/// requests go out as one submission — the coalescer splits it into
/// max_batch-row micro-batches (the same chunk boundaries the Session
/// overload uses) round-robined across the shards; larger datasets are
/// served in blocking waves sized to half the admission bound. For bulk
/// evaluation ServerOverloaded is backpressure, not failure: a wave that
/// bounces (the server is shared with live traffic, or the dataset exceeds
/// the bound) is retried until the fleet has headroom, preserving the
/// Session overloads' any-size contract.
Tensor predict_dataset(serving::Server& server, const Tensor& images) {
  const std::int64_t n = images.dim(0);
  const std::int64_t wave =
      std::max<std::int64_t>(1, server.options().queue_capacity_rows / 2);
  const std::int64_t classes = server.shard_plan(0).num_classes();
  Tensor logits({n, classes});
  for (std::int64_t begin = 0; begin < n; begin += wave) {
    const std::int64_t rows = std::min(wave, n - begin);
    for (;;) {
      try {
        // Sliced (or copied, for the whole-set case) per attempt: predict()
        // consumes its argument even when the future carries the rejection.
        const Tensor part =
            server.predict(rows == n ? Tensor(images)
                                     : images.slice_rows(begin, rows));
        std::copy(part.data(), part.data() + part.numel(),
                  logits.data() + begin * classes);
        break;
      } catch (const serving::ServerOverloaded&) {
        // Poll for headroom before re-gathering: slicing the wave again is
        // a full copy, not worth paying while the fleet is saturated.
        while (server.stats().queued_rows + rows >
               server.options().queue_capacity_rows) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
  }
  return logits;
}

}  // namespace

float evaluate_accuracy(serving::Server& server, const Dataset& test) {
  const auto n = static_cast<std::int64_t>(test.size());
  if (n <= 0) return 0.0f;
  const Tensor logits = predict_dataset(server, test.images);
  const std::vector<int> pred = argmax_rows(logits);
  return static_cast<float>(count_correct(pred, test.labels)) /
         static_cast<float>(test.size());
}

Tensor predict_probabilities(serving::Server& server, const Dataset& data) {
  return softmax(predict_dataset(server, data.images));
}

Session make_eval_session(const ResNet& model, const Dataset& data,
                          int batch_size) {
  CompileOptions options;
  options.height = data.images.dim(2);
  options.width = data.images.dim(3);
  // Evaluation is read-only bulk work: let concurrent predict() calls and
  // oversized batches chunk across the shared scheduler.
  SessionOptions session_options;
  session_options.max_batch = batch_size;
  session_options.shared_scheduler = true;
  return Session(Engine::compile(model, options), session_options);
}

serving::Server make_eval_server(const ResNet& model, const Dataset& data,
                                 int batch_size, int shards) {
  CompileOptions options;
  options.height = data.images.dim(2);
  options.width = data.images.dim(3);
  serving::ServerOptions server_options;
  server_options.shards = shards;
  server_options.max_batch = batch_size;
  // Bulk evaluation: dispatch whatever has arrived, and admit requests as
  // large as several passes over the dataset.
  server_options.max_delay_ms = 0.0;
  server_options.queue_capacity_rows = std::max<std::int64_t>(
      4096, 4 * static_cast<std::int64_t>(data.size()));
  return serving::Server(Engine::compile(model, options), server_options);
}

float evaluate_accuracy(Module& model, const Dataset& test, int batch_size) {
  const bool was_training = model.training();
  model.set_training(false);
  std::int64_t correct = 0;
  for (const auto& idx :
       make_eval_batches(static_cast<int>(test.size()), batch_size)) {
    const Tensor x = gather_images(test.images, idx);
    const std::vector<int> y = gather_labels(test.labels, idx);
    const Tensor logits = model.forward(x);
    const auto pred = argmax_rows(logits);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] == y[i]) ++correct;
    }
  }
  model.set_training(was_training);
  return static_cast<float>(correct) / static_cast<float>(test.size());
}

Tensor predict_probabilities(Module& model, const Dataset& data,
                             int batch_size) {
  const bool was_training = model.training();
  model.set_training(false);
  Tensor probs;
  std::int64_t row = 0;
  for (const auto& idx :
       make_eval_batches(static_cast<int>(data.size()), batch_size)) {
    const Tensor x = gather_images(data.images, idx);
    const Tensor p = softmax(model.forward(x));
    if (probs.empty()) probs = Tensor({data.size(), p.dim(1)});
    for (std::int64_t i = 0; i < p.dim(0); ++i, ++row) {
      for (std::int64_t j = 0; j < p.dim(1); ++j) {
        probs.at(row, j) = p.at(i, j);
      }
    }
  }
  model.set_training(was_training);
  return probs;
}

float evaluate_adversarial_accuracy(Module& model, const Dataset& test,
                                    const AttackConfig& attack, Rng& rng,
                                    int batch_size) {
  const bool was_training = model.training();
  model.set_training(false);
  std::int64_t correct = 0;
  for (const auto& idx :
       make_eval_batches(static_cast<int>(test.size()), batch_size)) {
    const Tensor x = gather_images(test.images, idx);
    const std::vector<int> y = gather_labels(test.labels, idx);
    const Tensor adv = pgd_attack(model, x, y, attack, rng);
    const Tensor logits = model.forward(adv);
    const auto pred = argmax_rows(logits);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] == y[i]) ++correct;
    }
  }
  model.set_training(was_training);
  return static_cast<float>(correct) / static_cast<float>(test.size());
}

}  // namespace rt
