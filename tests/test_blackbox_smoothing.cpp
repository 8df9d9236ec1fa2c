// Tests for black-box / enhanced attacks and randomized-smoothing
// certification.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "attack/blackbox.hpp"
#include "attack/smoothing.hpp"
#include "data/synth.hpp"
#include "models/resnet.hpp"
#include "nn/loss.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

class BlackboxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1);
    model_ = make_micro_resnet18(10, rng);
    const Dataset train = generate_dataset(source_task_spec(), 120, 3);
    TrainLoopConfig cfg;
    cfg.epochs = 4;
    Rng trng(2);
    train_classifier(*model_, train, cfg, trng);
    model_->set_training(false);
    const Dataset test = generate_dataset(source_task_spec(), 40, 5);
    x_ = gather_images(test.images, {0, 1, 2, 3, 4, 5});
    y_ = gather_labels(test.labels, {0, 1, 2, 3, 4, 5});
  }

  std::unique_ptr<ResNet> model_;
  Tensor x_;
  std::vector<int> y_;
};

TEST_F(BlackboxTest, SquareAttackRespectsBall) {
  SquareAttackConfig cfg;
  cfg.epsilon = 0.06f;
  cfg.queries = 30;
  Rng rng(7);
  const Tensor adv = square_attack(*model_, x_, y_, cfg, rng);
  EXPECT_LE(adv.linf_distance(x_), cfg.epsilon + 1e-5f);
  EXPECT_GE(adv.min(), 0.0f);
  EXPECT_LE(adv.max(), 1.0f);
}

TEST_F(BlackboxTest, SquareAttackIncreasesLoss) {
  SquareAttackConfig cfg;
  cfg.epsilon = 0.08f;
  cfg.queries = 60;
  Rng rng(8);
  const float clean = softmax_cross_entropy(model_->forward(x_), y_).loss;
  const Tensor adv = square_attack(*model_, x_, y_, cfg, rng);
  const float attacked = softmax_cross_entropy(model_->forward(adv), y_).loss;
  EXPECT_GT(attacked, clean);
}

TEST_F(BlackboxTest, SquareAttackMonotoneInQueries) {
  // More queries can only improve (per-sample best is kept).
  SquareAttackConfig small;
  small.epsilon = 0.08f;
  small.queries = 10;
  SquareAttackConfig big = small;
  big.queries = 80;
  Rng r1(9), r2(9);
  const Tensor adv_small = square_attack(*model_, x_, y_, small, r1);
  const Tensor adv_big = square_attack(*model_, x_, y_, big, r2);
  const float l_small =
      softmax_cross_entropy(model_->forward(adv_small), y_).loss;
  const float l_big = softmax_cross_entropy(model_->forward(adv_big), y_).loss;
  EXPECT_GE(l_big, l_small - 1e-4f);
}

TEST_F(BlackboxTest, MomentumPgdRespectsBallAndIncreasesLoss) {
  MomentumPgdConfig cfg;
  cfg.epsilon = 0.06f;
  cfg.steps = 6;
  Rng rng(10);
  const float clean = softmax_cross_entropy(model_->forward(x_), y_).loss;
  const Tensor adv = momentum_pgd_attack(*model_, x_, y_, cfg, rng);
  EXPECT_LE(adv.linf_distance(x_), cfg.epsilon + 1e-5f);
  const float attacked = softmax_cross_entropy(model_->forward(adv), y_).loss;
  EXPECT_GT(attacked, clean);
}

TEST_F(BlackboxTest, TargetedPgdMovesTowardsTarget) {
  // Target = (label + 1) mod 10 for every sample.
  std::vector<int> targets(y_.size());
  for (std::size_t i = 0; i < y_.size(); ++i) targets[i] = (y_[i] + 1) % 10;
  AttackConfig cfg;
  cfg.epsilon = 0.1f;
  cfg.steps = 10;
  cfg.step_size = 0.03f;
  Rng rng(11);
  const float before =
      softmax_cross_entropy(model_->forward(x_), targets).loss;
  const Tensor adv = targeted_pgd_attack(*model_, x_, targets, cfg, rng);
  const float after =
      softmax_cross_entropy(model_->forward(adv), targets).loss;
  EXPECT_LT(after, before) << "targeted attack failed to reduce target loss";
  EXPECT_LE(adv.linf_distance(x_), cfg.epsilon + 1e-5f);
}

TEST_F(BlackboxTest, GradientAttacksRestoreStateWhenForwardThrows) {
  // One input channel instead of three: the stem conv throws mid-attack.
  Rng rng(12);
  const Tensor bad =
      Tensor::uniform({2, 1, x_.dim(2), x_.dim(3)}, rng, 0.0f, 1.0f);
  const std::vector<int> labels = {0, 1};
  const std::vector<Parameter*> params = model_->parameters();
  params[0]->trainable = false;
  auto expect_restored = [&](const char* attack) {
    EXPECT_TRUE(model_->training()) << attack;
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(params[i]->trainable, i != 0) << attack << ": "
                                              << params[i]->name;
      EXPECT_EQ(params[i]->grad.sum_sq(), 0.0f) << attack << ": "
                                                << params[i]->name;
    }
  };
  model_->set_training(true);
  EXPECT_THROW(momentum_pgd_attack(*model_, bad, labels, MomentumPgdConfig{},
                                   rng),
               std::invalid_argument);
  expect_restored("momentum_pgd_attack");
  EXPECT_THROW(targeted_pgd_attack(*model_, bad, labels, AttackConfig{}, rng),
               std::invalid_argument);
  expect_restored("targeted_pgd_attack");
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-4);
  EXPECT_NEAR(normal_quantile(0.8413447), 1.0, 1e-4);
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

TEST(BinomialLowerBound, BasicProperties) {
  // Bound is below the empirical proportion and monotone in successes.
  const double b1 = binomial_lower_bound(90, 100, 0.05f);
  EXPECT_LT(b1, 0.9);
  EXPECT_GT(b1, 0.8);
  EXPECT_GT(binomial_lower_bound(95, 100, 0.05f), b1);
  // More trials at the same rate tighten the bound.
  EXPECT_GT(binomial_lower_bound(900, 1000, 0.05f), b1);
  EXPECT_EQ(binomial_lower_bound(0, 100, 0.05f), 0.0);
  EXPECT_THROW(binomial_lower_bound(5, 0, 0.05f), std::invalid_argument);
  EXPECT_THROW(binomial_lower_bound(11, 10, 0.05f), std::invalid_argument);
}

TEST(Smoothing, PredictMatchesArgmaxOnConfidentModel) {
  // A model trained to high accuracy should keep its predictions under
  // small smoothing noise.
  Rng rng(12);
  auto model = make_micro_resnet18(10, rng);
  const Dataset train = generate_dataset(source_task_spec(), 150, 13);
  TrainLoopConfig cfg;
  cfg.epochs = 6;
  Rng trng(14);
  train_classifier(*model, train, cfg, trng);
  model->set_training(false);

  const Dataset test = generate_dataset(source_task_spec(), 24, 15);
  SmoothingConfig smooth;
  smooth.sigma = 0.05f;
  smooth.samples = 24;
  Rng srng(16);
  const auto smoothed = smoothed_predict(*model, test.images, smooth, srng);
  const Tensor logits = model->forward(test.images);
  const auto plain = argmax_rows(logits);
  int agree = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (plain[i] == smoothed[i]) ++agree;
  }
  EXPECT_GE(agree, static_cast<int>(plain.size()) * 3 / 4);
}

TEST(Smoothing, CertifiedRadiusPositiveOnlyWhenConfident) {
  Rng rng(17);
  auto model = make_micro_resnet18(10, rng);
  const Dataset train = generate_dataset(source_task_spec(), 150, 18);
  TrainLoopConfig cfg;
  cfg.epochs = 6;
  cfg.gaussian_sigma = 0.1f;  // train with noise so certification is possible
  Rng trng(19);
  train_classifier(*model, train, cfg, trng);
  model->set_training(false);

  const Dataset test = generate_dataset(source_task_spec(), 16, 20);
  SmoothingConfig smooth;
  smooth.sigma = 0.1f;
  smooth.samples = 48;
  Rng srng(21);
  const auto certs = smoothed_certify(*model, test.images, smooth, srng);
  int certified = 0;
  for (const auto& cp : certs) {
    if (cp.predicted_class >= 0) {
      EXPECT_GT(cp.radius, 0.0f);
      EXPECT_GT(cp.top_probability_lower_bound, 0.5f);
      ++certified;
    } else {
      EXPECT_EQ(cp.radius, 0.0f);
    }
  }
  // A noise-trained model on its own clean data certifies most inputs.
  EXPECT_GE(certified, 8);
}

}  // namespace
}  // namespace rt
