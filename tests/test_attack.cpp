// Tests for FGSM / PGD attacks and Gaussian augmentation: constraint
// satisfaction, effectiveness, and mode/grad hygiene.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "attack/attack.hpp"
#include "attack/trades.hpp"
#include "data/synth.hpp"
#include "models/resnet.hpp"
#include "nn/loss.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

class AttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1);
    model_ = make_micro_resnet18(10, rng);
    // Briefly train so gradients point somewhere meaningful.
    const Dataset train = generate_dataset(source_task_spec(), 120, 3);
    TrainLoopConfig cfg;
    cfg.epochs = 4;
    cfg.sgd.lr = 0.05f;
    Rng trng(2);
    train_classifier(*model_, train, cfg, trng);
    test_ = generate_dataset(source_task_spec(), 80, 5);
    x_ = gather_images(test_.images, {0, 1, 2, 3, 4, 5, 6, 7});
    y_ = gather_labels(test_.labels, {0, 1, 2, 3, 4, 5, 6, 7});
  }

  std::unique_ptr<ResNet> model_;
  Dataset test_;
  Tensor x_;
  std::vector<int> y_;
};

TEST_F(AttackTest, PgdStaysInEpsilonBall) {
  AttackConfig cfg;
  cfg.epsilon = 0.05f;
  cfg.steps = 5;
  Rng rng(3);
  const Tensor adv = pgd_attack(*model_, x_, y_, cfg, rng);
  EXPECT_LE(adv.linf_distance(x_), cfg.epsilon + 1e-5f);
  EXPECT_GE(adv.min(), 0.0f);
  EXPECT_LE(adv.max(), 1.0f);
}

TEST_F(AttackTest, FgsmStaysInEpsilonBall) {
  const Tensor adv = fgsm_attack(*model_, x_, y_, 0.03f);
  EXPECT_LE(adv.linf_distance(x_), 0.03f + 1e-5f);
  EXPECT_GE(adv.min(), 0.0f);
  EXPECT_LE(adv.max(), 1.0f);
}

TEST_F(AttackTest, PgdIncreasesLoss) {
  model_->set_training(false);
  const float clean_loss =
      softmax_cross_entropy(model_->forward(x_), y_).loss;
  AttackConfig cfg;
  cfg.epsilon = 0.08f;
  cfg.steps = 7;
  Rng rng(4);
  const Tensor adv = pgd_attack(*model_, x_, y_, cfg, rng);
  const float adv_loss = softmax_cross_entropy(model_->forward(adv), y_).loss;
  EXPECT_GT(adv_loss, clean_loss);
}

TEST_F(AttackTest, PgdStrongerThanFgsmAndRandom) {
  model_->set_training(false);
  Rng rng(5);
  AttackConfig pgd_cfg;
  pgd_cfg.epsilon = 0.08f;
  pgd_cfg.steps = 10;
  const Tensor adv_pgd = pgd_attack(*model_, x_, y_, pgd_cfg, rng);
  const Tensor adv_fgsm = fgsm_attack(*model_, x_, y_, 0.08f);
  const Tensor adv_rand = random_noise_attack(x_, 0.08f, rng);
  const float l_pgd = softmax_cross_entropy(model_->forward(adv_pgd), y_).loss;
  const float l_fgsm =
      softmax_cross_entropy(model_->forward(adv_fgsm), y_).loss;
  const float l_rand =
      softmax_cross_entropy(model_->forward(adv_rand), y_).loss;
  EXPECT_GE(l_pgd, l_fgsm - 1e-3f);
  EXPECT_GT(l_fgsm, l_rand);
}

TEST_F(AttackTest, RestoresModeAndClearsGradients) {
  model_->set_training(true);
  AttackConfig cfg;
  Rng rng(6);
  pgd_attack(*model_, x_, y_, cfg, rng);
  EXPECT_TRUE(model_->training());
  for (Parameter* p : model_->parameters()) {
    EXPECT_FLOAT_EQ(p->grad.sum_sq(), 0.0f) << p->name;
  }
  model_->set_training(false);
  fgsm_attack(*model_, x_, y_, 0.02f);
  EXPECT_FALSE(model_->training());
}

/// PGD exactly as pgd_attack runs it, but with every parameter left
/// trainable, so each step's backward also computes the weight gradients.
Tensor reference_pgd(Module& model, const Tensor& x, const std::vector<int>& y,
                     const AttackConfig& config, Rng& rng) {
  const bool was_training = model.training();
  model.set_training(false);
  Tensor adv = x;
  if (config.random_start) {
    for (std::int64_t i = 0; i < adv.numel(); ++i) {
      adv[i] += rng.uniform(-config.epsilon, config.epsilon);
    }
    adv.clamp_(0.0f, 1.0f);
  }
  for (int step = 0; step < config.steps; ++step) {
    const LossResult loss = softmax_cross_entropy(model.forward(adv), y);
    Tensor g = model.backward(loss.grad_logits);
    g.sign_();
    adv.axpy_(config.step_size, g);
    for (std::int64_t i = 0; i < adv.numel(); ++i) {
      adv[i] = std::clamp(adv[i], x[i] - config.epsilon, x[i] + config.epsilon);
    }
    adv.clamp_(0.0f, 1.0f);
  }
  model.zero_grad();
  model.set_training(was_training);
  return adv;
}

TEST_F(AttackTest, PgdMatchesPlainBackwardBitwise) {
  AttackConfig cfg;
  cfg.steps = 5;
  Rng rng_ref(12);
  const Tensor expected = reference_pgd(*model_, x_, y_, cfg, rng_ref);
  for (Parameter* p : model_->parameters()) ASSERT_TRUE(p->trainable);
  Rng rng(12);
  const Tensor adv = pgd_attack(*model_, x_, y_, cfg, rng);
  ASSERT_TRUE(adv.same_shape(expected));
  EXPECT_EQ(std::memcmp(adv.data(), expected.data(),
                        static_cast<std::size_t>(adv.numel()) * sizeof(float)),
            0);
  EXPECT_GT(adv.linf_distance(x_), 0.0f);
}

TEST_F(AttackTest, GuardKeepsPreFrozenParameterFrozen) {
  const std::vector<Parameter*> params = model_->parameters();
  ASSERT_GT(params.size(), 2u);
  params[1]->trainable = false;
  auto expect_flags = [&](const char* after) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(params[i]->trainable, i != 1)
          << after << ": " << params[i]->name;
    }
  };
  AttackConfig cfg;
  cfg.steps = 2;
  Rng rng(13);
  pgd_attack(*model_, x_, y_, cfg, rng);
  expect_flags("pgd_attack");
  trades_attack(*model_, x_, cfg, rng);
  expect_flags("trades_attack");
}

TEST_F(AttackTest, ZeroStepsPgdIsJustProjection) {
  AttackConfig cfg;
  cfg.steps = 0;
  cfg.random_start = false;
  Rng rng(7);
  const Tensor adv = pgd_attack(*model_, x_, y_, cfg, rng);
  EXPECT_LT(adv.linf_distance(x_), 1e-6f);
}

TEST_F(AttackTest, EvaluateAdversarialAccuracyBelowClean) {
  AttackConfig cfg;
  cfg.epsilon = 0.08f;
  cfg.steps = 7;
  Rng rng(8);
  const float clean = evaluate_accuracy(*model_, test_);
  const float adv = evaluate_adversarial_accuracy(*model_, test_, cfg, rng);
  EXPECT_LT(adv, clean);
}

TEST(GaussianAugment, NoiseScalesWithSigma) {
  Rng rng(9);
  const Tensor x = Tensor::uniform({4, 3, 8, 8}, rng, 0.3f, 0.7f);
  Rng r1(10), r2(10);
  const Tensor mild = gaussian_augment(x, 0.01f, r1);
  const Tensor heavy = gaussian_augment(x, 0.2f, r2);
  EXPECT_LT(mild.linf_distance(x), heavy.linf_distance(x));
  EXPECT_GE(heavy.min(), 0.0f);
  EXPECT_LE(heavy.max(), 1.0f);
}

TEST(GaussianAugment, ZeroSigmaIsIdentity) {
  Rng rng(11);
  const Tensor x = Tensor::uniform({2, 3, 4, 4}, rng, 0.0f, 1.0f);
  Rng arng(12);
  EXPECT_LT(gaussian_augment(x, 0.0f, arng).linf_distance(x), 1e-9f);
}

TEST(RandomNoiseAttack, ExactlyEpsilonPerPixelBeforeClamp) {
  Rng rng(13);
  const Tensor x = Tensor::full({1, 1, 4, 4}, 0.5f);
  const Tensor adv = random_noise_attack(x, 0.1f, rng);
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    EXPECT_NEAR(std::fabs(adv[i] - 0.5f), 0.1f, 1e-6f);
  }
}

// Integration: adversarially trained models are measurably more robust than
// naturally trained ones — the premise of robust pretraining.
TEST(AdversarialTraining, ImprovesRobustAccuracy) {
  const Dataset train = generate_dataset(source_task_spec(), 200, 21);
  const Dataset test = generate_dataset(source_task_spec(), 120, 22);

  AttackConfig train_atk;
  train_atk.epsilon = 0.08f;
  train_atk.steps = 3;

  Rng rng_init(23);
  auto natural = make_micro_resnet18(10, rng_init);
  Rng rng_init2(23);
  auto robust = make_micro_resnet18(10, rng_init2);

  TrainLoopConfig nat_cfg;
  nat_cfg.epochs = 6;
  Rng t1(24);
  train_classifier(*natural, train, nat_cfg, t1);

  TrainLoopConfig adv_cfg = nat_cfg;
  adv_cfg.adversarial = true;
  adv_cfg.attack = train_atk;
  Rng t2(24);
  train_classifier(*robust, train, adv_cfg, t2);

  AttackConfig eval_atk;
  eval_atk.epsilon = 0.08f;
  eval_atk.steps = 7;
  Rng e1(25), e2(25);
  const float nat_adv_acc =
      evaluate_adversarial_accuracy(*natural, test, eval_atk, e1);
  const float rob_adv_acc =
      evaluate_adversarial_accuracy(*robust, test, eval_atk, e2);
  EXPECT_GT(rob_adv_acc, nat_adv_acc + 0.1f)
      << "adversarial training failed to confer robustness";
}

}  // namespace
}  // namespace rt
