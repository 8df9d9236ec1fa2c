// Layer-level unit tests: shapes, known values, and behaviours that have a
// closed form. Gradient correctness is covered by test_gradcheck.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/conv.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/pooling.hpp"

namespace rt {
namespace {

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, false, rng, "c");
  const Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 8, 16, 16}));
}

TEST(Conv2d, StridedOutputShape) {
  Rng rng(1);
  Conv2d conv(4, 6, 3, 2, 1, false, rng, "c");
  const Tensor x = Tensor::randn({2, 4, 16, 16}, rng);
  EXPECT_EQ(conv.forward(x).shape(), (std::vector<std::int64_t>{2, 6, 8, 8}));
}

TEST(Conv2d, OneByOneConvIsChannelMix) {
  Rng rng(1);
  Conv2d conv(2, 1, 1, 1, 0, false, rng, "c");
  conv.weight().value[0] = 2.0f;  // channel 0 weight
  conv.weight().value[1] = -1.0f; // channel 1 weight
  Tensor x({1, 2, 2, 2});
  x.fill_(1.0f);
  const Tensor y = conv.forward(x);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 1.0f);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 1, false, rng, "c");
  conv.weight().value.fill_(0.0f);
  conv.weight().value[4] = 1.0f;  // centre tap of the 3x3 kernel
  const Tensor x = Tensor::randn({1, 1, 8, 8}, rng);
  const Tensor y = conv.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, BiasIsAdded) {
  Rng rng(1);
  Conv2d conv(1, 2, 3, 1, 1, true, rng, "c");
  conv.weight().value.fill_(0.0f);
  conv.bias()->value[0] = 1.5f;
  conv.bias()->value[1] = -2.0f;
  const Tensor y = conv.forward(Tensor({1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 2, 2), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 2, 2), -2.0f);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Rng rng(1);
  Conv2d conv(3, 4, 3, 1, 1, false, rng, "c");
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8})), std::invalid_argument);
}

TEST(Conv2d, FlopsCount) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, false, rng, "c");
  // 2 * out * in * k * k * oh * ow = 2*8*3*9*16*16
  EXPECT_EQ(conv.flops_per_sample(16, 16), 2LL * 8 * 3 * 9 * 16 * 16);
}

TEST(Im2col, SimpleExtraction) {
  // 1x1x2x2 input, k=1 s=1 p=0: col is the flattened image.
  const Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  ConvGeometry g{1, 1, 0};
  float col[4];
  im2col_plane(x.data(), 1, 2, 2, g, col);
  EXPECT_FLOAT_EQ(col[0], 1.0f);
  EXPECT_FLOAT_EQ(col[3], 4.0f);
}

TEST(Im2col, ZeroPadding) {
  const Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  ConvGeometry g{3, 1, 1};
  float col[9 * 4];
  im2col_plane(x.data(), 1, 2, 2, g, col);
  // First row of the col matrix corresponds to kernel tap (0,0): for output
  // (0,0) it reads input (-1,-1) -> 0.
  EXPECT_FLOAT_EQ(col[0], 0.0f);
  // Centre tap (1,1) row (index 4) at output (0,0) reads input (0,0) = 1.
  EXPECT_FLOAT_EQ(col[4 * 4 + 0], 1.0f);
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), c> == <x, col2im(c)> for random x, c (adjoint property).
  Rng rng(3);
  const Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  ConvGeometry g{3, 2, 1};
  const std::int64_t oh = g.out_extent(5), ow = g.out_extent(5);
  const std::int64_t cols = 2 * 9 * oh * ow;
  std::vector<float> colx(static_cast<std::size_t>(cols));
  im2col_plane(x.data(), 2, 5, 5, g, colx.data());
  std::vector<float> c(static_cast<std::size_t>(cols));
  for (auto& v : c) v = rng.normal();
  Tensor back({1, 2, 5, 5});
  col2im_plane_add(c.data(), 2, 5, 5, g, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cols; ++i) {
    lhs += static_cast<double>(colx[static_cast<std::size_t>(i)]) *
           c[static_cast<std::size_t>(i)];
  }
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Linear, KnownAffineMap) {
  Rng rng(1);
  Linear lin(2, 2, true, rng, "l");
  lin.weight().value = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  lin.bias()->value = Tensor::from_data({2}, {0.5f, -0.5f});
  const Tensor x = Tensor::from_data({1, 2}, {1, 1});
  const Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3+4-0.5
}

TEST(Linear, ResetReinitializesAndDropsMask) {
  Rng rng(1);
  Linear lin(4, 2, true, rng, "l");
  lin.weight().set_mask(Tensor::zeros({2, 4}));
  EXPECT_TRUE(lin.weight().has_mask());
  lin.reset(rng);
  EXPECT_FALSE(lin.weight().has_mask());
  EXPECT_GT(lin.weight().value.sum_sq(), 0.0f);
}

TEST(ReLU, ClampsAndGates) {
  ReLU relu;
  const Tensor x = Tensor::from_data({4}, {-1, 0, 2, -3});
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor g = relu.backward(Tensor::ones({4}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);  // x == 0 gates to 0
  EXPECT_FLOAT_EQ(g[2], 1.0f);
}

TEST(MaxPool, PicksMaxAndRoutesGradient) {
  MaxPool2d pool(2);
  const Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  const Tensor g = pool.backward(Tensor::full({1, 1, 1, 1}, 2.0f));
  EXPECT_FLOAT_EQ(g[1], 2.0f);  // grad to the argmax position only
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(GlobalAvgPool, AveragesAndSpreads) {
  GlobalAvgPool gap;
  const Tensor x = Tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 6});
  const Tensor y = gap.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 1}));
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  const Tensor g = gap.backward(Tensor::full({1, 1}, 4.0f));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g[i], 1.0f);
}

TEST(NearestUpsample, ReplicatesAndSumPools) {
  NearestUpsample up(2);
  const Tensor x = Tensor::from_data({1, 1, 1, 2}, {3, 7});
  const Tensor y = up.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 1, 2, 4}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 3), 7.0f);
  const Tensor g = up.backward(Tensor::ones({1, 1, 2, 4}));
  EXPECT_FLOAT_EQ(g[0], 4.0f);  // 2x2 block sums
  EXPECT_FLOAT_EQ(g[1], 4.0f);
}

TEST(BatchNorm, NormalizesBatchInTrainMode) {
  Rng rng(1);
  BatchNorm2d bn(1, "bn");
  bn.set_training(true);
  const Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 3.0f);
  const Tensor y = bn.forward(x);
  EXPECT_NEAR(y.mean(), 0.0f, 1e-4f);
  // Per-element variance ~1.
  EXPECT_NEAR(y.sum_sq() / static_cast<float>(y.numel()), 1.0f, 1e-2f);
}

TEST(BatchNorm, RunningStatsConvergeAndDriveEval) {
  Rng rng(2);
  BatchNorm2d bn(1, "bn");
  bn.set_training(true);
  for (int i = 0; i < 200; ++i) {
    const Tensor x = Tensor::randn({16, 1, 2, 2}, rng, 2.0f);
    bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 0.0f, 0.15f);
  EXPECT_NEAR(bn.running_var()[0], 4.0f, 0.5f);
  bn.set_training(false);
  const Tensor x = Tensor::full({1, 1, 1, 1}, 2.0f);
  const Tensor y = bn.forward(x);
  // y = (2 - mu)/sqrt(var) with gamma=1 beta=0 -> about 1.
  EXPECT_NEAR(y[0], 1.0f, 0.15f);
}

TEST(BatchNorm, AffineParamsScaleOutput) {
  BatchNorm2d bn(1, "bn");
  bn.gamma().value[0] = 2.0f;
  bn.beta().value[0] = 1.0f;
  bn.set_training(false);  // running stats are (0, 1)
  const Tensor x = Tensor::full({1, 1, 1, 1}, 3.0f);
  EXPECT_NEAR(bn.forward(x)[0], 7.0f, 1e-4f);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// Runs forward+backward with every parameter of `layer` trainable, then
/// again with every parameter frozen: the frozen pass must return the same
/// dx bits and leave each .grad exactly as it was.
void expect_frozen_backward_parity(Module& layer, const Tensor& x,
                                   const Tensor& grad_out) {
  layer.forward(x);
  const Tensor dx_trainable = layer.backward(grad_out);
  const std::vector<Parameter*> params = layer.parameters();
  ASSERT_FALSE(params.empty());
  for (Parameter* p : params) {
    p->grad.fill_(0.25f);
    p->trainable = false;
  }
  layer.forward(x);
  const Tensor dx_frozen = layer.backward(grad_out);
  EXPECT_TRUE(same_bits(dx_frozen, dx_trainable));
  for (Parameter* p : params) {
    EXPECT_TRUE(same_bits(p->grad, Tensor::full(p->grad.shape(), 0.25f)))
        << p->name;
    p->trainable = true;
  }
}

TEST(FrozenBackward, Conv2dDenseAndMaskedMatchTrainableDx) {
  // 17 samples: three uneven wgrad slots, so the fold has an odd leaf.
  for (const bool masked : {false, true}) {
    Rng rng(11);
    Conv2d conv(4, 6, 3, 1, 1, /*with_bias=*/true, rng, "c");
    conv.bias()->value = Tensor::randn({6}, rng);
    if (masked) {
      // 95% zeros on a 12x12 plane: the rule routes forward and dgrad onto
      // the tap table instead of packed panels.
      Tensor mask(conv.weight().value.shape());
      for (std::int64_t i = 0; i < mask.numel(); ++i) {
        mask[i] = rng.uniform(0.0f, 1.0f) < 0.05f ? 1.0f : 0.0f;
      }
      conv.weight().set_mask(mask);
      ASSERT_TRUE(conv_prefers_taps(
          count_nonzeros(conv.weight().value.data(),
                         conv.weight().value.numel()),
          6, 4 * 9, 12 * 12));
    }
    const Tensor x = Tensor::randn({17, 4, 12, 12}, rng);
    const Tensor g = Tensor::randn({17, 6, 12, 12}, rng);
    SCOPED_TRACE(masked ? "masked" : "dense");
    expect_frozen_backward_parity(conv, x, g);

    // Weight frozen, bias trainable: the bias gradient is the one the
    // all-trainable pass accumulates, bit for bit.
    conv.zero_grad();
    conv.forward(x);
    const Tensor dx_ref = conv.backward(g);
    const Tensor db_ref = conv.bias()->grad;
    conv.zero_grad();
    conv.weight().trainable = false;
    conv.forward(x);
    EXPECT_TRUE(same_bits(conv.backward(g), dx_ref));
    EXPECT_TRUE(same_bits(conv.bias()->grad, db_ref));
    EXPECT_EQ(conv.weight().grad.sum_sq(), 0.0f);
  }
}

TEST(FrozenBackward, LinearMatchesTrainableDx) {
  Rng rng(12);
  Linear fc(9, 5, /*with_bias=*/true, rng, "fc");
  const Tensor x = Tensor::randn({6, 9}, rng);
  const Tensor g = Tensor::randn({6, 5}, rng);
  expect_frozen_backward_parity(fc, x, g);
}

TEST(FrozenBackward, BatchNormMatchesTrainableDxInBothModes) {
  Rng rng(13);
  BatchNorm2d bn(3, "bn");
  bn.set_training(true);
  for (int i = 0; i < 5; ++i) {
    bn.forward(Tensor::randn({4, 3, 5, 5}, rng, 2.0f));
  }
  bn.gamma().value = Tensor::randn({3}, rng);
  bn.beta().value = Tensor::randn({3}, rng);
  const Tensor x = Tensor::randn({4, 3, 5, 5}, rng, 2.0f);
  const Tensor g = Tensor::randn({4, 3, 5, 5}, rng);
  for (const bool training : {false, true}) {
    SCOPED_TRACE(training ? "train mode" : "eval mode");
    bn.set_training(training);
    expect_frozen_backward_parity(bn, x, g);
  }
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(4);
  const Tensor logits = Tensor::randn({5, 7}, rng, 4.0f);
  const Tensor p = softmax(logits);
  for (std::int64_t i = 0; i < 5; ++i) {
    float s = 0.0f;
    for (std::int64_t j = 0; j < 7; ++j) {
      EXPECT_GE(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableAtExtremeLogits) {
  const Tensor logits = Tensor::from_data({1, 2}, {1000.0f, -1000.0f});
  const Tensor p = softmax(logits);
  EXPECT_NEAR(p.at(0, 0), 1.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(p.at(0, 1)));
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  const Tensor logits = Tensor::zeros({3, 4});
  const auto r = softmax_cross_entropy(logits, {0, 1, 2});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5f);
}

TEST(CrossEntropy, GradientSumsToZeroPerRow) {
  Rng rng(5);
  const Tensor logits = Tensor::randn({4, 6}, rng);
  const auto r = softmax_cross_entropy(logits, {0, 1, 2, 3});
  for (std::int64_t i = 0; i < 4; ++i) {
    float s = 0.0f;
    for (std::int64_t j = 0; j < 6; ++j) s += r.grad_logits.at(i, j);
    EXPECT_NEAR(s, 0.0f, 1e-5f);
  }
}

TEST(CrossEntropy, RejectsBadLabels) {
  const Tensor logits = Tensor::zeros({2, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 3}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0}), std::invalid_argument);
}

TEST(CrossEntropy2d, IgnoresNegativeLabels) {
  const Tensor logits = Tensor::zeros({1, 2, 2, 2});
  std::vector<int> labels = {0, -1, 1, -1};
  const auto r = softmax_cross_entropy_2d(logits, labels);
  EXPECT_NEAR(r.loss, std::log(2.0f), 1e-5f);
  // Ignored pixels get zero gradient.
  EXPECT_FLOAT_EQ(r.grad_logits.at(0, 0, 0, 1), 0.0f);
  EXPECT_FLOAT_EQ(r.grad_logits.at(0, 1, 0, 1), 0.0f);
}

TEST(Accuracy, CountsCorrectRows) {
  const Tensor logits =
      Tensor::from_data({3, 2}, {2, 1,   // pred 0
                                 0, 3,   // pred 1
                                 5, 4}); // pred 0
  EXPECT_FLOAT_EQ(accuracy(logits, {0, 1, 1}), 2.0f / 3.0f);
}

TEST(Sgd, PlainGradientStep) {
  Parameter p;
  p.name = "w";
  p.value = Tensor::from_data({2}, {1.0f, 2.0f});
  p.grad = Tensor::from_data({2}, {0.5f, -0.5f});
  Sgd sgd({&p}, SgdConfig{0.1f, 0.0f, 0.0f});
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.95f);
  EXPECT_FLOAT_EQ(p.value[1], 2.05f);
}

TEST(Sgd, MomentumAccumulates) {
  Parameter p;
  p.name = "w";
  p.value = Tensor::from_data({1}, {0.0f});
  p.grad = Tensor::from_data({1}, {1.0f});
  Sgd sgd({&p}, SgdConfig{1.0f, 0.5f, 0.0f});
  sgd.step();  // v=1, w=-1
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
  p.grad.fill_(1.0f);
  sgd.step();  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(p.value[0], -2.5f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Parameter p;
  p.name = "w";
  p.value = Tensor::from_data({1}, {10.0f});
  p.grad = Tensor::from_data({1}, {0.0f});
  Sgd sgd({&p}, SgdConfig{0.1f, 0.0f, 0.1f});
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 10.0f - 0.1f * 1.0f);  // g = wd*w = 1
}

TEST(Sgd, MaskedWeightsStayZero) {
  Parameter p;
  p.name = "w";
  p.value = Tensor::from_data({4}, {1, 2, 3, 4});
  p.grad = Tensor::from_data({4}, {1, 1, 1, 1});
  p.set_mask(Tensor::from_data({4}, {1, 0, 1, 0}));
  Sgd sgd({&p}, SgdConfig{0.5f, 0.9f, 1e-2f});
  for (int i = 0; i < 5; ++i) {
    p.grad.fill_(1.0f);
    sgd.step();
  }
  EXPECT_FLOAT_EQ(p.value[1], 0.0f);
  EXPECT_FLOAT_EQ(p.value[3], 0.0f);
  EXPECT_NE(p.value[0], 0.0f);
}

TEST(Sgd, NonTrainableParamUntouched) {
  Parameter p;
  p.name = "w";
  p.value = Tensor::from_data({1}, {3.0f});
  p.grad = Tensor::from_data({1}, {1.0f});
  p.trainable = false;
  Sgd sgd({&p}, SgdConfig{0.1f, 0.0f, 0.0f});
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 3.0f);
}

TEST(LrSchedule, MultiStepDecays) {
  MultiStepLr sched(1.0f, {10, 20}, 0.1f);
  EXPECT_FLOAT_EQ(sched.lr_at(0), 1.0f);
  EXPECT_FLOAT_EQ(sched.lr_at(9), 1.0f);
  EXPECT_FLOAT_EQ(sched.lr_at(10), 0.1f);
  EXPECT_NEAR(sched.lr_at(25), 0.01f, 1e-6f);
}

TEST(LrSchedule, CosineEndpoints) {
  CosineLr sched(1.0f, 10, 0.0f);
  EXPECT_FLOAT_EQ(sched.lr_at(0), 1.0f);
  EXPECT_NEAR(sched.lr_at(10), 0.0f, 1e-6f);
  EXPECT_NEAR(sched.lr_at(5), 0.5f, 1e-6f);
}

TEST(Sequential, ChainsAndCollectsParams) {
  Rng rng(1);
  Sequential seq;
  seq.emplace<Linear>(4, 3, true, rng, "l1");
  seq.emplace<ReLU>();
  seq.emplace<Linear>(3, 2, true, rng, "l2");
  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 2}));
  EXPECT_EQ(seq.parameters().size(), 4u);
  EXPECT_EQ(seq.num_parameters(), 4 * 3 + 3 + 3 * 2 + 2);
  const Tensor g = seq.backward(Tensor::ones({2, 2}));
  EXPECT_EQ(g.shape(), x.shape());
}

}  // namespace
}  // namespace rt
