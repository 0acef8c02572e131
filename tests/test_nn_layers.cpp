// Finite-difference gradient verification of every hand-written backward
// pass, plus shape/semantics checks per layer.

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/conv3d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/group_norm.hpp"
#include "nn/linear.hpp"
#include "nn/pool3d.hpp"
#include "nn/residual_block.hpp"
#include "nn/value_net.hpp"

namespace oar::nn {
namespace {

Tensor random_input(std::vector<std::int32_t> shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, 1.0f);
}

Tensor random_weights_like(const Tensor& out, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(out.shape(), rng, 1.0f);
}

template <typename M>
void expect_gradcheck_ok(M& module, const Tensor& input, std::uint64_t seed) {
  Tensor out = module.forward(input);
  const Tensor weights = random_weights_like(out, seed);
  util::Rng rng(seed ^ 0xabcull);
  const GradCheckResult r = grad_check(module, input, weights, rng);
  EXPECT_TRUE(r.ok) << "max_rel_error=" << r.max_rel_error
                    << " max_abs_error=" << r.max_abs_error;
}

/// A batch of n samples runs as n back-to-back eval-mode forwards on the
/// inference engine (there is no stacked batched forward), reusing one
/// arena; each must agree with the training-mode forward of the same
/// sample.  The engine's kernels contract FMAs in a different order than
/// the naive loop, so the comparison is tolerance-based, not bitwise.
void expect_batch_matches_single(Module& module,
                                 std::vector<std::int32_t> sample_shape,
                                 std::int32_t n, std::uint64_t seed,
                                 double tol = 1e-4) {
  std::vector<std::int32_t> batch_shape{n};
  batch_shape.insert(batch_shape.end(), sample_shape.begin(), sample_shape.end());
  const Tensor batch = random_input(std::move(batch_shape), seed);
  const std::int64_t in_stride = batch.numel() / n;

  std::vector<Tensor> samples;
  for (std::int32_t i = 0; i < n; ++i) {
    Tensor sample(sample_shape);
    std::copy(batch.data() + i * in_stride, batch.data() + (i + 1) * in_stride,
              sample.data());
    samples.push_back(std::move(sample));
  }

  module.set_training(false);
  std::vector<Tensor> eval;
  for (const Tensor& sample : samples) eval.push_back(module.forward(sample));
  module.set_training(true);

  for (std::int32_t i = 0; i < n; ++i) {
    const Tensor single = module.forward(samples[std::size_t(i)]);
    const Tensor& e = eval[std::size_t(i)];
    ASSERT_EQ(e.shape(), single.shape());
    for (std::int64_t j = 0; j < single.numel(); ++j) {
      ASSERT_NEAR(e[j], single[j], tol) << "sample " << i << " element " << j;
    }
  }
}

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor out = relu.forward(Tensor::from({-1, 0, 2}));
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
}

TEST(ReLULayer, BackwardMasks) {
  ReLU relu;
  relu.forward(Tensor::from({-1, 3}));
  const Tensor grad = relu.backward(Tensor::from({5, 5}));
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[1], 5.0f);
}

TEST(SigmoidLayer, ForwardValues) {
  Sigmoid sig;
  const Tensor out = sig.forward(Tensor::from({0.0f, 100.0f, -100.0f}));
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_NEAR(out[1], 1.0f, 1e-6);
  EXPECT_NEAR(out[2], 0.0f, 1e-6);
}

TEST(SigmoidLayer, GradCheck) {
  Sigmoid sig;
  const Tensor input = random_input({2, 3, 2, 2}, 3);
  expect_gradcheck_ok(sig, input, 4);
}

class Conv3dGradTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t, std::int32_t>> {};

TEST_P(Conv3dGradTest, GradCheck) {
  const auto [in_c, out_c, kernel] = GetParam();
  util::Rng rng(7);
  Conv3d conv(in_c, out_c, kernel, rng);
  const Tensor input = random_input({in_c, 3, 4, 2}, 11);
  expect_gradcheck_ok(conv, input, 13);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv3dGradTest,
                         ::testing::Values(std::tuple{1, 1, 3}, std::tuple{2, 3, 3},
                                           std::tuple{3, 2, 1}, std::tuple{4, 4, 1}));

TEST(Conv3dLayer, SameSizeOutputWithDefaultPadding) {
  util::Rng rng(1);
  Conv3d conv(2, 5, 3, rng);
  const Tensor out = conv.forward(random_input({2, 4, 6, 3}, 2));
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{5, 4, 6, 3}));
}

TEST(Conv3dLayer, IdentityKernelReproducesInput) {
  util::Rng rng(1);
  Conv3d conv(1, 1, 1, rng);
  conv.weight().value.fill(1.0f);
  conv.bias().value.fill(0.0f);
  const Tensor input = random_input({1, 2, 2, 2}, 5);
  const Tensor out = conv.forward(input);
  for (std::int64_t i = 0; i < input.numel(); ++i) EXPECT_FLOAT_EQ(out[i], input[i]);
}

TEST(GroupNormLayer, NormalizesPerGroup) {
  GroupNorm gn(4, 2);
  const Tensor input = random_input({4, 2, 2, 2}, 9);
  const Tensor out = gn.forward(input);
  // Each group of 2 channels x 8 voxels has ~zero mean, ~unit variance.
  for (int g = 0; g < 2; ++g) {
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < 16; ++i) {
      const float v = out[g * 16 + i];
      sum += v;
      sum_sq += double(v) * v;
    }
    EXPECT_NEAR(sum / 16.0, 0.0, 1e-5);
    EXPECT_NEAR(sum_sq / 16.0, 1.0, 1e-3);
  }
}

class GroupNormGradTest
    : public ::testing::TestWithParam<std::pair<std::int32_t, std::int32_t>> {};

TEST_P(GroupNormGradTest, GradCheck) {
  const auto [channels, groups] = GetParam();
  GroupNorm gn(channels, groups);
  const Tensor input = random_input({channels, 2, 3, 2}, 21);
  expect_gradcheck_ok(gn, input, 22);
}

INSTANTIATE_TEST_SUITE_P(Configs, GroupNormGradTest,
                         ::testing::Values(std::pair{2, 1}, std::pair{4, 2},
                                           std::pair{4, 4}, std::pair{6, 3}));

TEST(MaxPoolLayer, CeilModeOddDims) {
  MaxPool3d pool;
  const Tensor out = pool.forward(random_input({2, 5, 3, 1}, 31));
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{2, 3, 2, 1}));
}

TEST(MaxPoolLayer, TakesWindowMaximum) {
  MaxPool3d pool;
  Tensor input({1, 2, 2, 1});
  input[0] = 1.0f;
  input[1] = 9.0f;
  input[2] = -3.0f;
  input[3] = 4.0f;
  const Tensor out = pool.forward(input);
  EXPECT_EQ(out.numel(), 1);
  EXPECT_FLOAT_EQ(out[0], 9.0f);
}

TEST(MaxPoolLayer, GradCheck) {
  MaxPool3d pool;
  const Tensor input = random_input({2, 4, 3, 2}, 41);
  expect_gradcheck_ok(pool, input, 42);
}

TEST(UpsampleLayer, ReachesTargetSize) {
  UpsampleNearest3d up;
  up.set_target(5, 4, 3);
  const Tensor out = up.forward(random_input({2, 2, 2, 2}, 51));
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{2, 5, 4, 3}));
}

TEST(UpsampleLayer, GradCheck) {
  UpsampleNearest3d up;
  up.set_target(4, 5, 2);
  const Tensor input = random_input({2, 2, 3, 1}, 61);
  expect_gradcheck_ok(up, input, 62);
}

TEST(UpsampleLayer, InverseOfPoolShapes) {
  // pool(ceil) then upsample-to-original restores the original dims for
  // arbitrary sizes — the property the U-Net depends on.
  for (std::int32_t d0 : {1, 3, 4, 7}) {
    for (std::int32_t d2 : {1, 2, 5}) {
      MaxPool3d pool;
      UpsampleNearest3d up;
      const Tensor input = random_input({2, d0, 3, d2}, 71);
      const Tensor pooled = pool.forward(input);
      up.set_target(d0, 3, d2);
      const Tensor restored = up.forward(pooled);
      EXPECT_EQ(restored.shape(), input.shape());
    }
  }
}

TEST(LinearLayer, KnownComputation) {
  util::Rng rng(1);
  Linear fc(2, 1, rng);
  auto params = fc.parameters();
  params[0]->value[0] = 2.0f;  // weight
  params[0]->value[1] = -1.0f;
  params[1]->value[0] = 0.5f;  // bias
  const Tensor out = fc.forward(Tensor::from({3, 4}));
  EXPECT_FLOAT_EQ(out[0], 2.0f * 3 - 1.0f * 4 + 0.5f);
}

TEST(LinearLayer, GradCheck) {
  util::Rng rng(81);
  Linear fc(6, 4, rng);
  expect_gradcheck_ok(fc, random_input({6}, 82), 83);
}

TEST(GlobalAvgPoolLayer, AveragesPerChannel) {
  GlobalAvgPool3d gap;
  Tensor input({2, 1, 2, 1});
  input[0] = 2.0f;
  input[1] = 4.0f;
  input[2] = -1.0f;
  input[3] = 1.0f;
  const Tensor out = gap.forward(input);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(GlobalAvgPoolLayer, GradCheck) {
  GlobalAvgPool3d gap;
  expect_gradcheck_ok(gap, random_input({3, 2, 2, 2}, 91), 92);
}

TEST(ResidualBlockLayer, OutputShapeAndChannels) {
  util::Rng rng(5);
  ResidualBlock3d block(3, 6, rng);
  const Tensor out = block.forward(random_input({3, 3, 4, 2}, 6));
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{6, 3, 4, 2}));
}

TEST(ResidualBlockLayer, GradCheckWithProjection) {
  util::Rng rng(15);
  ResidualBlock3d block(2, 4, rng);
  expect_gradcheck_ok(block, random_input({2, 2, 3, 2}, 16), 17);
}

TEST(ResidualBlockLayer, GradCheckIdentitySkip) {
  util::Rng rng(25);
  ResidualBlock3d block(4, 4, rng);
  expect_gradcheck_ok(block, random_input({4, 2, 2, 2}, 26), 27);
}

TEST(ResidualBlockLayer, PickGroups) {
  EXPECT_EQ(ResidualBlock3d::pick_groups(1), 1);
  EXPECT_EQ(ResidualBlock3d::pick_groups(4), 4);
  EXPECT_EQ(ResidualBlock3d::pick_groups(6), 3);
  EXPECT_EQ(ResidualBlock3d::pick_groups(8), 4);
  EXPECT_EQ(ResidualBlock3d::pick_groups(7), 1);
}

TEST(Conv3dLayer, BatchMatchesSingleTemplatedPath) {
  // OC=8, last dim 4: the register-tiled full-line kernel.
  util::Rng rng(61);
  Conv3d conv(7, 8, 3, rng);
  expect_batch_matches_single(conv, {7, 6, 5, 4}, 5, 62);
}

TEST(Conv3dLayer, BatchMatchesSingleGeneralTilePath) {
  // Last dim 3: a full-line tile at a layer count that is not a power of two.
  util::Rng rng(63);
  Conv3d conv(4, 16, 3, rng);
  expect_batch_matches_single(conv, {4, 4, 5, 3}, 3, 64);
}

TEST(Conv3dLayer, EvalMatchesTrainingOnSegmentedLines) {
  // Lines longer than one register tile run as segments with halo taps at
  // the segment ends; cover every templated channel count, remainders of
  // 1..4 and an exact multiple of the tile.
  for (const std::int32_t oc : {1, 8, 16, 32}) {
    for (const std::int32_t d2 : {9, 10, 12, 16}) {
      SCOPED_TRACE(testing::Message() << "OC " << oc << " D2 " << d2);
      util::Rng rng(std::uint64_t(100 + oc + d2));
      Conv3d conv(3, oc, 3, rng);
      expect_batch_matches_single(conv, {3, 3, 2, d2}, 2, 200 + std::uint64_t(d2));
    }
  }
}

TEST(Conv3dLayer, BatchMatchesSingleIm2colFallback) {
  // OC=5 has no template instantiation: exercises the im2col + GEMM path.
  util::Rng rng(65);
  Conv3d conv(3, 5, 3, rng);
  expect_batch_matches_single(conv, {3, 4, 4, 4}, 4, 66);
}

TEST(Conv3dLayer, BatchMatchesSinglePointwise) {
  util::Rng rng(67);
  Conv3d conv(6, 8, 1, rng);
  expect_batch_matches_single(conv, {6, 4, 3, 2}, 4, 68);
}

TEST(GroupNormLayer, BatchMatchesSingle) {
  GroupNorm norm(8, 4);
  expect_batch_matches_single(norm, {8, 3, 4, 2}, 3, 70);
}

TEST(PoolLayers, BatchMatchesSingle) {
  MaxPool3d pool;
  expect_batch_matches_single(pool, {4, 6, 4, 2}, 3, 71);
  UpsampleNearest3d up;
  up.set_target(6, 3, 2);
  expect_batch_matches_single(up, {4, 3, 2, 1}, 3, 72);
}

TEST(ResidualBlockLayer, BatchMatchesSingle) {
  util::Rng rng(73);
  ResidualBlock3d block(7, 8, rng);
  expect_batch_matches_single(block, {7, 4, 4, 4}, 3, 74);
}

TEST(ValueNetModel, ScalarOutputAnySize) {
  ValueNet net(ValueNetConfig{3, 4, 8, 1});
  for (std::int32_t d : {2, 3, 5}) {
    const Tensor out = net.forward(random_input({3, d, d + 1, 2}, 100 + d));
    EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{1}));
  }
}

TEST(ValueNetModel, GradCheck) {
  // The scalar head makes per-entry gradients tiny (GAP divides by the
  // spatial volume), so use a larger probe step and tolerance to stay
  // above float32 noise.
  ValueNet net(ValueNetConfig{2, 4, 6, 2});
  const Tensor input = random_input({2, 2, 3, 2}, 111);
  net.forward(input);
  const Tensor weights = Tensor::from({1.0f});
  util::Rng rng(112);
  const GradCheckResult r = grad_check(net, input, weights, rng, 1e-2, 0.12, 24);
  EXPECT_TRUE(r.ok) << "max_rel_error=" << r.max_rel_error;
}

}  // namespace
}  // namespace oar::nn
