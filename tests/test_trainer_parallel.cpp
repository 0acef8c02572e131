// Training-correctness battery for the data-parallel fit engine: serial and
// parallel fit_dataset must apply equivalent updates, and the tree-reduced
// gradients must match a hand-summed per-sample reference.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/gradcheck.hpp"
#include "rl/trainer.hpp"
#include "util/hash.hpp"

namespace oar::rl {
namespace {

SelectorConfig tiny_selector() {
  SelectorConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 101;
  return cfg;
}

Dataset synthetic_dataset(int samples, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset dataset;
  const gen::RandomGridSpec spec = training_spec({6, 6, 2}, 0.10, 4, 4);
  for (int i = 0; i < samples; ++i) {
    TrainingSample sample;
    sample.grid = gen::random_grid(spec, rng);
    const auto n = std::size_t(sample.grid.num_vertices());
    sample.label.assign(n, 0.0f);
    sample.mask.assign(n, 1.0f);
    sample.label[n / 3] = 1.0f;
    sample.label[n / 2] = 1.0f;
    dataset.add(std::move(sample));
  }
  return dataset;
}

std::vector<float> flatten_weights(SteinerSelector& selector) {
  std::vector<float> out;
  for (auto* p : selector.net().parameters()) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) out.push_back(p->value[i]);
  }
  return out;
}

std::vector<float> flatten_grads(SteinerSelector& selector) {
  std::vector<float> out;
  for (auto* p : selector.net().parameters()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) out.push_back(p->grad[i]);
  }
  return out;
}

class ParallelFitWorkersTest : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(ParallelFitWorkersTest, MatchesSerialWeightsWithin1e6) {
  const std::int32_t workers = GetParam();
  const Dataset dataset = synthetic_dataset(8, 3);

  SteinerSelector serial(tiny_selector());
  SteinerSelector parallel(tiny_selector());
  nn::Adam opt_serial(serial.net().parameters(), 3e-3);
  nn::Adam opt_parallel(parallel.net().parameters(), 3e-3);
  util::Rng rng_serial(7);
  util::Rng rng_parallel(7);

  const double loss_serial =
      fit_dataset(serial, opt_serial, dataset, 2, 4, 5.0, rng_serial);

  FitOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.grad_clip = 5.0;
  options.workers = workers;
  const double loss_parallel =
      fit_dataset(parallel, opt_parallel, dataset, options, rng_parallel);

  EXPECT_NEAR(loss_parallel, loss_serial, 1e-6);
  const auto ws = flatten_weights(serial);
  const auto wp = flatten_weights(parallel);
  ASSERT_EQ(ws.size(), wp.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(double(ws[i]) - double(wp[i])));
  }
  EXPECT_LT(max_diff, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelFitWorkersTest,
                         ::testing::Values(1, 2, 4));

TEST(ParallelFitTest, GradientReductionMatchesHandSummedReference) {
  const Dataset dataset = synthetic_dataset(4, 9);
  const std::vector<std::size_t> batch = {0, 1, 2, 3};

  // Hand-summed reference: per-sample gradients (batch of one, so the
  // 1/|batch| scale is 1), averaged afterwards.
  SteinerSelector selector(tiny_selector());
  std::vector<double> reference;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    selector.net().zero_grad();
    ParallelFitter single(selector, 1, nullptr);
    single.accumulate_batch(dataset, {batch[i]});
    const auto grads = flatten_grads(selector);
    if (reference.empty()) reference.assign(grads.size(), 0.0);
    for (std::size_t j = 0; j < grads.size(); ++j) {
      reference[j] += double(grads[j]) / double(batch.size());
    }
  }

  // Tree-reduced gradients from four workers over the same batch.
  util::ThreadPool pool(4);
  selector.net().zero_grad();
  ParallelFitter fitter(selector, 4, &pool);
  fitter.accumulate_batch(dataset, batch);
  const auto reduced = flatten_grads(selector);
  ASSERT_EQ(reduced.size(), reference.size());
  for (std::size_t j = 0; j < reduced.size(); ++j) {
    EXPECT_NEAR(double(reduced[j]), reference[j], 1e-5) << "grad entry " << j;
  }
}

TEST(ParallelFitTest, PerSampleGradientsPassGradCheck) {
  // The hand-summed reference above is only meaningful if the per-sample
  // analytic gradient is itself correct; prove it against central finite
  // differences.  The probe keeps the encoder's exact tensor shape but is
  // filled with randn values: the raw 0/1 feature planes are numerically
  // degenerate (constant channels give near-zero GroupNorm variance, tied
  // max-pool branches), so fp32 difference quotients are meaningless on
  // them.  Same epsilon/rtol as the UNet gradcheck in test_unet.cpp.
  SteinerSelector selector(tiny_selector());
  const Dataset dataset = synthetic_dataset(1, 13);
  const TrainingSample& sample = dataset.sample(0);
  const nn::Tensor encoded =
      SteinerSelector::encode(sample.grid, sample.extra_pins);
  util::Rng rng(21);
  const nn::Tensor input = nn::Tensor::randn(encoded.shape(), rng);
  nn::Tensor loss_weights = nn::Tensor::randn(
      {1, sample.grid.h_dim(), sample.grid.v_dim(), sample.grid.m_dim()}, rng);
  const auto result =
      nn::grad_check(selector.net(), input, loss_weights, rng, 1e-2, 8e-2, 12);
  EXPECT_TRUE(result.ok) << "max_abs_error=" << result.max_abs_error
                         << " violations=" << result.violations;
}

std::uint64_t weights_fnv1a64(SteinerSelector& selector) {
  const std::vector<float> w = flatten_weights(selector);
  return util::fnv1a64(reinterpret_cast<const char*>(w.data()),
                       w.size() * sizeof(float));
}

// Weights after a fixed small fit of the default selector (7 -> 8 -> 16 ->
// 32 channels, 1x1 projections and the OC = 1 head) at a quick-train size.
// The training Conv3d kernels promise the scalar loops' per-element
// summation order, so every weight bit is pinned: a kernel that reorders a
// sum, or a build that contracts a multiply-add, changes this hash (so does
// a global -mfma or -march in CMAKE_CXX_FLAGS, which lets the compiler
// contract the other layers' float arithmetic).
constexpr std::uint64_t kPinnedFitWeightsHash = 0xc008015ba1f651e0ull;

class PinnedFitTest : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(PinnedFitTest, WeightsHashIsPinned) {
  util::Rng data_rng(31);
  Dataset dataset;
  const gen::RandomGridSpec spec = training_spec({12, 12, 3}, 0.10, 3, 5);
  for (int i = 0; i < 6; ++i) {
    TrainingSample sample;
    sample.grid = gen::random_grid(spec, data_rng);
    const auto n = std::size_t(sample.grid.num_vertices());
    sample.label.assign(n, 0.0f);
    sample.mask.assign(n, 1.0f);
    sample.label[(n * std::size_t(i + 1)) / 7] = 1.0f;
    dataset.add(std::move(sample));
  }
  SelectorConfig cfg;
  cfg.unet.seed = 0x0a25;
  SteinerSelector selector(cfg);
  nn::Adam optimizer(selector.net().parameters(), 3e-3);
  util::Rng rng(5);
  FitOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.workers = GetParam();
  fit_dataset(selector, optimizer, dataset, options, rng);
  EXPECT_EQ(weights_fnv1a64(selector), kPinnedFitWeightsHash)
      << std::hex << "got 0x" << weights_fnv1a64(selector);
}

INSTANTIATE_TEST_SUITE_P(Workers, PinnedFitTest, ::testing::Values(1, 4));

TEST(ParallelFitTest, DatasetLossAgreesWithSerialEvaluation) {
  // dataset_loss runs each sample through the inference engine; it must
  // agree with the per-sample loss the training loop reports on an
  // untouched network.
  const Dataset dataset = synthetic_dataset(6, 17);
  SteinerSelector selector(tiny_selector());
  const double batched = dataset_loss(selector, dataset, 4);

  // Per-sample reference via a zero-step "fit": accumulate loss only.
  SteinerSelector reference(tiny_selector());
  reference.net().zero_grad();
  ParallelFitter fitter(reference, 1, nullptr);
  double total = 0.0;
  std::size_t batches = 0;
  for (const auto& batch : dataset.ordered_batches(4)) {
    total += fitter.accumulate_batch(dataset, batch) / double(batch.size());
    ++batches;
  }
  EXPECT_NEAR(batched, total / double(batches), 1e-5);
}

}  // namespace
}  // namespace oar::rl
