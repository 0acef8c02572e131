// Bitwise battery for the training-mode Conv3d kernels: forward output,
// input gradient, weight gradient and bias gradient must equal, bit for
// bit, a naive loop nest that sums every element in the documented order
// (DESIGN.md §19).  The gradchecks in test_nn_layers.cpp prove the
// gradients are right; this file proves the vector kernels did not reorder
// a single sum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "nn/conv3d.hpp"

namespace oar::nn {
namespace {

struct Grads {
  Tensor out, grad_input, grad_weight, grad_bias;
};

/// The reference: one output element at a time, terms in the order the
/// kernels promise.  Forward: bias, then (ic, k0, k1, k2), zero weights
/// skipped.  Input gradient: +0, then (oc, k0, k1, k2).  Weight and bias
/// gradients: a double sum over outputs in (o0, o1, o2) order, rounded to
/// float and added to the gradient already there.
Grads naive(const Tensor& in, const Tensor& w, const Tensor& b,
            const Tensor& go, const Tensor& gw0, const Tensor& gb0,
            std::int32_t K, std::int32_t p) {
  const std::int32_t IC = in.shape(0), D0 = in.shape(1), D1 = in.shape(2),
                     D2 = in.shape(3);
  const std::int32_t OC = w.shape(0);
  const std::int32_t O0 = D0 + 2 * p - K + 1, O1 = D1 + 2 * p - K + 1,
                     O2 = D2 + 2 * p - K + 1;
  const auto x_at = [&](const Tensor& t, std::int32_t c, std::int32_t a,
                        std::int32_t b1, std::int32_t b2) {
    return t[((std::int64_t(c) * t.shape(1) + a) * t.shape(2) + b1) * t.shape(3) + b2];
  };
  const auto w_at = [&](std::int32_t oc, std::int32_t ic, std::int32_t k0,
                        std::int32_t k1, std::int32_t k2) {
    return w[(((std::int64_t(oc) * IC + ic) * K + k0) * K + k1) * K + k2];
  };
  const auto inside = [](std::int32_t v, std::int32_t n) { return v >= 0 && v < n; };

  Grads g{Tensor({OC, O0, O1, O2}), Tensor(in.shape()), gw0, gb0};
  std::int64_t i = 0;
  for (std::int32_t oc = 0; oc < OC; ++oc)
    for (std::int32_t o0 = 0; o0 < O0; ++o0)
      for (std::int32_t o1 = 0; o1 < O1; ++o1)
        for (std::int32_t o2 = 0; o2 < O2; ++o2, ++i) {
          float acc = b[oc];
          for (std::int32_t ic = 0; ic < IC; ++ic)
            for (std::int32_t k0 = 0; k0 < K; ++k0)
              for (std::int32_t k1 = 0; k1 < K; ++k1)
                for (std::int32_t k2 = 0; k2 < K; ++k2) {
                  const std::int32_t z0 = o0 + k0 - p, z1 = o1 + k1 - p, z2 = o2 + k2 - p;
                  const float wv = w_at(oc, ic, k0, k1, k2);
                  if (wv == 0.0f || !inside(z0, D0) || !inside(z1, D1) || !inside(z2, D2)) continue;
                  acc += wv * x_at(in, ic, z0, z1, z2);
                }
          g.out[i] = acc;
        }

  i = 0;
  for (std::int32_t ic = 0; ic < IC; ++ic)
    for (std::int32_t z0 = 0; z0 < D0; ++z0)
      for (std::int32_t z1 = 0; z1 < D1; ++z1)
        for (std::int32_t z2 = 0; z2 < D2; ++z2, ++i) {
          float acc = 0.0f;
          for (std::int32_t oc = 0; oc < OC; ++oc)
            for (std::int32_t k0 = 0; k0 < K; ++k0)
              for (std::int32_t k1 = 0; k1 < K; ++k1)
                for (std::int32_t k2 = 0; k2 < K; ++k2) {
                  const std::int32_t o0 = z0 + p - k0, o1 = z1 + p - k1, o2 = z2 + p - k2;
                  if (!inside(o0, O0) || !inside(o1, O1) || !inside(o2, O2)) continue;
                  acc += w_at(oc, ic, k0, k1, k2) * x_at(go, oc, o0, o1, o2);
                }
          g.grad_input[i] = acc;
        }

  i = 0;
  for (std::int32_t oc = 0; oc < OC; ++oc)
    for (std::int32_t ic = 0; ic < IC; ++ic)
      for (std::int32_t k0 = 0; k0 < K; ++k0)
        for (std::int32_t k1 = 0; k1 < K; ++k1)
          for (std::int32_t k2 = 0; k2 < K; ++k2, ++i) {
            double acc = 0.0;
            for (std::int32_t o0 = 0; o0 < O0; ++o0)
              for (std::int32_t o1 = 0; o1 < O1; ++o1)
                for (std::int32_t o2 = 0; o2 < O2; ++o2) {
                  const std::int32_t z0 = o0 + k0 - p, z1 = o1 + k1 - p, z2 = o2 + k2 - p;
                  if (!inside(z0, D0) || !inside(z1, D1) || !inside(z2, D2)) continue;
                  acc += double(x_at(go, oc, o0, o1, o2)) * x_at(in, ic, z0, z1, z2);
                }
            g.grad_weight[i] += float(acc);
          }

  for (std::int32_t oc = 0; oc < OC; ++oc) {
    double acc = 0.0;
    const std::int64_t n = std::int64_t(O0) * O1 * O2;
    for (std::int64_t j = 0; j < n; ++j) acc += go[oc * n + j];
    g.grad_bias[oc] += float(acc);
  }
  return g;
}

void expect_bitwise(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    std::uint32_t a, b;
    std::memcpy(&a, got.data() + i, 4);
    std::memcpy(&b, want.data() + i, 4);
    ASSERT_EQ(a, b) << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Runs a training forward and backward of `conv` on `in` and compares all
/// four results with the naive reference.  The gradients start from random
/// values, so the kernels' accumulate-into semantics are covered too.
void check_conv(Conv3d& conv, const Tensor& in, std::uint64_t seed) {
  util::Rng rng(seed);
  conv.set_training(true);
  conv.weight().grad = Tensor::randn(conv.weight().value.shape(), rng, 1.0f);
  conv.bias().grad = Tensor::randn(conv.bias().value.shape(), rng, 1.0f);
  const Tensor gw0 = conv.weight().grad, gb0 = conv.bias().grad;

  const Tensor out = conv.forward(in);
  const Tensor go = Tensor::randn(out.shape(), rng, 1.0f);
  const Tensor gin = conv.backward(go);
  const Grads want = naive(in, conv.weight().value, conv.bias().value, go, gw0,
                           gb0, conv.kernel(), conv.padding());
  expect_bitwise(out, want.out, "forward");
  expect_bitwise(gin, want.grad_input, "grad_input");
  expect_bitwise(conv.weight().grad, want.grad_weight, "grad_weight");
  expect_bitwise(conv.bias().grad, want.grad_bias, "grad_bias");
}

Tensor random_volume(std::int32_t C, std::int32_t H, std::int32_t V,
                     std::int32_t M, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn({C, H, V, M}, rng, 1.0f);
}

/// (IC, OC, K) over every channel count the U-Net uses plus odd ones.
class Conv3dTrainKernel
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t, std::int32_t>> {};

TEST_P(Conv3dTrainKernel, BitwiseEqualsNaiveLoops) {
  const auto [IC, OC, K] = GetParam();
  // H != V everywhere; M covers 1, the quick-train 2 and 3, 8 and 10.
  const std::int32_t shapes[][3] = {{5, 4, 1}, {4, 6, 2}, {6, 5, 3}, {3, 4, 8}, {4, 3, 10}};
  std::uint64_t seed = std::uint64_t(IC) * 1000 + std::uint64_t(OC) * 10 + std::uint64_t(K);
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << s[0] << "x" << s[1] << "x" << s[2]);
    util::Rng rng(++seed);
    Conv3d conv(IC, OC, K, rng);
    util::Rng brng(seed ^ 0xb1a5);
    conv.bias().value = Tensor::randn({OC}, brng, 1.0f);
    check_conv(conv, random_volume(IC, s[0], s[1], s[2], seed), seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Channels, Conv3dTrainKernel,
    ::testing::Combine(::testing::Values(1, 7, 8, 16, 32),
                       ::testing::Values(1, 7, 8, 16, 32),
                       ::testing::Values(1, 3)));

TEST(Conv3dTrainKernelCases, ExactZeroWeightsAreSkipped) {
  // Scattered zeros, one output channel and one input channel all zero:
  // partially and wholly zero blocks of the vector kernels.
  for (const std::int32_t K : {1, 3}) {
    util::Rng rng(90 + std::uint64_t(K));
    Conv3d conv(16, 16, K, rng);
    conv.bias().value = Tensor::randn({16}, rng, 1.0f);
    Tensor& w = conv.weight().value;
    const std::int64_t k3 = std::int64_t(K) * K * K;
    for (std::int64_t i = 0; i < w.numel(); i += 3) w[i] = 0.0f;
    for (std::int64_t i = 0; i < 16 * k3; ++i) w[5 * 16 * k3 + i] = 0.0f;  // oc 5
    for (std::int32_t oc = 0; oc < 16; ++oc) {
      for (std::int64_t k = 0; k < k3; ++k) w[(oc * 16 + 11) * k3 + k] = 0.0f;  // ic 11
    }
    check_conv(conv, random_volume(16, 6, 5, 3, 91), 92);
  }
}

TEST(Conv3dTrainKernelCases, AllWeightsZero) {
  util::Rng rng(93);
  Conv3d conv(8, 8, 3, rng);
  conv.weight().value.fill(0.0f);
  conv.bias().value = Tensor::randn({8}, rng, 1.0f);
  check_conv(conv, random_volume(8, 4, 5, 2, 94), 95);
}

TEST(Conv3dTrainKernelCases, ZeroInputAndZeroBias) {
  for (const std::int32_t K : {1, 3}) {
    util::Rng rng(96);
    Conv3d conv(7, 8, K, rng);
    conv.bias().value.fill(0.0f);
    check_conv(conv, Tensor({7, 5, 4, 3}), 97);
  }
}

TEST(Conv3dTrainKernelCases, SparseReluLikeInput) {
  // Post-ReLU activations: about half the inputs exactly +0.
  util::Rng rng(98);
  Conv3d conv(24, 8, 3, rng);
  conv.bias().value = Tensor::randn({8}, rng, 1.0f);
  Tensor in = random_volume(24, 12, 12, 3, 99);
  for (std::int64_t i = 0; i < in.numel(); ++i) in[i] = std::max(in[i], 0.0f);
  check_conv(conv, in, 100);
}

TEST(Conv3dTrainKernelCases, NonSamePadding) {
  for (const auto& [K, p] : {std::pair{3, 0}, std::pair{3, 2}, std::pair{1, 1}}) {
    SCOPED_TRACE(testing::Message() << "K " << K << " padding " << p);
    util::Rng rng(101 + std::uint64_t(K * 10 + p));
    Conv3d conv(5, 9, K, rng, p);
    conv.bias().value = Tensor::randn({9}, rng, 1.0f);
    check_conv(conv, random_volume(5, 5, 4, 3, 102), 103);
  }
}

}  // namespace
}  // namespace oar::nn
