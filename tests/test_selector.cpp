#include "rl/selector.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/random_layout.hpp"
#include "hanan/features.hpp"

namespace oar::rl {
namespace {

SelectorConfig tiny_config() {
  SelectorConfig cfg;
  cfg.unet.in_channels = 7;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 11;
  return cfg;
}

HananGrid small_grid() {
  util::Rng rng(4);
  gen::RandomGridSpec spec;
  spec.h = 6;
  spec.v = 6;
  spec.m = 2;
  spec.min_pins = 4;
  spec.max_pins = 4;
  spec.min_obstacles = 3;
  spec.max_obstacles = 3;
  return gen::random_grid(spec, rng);
}

TEST(Selector, EncodeShape) {
  const HananGrid grid = small_grid();
  const nn::Tensor input = SteinerSelector::encode(grid);
  EXPECT_EQ(input.shape(),
            (std::vector<std::int32_t>{7, grid.h_dim(), grid.v_dim(), grid.m_dim()}));
}

TEST(Selector, FspSizeAndRange) {
  SteinerSelector selector(tiny_config());
  const HananGrid grid = small_grid();
  const auto fsp = selector.infer_fsp(grid);
  EXPECT_EQ(std::int64_t(fsp.size()), grid.num_vertices());
  for (double p : fsp) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(Selector, ExtraPinsChangeInference) {
  SteinerSelector selector(tiny_config());
  const HananGrid grid = small_grid();
  const auto base = selector.infer_fsp(grid);
  // Find a valid vertex for the extra pin.
  Vertex extra = hanan::kInvalidVertex;
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    if (!grid.is_pin(v) && !grid.is_blocked(v)) {
      extra = v;
      break;
    }
  }
  ASSERT_NE(extra, hanan::kInvalidVertex);
  const auto with_extra = selector.infer_fsp(grid, {extra});
  double diff = 0.0;
  for (std::size_t i = 0; i < base.size(); ++i) diff += std::abs(base[i] - with_extra[i]);
  EXPECT_GT(diff, 1e-9);
}

TEST(Selector, InferFromFeaturesBitwiseMatchesInferFspInto) {
  // ParallelCombMcts workers encode their leaf themselves and call
  // infer_fsp_from_features; the result must be bitwise the serial
  // infer_fsp_into answer on the same state (the 1-worker == serial anchor).
  SteinerSelector selector(tiny_config());
  const HananGrid grid = small_grid();
  std::vector<Vertex> state;
  for (Vertex v = 0; v < grid.num_vertices() && state.size() < 2; ++v) {
    if (!grid.is_pin(v) && !grid.is_blocked(v)) state.push_back(v);
  }
  ASSERT_EQ(state.size(), 2u);
  std::vector<double> reference;
  selector.infer_fsp_into(grid, state, reference);

  hanan::FeatureCache cache;
  std::vector<float> features(std::size_t(hanan::kNumFeatureChannels) *
                              std::size_t(grid.h_dim()) *
                              std::size_t(grid.v_dim()) *
                              std::size_t(grid.m_dim()));
  cache.encode_into(grid, state, features.data());
  std::vector<double> out;
  selector.infer_fsp_from_features(features.data(), grid.h_dim(), grid.v_dim(),
                                   grid.m_dim(), out);
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], reference[i]) << "fsp diverges at priority " << i;
  }
}

TEST(Selector, TopKExcludesPinsObstaclesAndExtras) {
  SteinerSelector selector(tiny_config());
  const HananGrid grid = small_grid();
  Vertex extra = hanan::kInvalidVertex;
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    if (!grid.is_pin(v) && !grid.is_blocked(v)) {
      extra = v;
      break;
    }
  }
  const auto selected = selector.select_steiner_points(grid, 5, {extra});
  EXPECT_LE(selected.size(), 5u);
  for (Vertex v : selected) {
    EXPECT_FALSE(grid.is_pin(v));
    EXPECT_FALSE(grid.is_blocked(v));
    EXPECT_NE(v, extra);
  }
}

TEST(Selector, TopKZeroOrNegativeIsEmpty) {
  SteinerSelector selector(tiny_config());
  const HananGrid grid = small_grid();
  EXPECT_TRUE(selector.select_steiner_points(grid, 0).empty());
  EXPECT_TRUE(selector.select_steiner_points(grid, -3).empty());
}

TEST(Selector, ZeroBudgetRunsNoForward) {
  // A 2-pin net has Steiner budget 0: the selection is empty whatever fsp
  // says, so the network must not run and its arena stays untouched.
  SteinerSelector selector(tiny_config());
  util::Rng rng(8);
  gen::RandomGridSpec spec;
  spec.h = spec.v = 8;
  spec.m = 2;
  spec.min_pins = spec.max_pins = 2;
  spec.min_obstacles = spec.max_obstacles = 2;
  const HananGrid grid = gen::random_grid(spec, rng);
  ASSERT_EQ(grid.pins().size(), 2u);
  const std::int32_t budget = std::int32_t(grid.pins().size()) - 2;
  EXPECT_TRUE(selector.select_steiner_points(grid, budget).empty());
  const nn::InferenceScratch& arena = selector.net().inference_scratch();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.grow_events(), 0u);
  // A positive budget does run it.
  EXPECT_EQ(selector.select_steiner_points(grid, 1).size(), 1u);
  EXPECT_GT(arena.grow_events(), 0u);
}

TEST(Selector, TopKReturnsHighestProbabilityVertices) {
  SteinerSelector selector(tiny_config());
  const HananGrid grid = small_grid();
  const auto fsp = selector.infer_fsp(grid);
  const auto top2 = SteinerSelector::top_k_valid(grid, fsp, 2, {});
  ASSERT_EQ(top2.size(), 2u);
  const double p0 = fsp[std::size_t(grid.priority_of(top2[0]))];
  const double p1 = fsp[std::size_t(grid.priority_of(top2[1]))];
  EXPECT_GE(p0, p1);
  // No valid vertex beats the first pick.
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    if (grid.is_pin(v) || grid.is_blocked(v)) continue;
    EXPECT_LE(fsp[std::size_t(grid.priority_of(v))], p0 + 1e-12);
  }
}

TEST(Selector, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/selector_ckpt.bin";
  SteinerSelector a(tiny_config());
  ASSERT_TRUE(a.save(path));
  SelectorConfig other = tiny_config();
  other.unet.seed = 555;
  SteinerSelector b(other);
  ASSERT_TRUE(b.load(path));
  const HananGrid grid = small_grid();
  const auto fa = a.infer_fsp(grid);
  const auto fb = b.infer_fsp(grid);
  for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_DOUBLE_EQ(fa[i], fb[i]);
  std::remove(path.c_str());
}

TEST(Selector, ArbitrarySizeInference) {
  SteinerSelector selector(tiny_config());
  for (auto [h, v, m] : {std::tuple{4, 9, 1}, std::tuple{13, 5, 3}, std::tuple{8, 8, 6}}) {
    HananGrid grid(h, v, m, std::vector<double>(std::size_t(h - 1), 1.0),
                   std::vector<double>(std::size_t(v - 1), 1.0), 2.0);
    grid.add_pin(grid.index(0, 0, 0));
    grid.add_pin(grid.index(h - 1, v - 1, m - 1));
    const auto fsp = selector.infer_fsp(grid);
    EXPECT_EQ(std::int64_t(fsp.size()), grid.num_vertices());
  }
}

}  // namespace
}  // namespace oar::rl
