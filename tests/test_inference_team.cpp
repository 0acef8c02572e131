// The inference team (util/team.hpp, DESIGN.md §11) splits every layer of a
// single-sample forward across the hardware threads.  Per-element
// arithmetic is unchanged, so a forward on the team must be bitwise equal
// to the same forward run serially.  The serial reference comes from the
// team's own inline rule: a region started on a util::ThreadPool worker
// runs on that worker alone, so the same call submitted to a pool of one
// is the serial forward.
//
// The int8 engine runs at the process's dispatch level; the CI lanes that
// pin OARSMTRL_SIMD / OARSMTRL_FORCE_SCALAR run this battery at the other
// levels, and SimdKernel.RowRangesStitchToTheFullVolume checks the row
// split of every level's conv kernel in one process.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <memory>
#include <thread>
#include <vector>

#include "gen/random_layout.hpp"
#include "nn/quant/quantize.hpp"
#include "rl/selector.hpp"
#include "util/rng.hpp"
#include "util/team.hpp"
#include "util/thread_pool.hpp"

namespace oar {
namespace {

using hanan::HananGrid;
using hanan::Vertex;

/// base 8 / depth 2 runs the register-tiled line kernel at every 3x3x3
/// layer; base 4 / depth 1 misses its channel counts and runs im2col.
rl::SelectorConfig config(bool direct) {
  rl::SelectorConfig cfg;
  cfg.unet.in_channels = 7;
  cfg.unet.base_channels = direct ? 8 : 4;
  cfg.unet.depth = direct ? 2 : 1;
  cfg.unet.seed = 21;
  return cfg;
}

HananGrid make_grid(std::int32_t h, std::int32_t v, std::int32_t m,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = h;
  spec.v = v;
  spec.m = m;
  spec.min_pins = spec.max_pins = 5;
  spec.min_obstacles = spec.max_obstacles = h * v * m / 40;
  return gen::random_grid(spec, rng);
}

/// 10x10xM for M = 1..12, then the named sizes of the fsp anchors.
std::vector<HananGrid> shapes() {
  std::vector<HananGrid> out;
  for (std::int32_t m = 1; m <= 12; ++m) {
    out.push_back(make_grid(10, 10, m, 500 + std::uint64_t(m)));
  }
  const std::int32_t named[][3] = {{16, 16, 3}, {16, 16, 4}, {16, 16, 7},
                                   {16, 16, 10}, {24, 24, 5}, {24, 24, 6},
                                   {24, 24, 8}, {32, 32, 4}, {32, 32, 8}};
  for (const auto& s : named) {
    out.push_back(make_grid(s[0], s[1], s[2], 900 + std::uint64_t(s[0] + s[2])));
  }
  return out;
}

std::string shape_name(const HananGrid& g) {
  return std::to_string(g.h_dim()) + "x" + std::to_string(g.v_dim()) + "x" +
         std::to_string(g.m_dim());
}

/// The same forward, run on a pool of one: every region inline.
std::vector<double> serial_fsp(rl::SteinerSelector& selector,
                               const HananGrid& grid,
                               const std::vector<Vertex>& extra) {
  util::ThreadPool pool(1);
  return pool.submit([&] { return selector.infer_fsp(grid, extra); }).get();
}

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": team forward differs from the serial forward";
}

class InferenceTeamShapes : public ::testing::TestWithParam<bool> {};

TEST_P(InferenceTeamShapes, Fp32BitwiseEqualsSerial) {
  rl::SteinerSelector selector(config(GetParam()));
  for (const HananGrid& grid : shapes()) {
    const std::vector<Vertex> extra;
    const std::vector<double> serial = serial_fsp(selector, grid, extra);
    const std::vector<double> team = selector.infer_fsp(grid, extra);
    expect_bitwise(serial, team, "fp32 " + shape_name(grid));
  }
}

TEST_P(InferenceTeamShapes, Int8BitwiseEqualsSerial) {
  rl::SteinerSelector selector(config(GetParam()));
  const std::vector<HananGrid> grids = shapes();
  std::vector<const HananGrid*> calibration;
  for (const HananGrid& g : grids) calibration.push_back(&g);
  selector.calibrate_int8(calibration);
  ASSERT_TRUE(selector.int8_active());
  for (const HananGrid& grid : grids) {
    // One extra pin exercises the patched first-layer accumulator too.
    const std::vector<Vertex> extra = {Vertex(grid.num_vertices() / 2)};
    const std::vector<double> serial = serial_fsp(selector, grid, extra);
    const std::vector<double> team = selector.infer_fsp(grid, extra);
    expect_bitwise(serial, team,
                   std::string("int8 (") +
                       nn::simd::level_name(selector.int8_engine()->level()) +
                       ") " + shape_name(grid));
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, InferenceTeamShapes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("direct")
                                             : std::string("im2col");
                         });

TEST(InferenceTeam, ConcurrentSelectorsMatchSerial) {
  // Four selectors forwarding at once: one holds the team per region, the
  // others run that region inline.  Every reply must still be bitwise the
  // serial answer.
  constexpr int kThreads = 4;
  const std::vector<HananGrid> grids = {
      make_grid(24, 24, 6, 41), make_grid(32, 32, 4, 42),
      make_grid(16, 16, 7, 43), make_grid(10, 10, 12, 44)};
  std::vector<std::vector<double>> expect;
  {
    rl::SteinerSelector ref(config(true));
    for (const HananGrid& g : grids) expect.push_back(serial_fsp(ref, g, {}));
  }
  std::vector<std::unique_ptr<rl::SteinerSelector>> selectors;
  for (int t = 0; t < kThreads; ++t) {
    selectors.push_back(std::make_unique<rl::SteinerSelector>(config(true)));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> fsp;
      for (int round = 0; round < 6; ++round) {
        const std::size_t i = std::size_t(t + round) % grids.size();
        selectors[std::size_t(t)]->infer_fsp_into(grids[i], {}, fsp);
        if (fsp != expect[i]) ++mismatches[std::size_t(t)];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[std::size_t(t)], 0) << "thread " << t;
  }
}

TEST(InferenceTeam, ForwardOnAPoolWorkerRunsInline) {
  // A forward inside a pool task (the trainer's self-play clones) must not
  // wait on the team: on a pool worker its regions run inline and the
  // forward completes, bitwise equal to one on the team.
  rl::SteinerSelector selector(config(true));
  const HananGrid grid = make_grid(32, 32, 8, 45);
  const std::vector<double> team = selector.infer_fsp(grid, {});
  util::ThreadPool pool(2);
  std::vector<std::vector<double>> out(2);
  std::vector<std::unique_ptr<rl::SteinerSelector>> clones;
  clones.push_back(std::make_unique<rl::SteinerSelector>(config(true)));
  clones.push_back(std::make_unique<rl::SteinerSelector>(config(true)));
  pool.parallel_for(2, [&](std::size_t i) {
    out[i] = clones[i]->infer_fsp(grid, {});
  });
  expect_bitwise(team, out[0], "pool worker 0");
  expect_bitwise(team, out[1], "pool worker 1");
}

}  // namespace
}  // namespace oar
