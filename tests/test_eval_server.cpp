// EvalServer unit battery (DESIGN.md §15): batch-of-one bitwise anchor,
// same-shape grouping vs. singles, flush-on-timeout for lone requests,
// bounded-queue backpressure, and clean shutdown (drain and cancel).
//
// The backpressure / cancellation tests use an "anchor" request of a
// different grid shape: the drain thread collects it and then sits in its
// straggler wait (a long flush_us), during which requests of the OTHER
// shape pile up in the bounded queue — the only way to observe a full
// queue from the outside, since normally the drain empties it immediately.

#include "mcts/eval_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "gen/random_layout.hpp"
#include "hanan/features.hpp"

namespace oar::mcts {
namespace {

using hanan::HananGrid;
using hanan::Vertex;

rl::SelectorConfig tiny_config() {
  rl::SelectorConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 33;
  return cfg;
}

HananGrid test_grid(std::uint64_t seed, std::int32_t h = 6, std::int32_t v = 6,
                    std::int32_t m = 2, std::int32_t pins = 4) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = h;
  spec.v = v;
  spec.m = m;
  spec.min_pins = pins;
  spec.max_pins = pins;
  spec.min_obstacles = 2;
  spec.max_obstacles = 4;
  spec.min_edge_cost = 1;
  spec.max_edge_cost = 10;
  return gen::random_grid(spec, rng);
}

std::size_t feature_numel(const HananGrid& grid) {
  return std::size_t(hanan::kNumFeatureChannels) * std::size_t(grid.h_dim()) *
         std::size_t(grid.v_dim()) * std::size_t(grid.m_dim());
}

/// First `n` non-pin non-blocked vertices: a deterministic extra-pin state.
std::vector<Vertex> some_state(const HananGrid& grid, std::size_t n) {
  std::vector<Vertex> out;
  for (Vertex v = 0; v < grid.num_vertices() && out.size() < n; ++v) {
    if (!grid.is_pin(v) && !grid.is_blocked(v)) out.push_back(v);
  }
  return out;
}

TEST(EvalServer, BatchOfOneBitwiseMatchesSerialSelector) {
  rl::SteinerSelector selector(tiny_config());
  const HananGrid grid = test_grid(1);
  const std::vector<Vertex> state = some_state(grid, 2);
  // Reference through the serial selector path BEFORE the server exists.
  std::vector<double> reference;
  selector.infer_fsp_into(grid, state, reference);

  EvalServer server(selector, {});
  hanan::FeatureCache cache;
  std::vector<float> features(feature_numel(grid));
  cache.encode_into(grid, state, features.data());
  std::vector<double> out;
  server.submit(grid, features.data(), out).get();

  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Bitwise: the batch-of-one path runs the same single-sample engine on
    // the same feature bits.
    EXPECT_EQ(out[i], reference[i]) << "fsp diverges at priority " << i;
  }
  EXPECT_EQ(server.stats().single_batches, 1u);
}

TEST(EvalServer, SameShapeGroupingMatchesSinglesBitwise) {
  rl::SteinerSelector selector(tiny_config());
  const HananGrid grid = test_grid(2, 6, 6, 2, 6);
  constexpr std::size_t kN = 6;
  std::vector<std::vector<Vertex>> states;
  std::vector<std::vector<double>> reference(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    states.push_back(some_state(grid, i));
    selector.infer_fsp_into(grid, states[i], reference[i]);
  }

  EvalServerConfig cfg;
  cfg.eval_batch = 8;
  cfg.flush_us = 200'000;  // generous straggler window: all six must fuse
  EvalServer server(selector, cfg);

  hanan::FeatureCache cache;
  std::vector<std::vector<float>> features(kN);
  std::vector<std::vector<double>> out(kN);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < kN; ++i) {
    features[i].resize(feature_numel(grid));
    cache.encode_into(grid, states[i], features[i].data());
    futures.push_back(server.submit(grid, features[i].data(), out[i]));
  }
  for (auto& f : futures) f.get();

  // Fused requests run the same single-sample engine as the serial path.
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i], reference[i]) << "request " << i;
  }
  // Grouping actually happened: fewer forwards than requests.
  const EvalServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, kN);
  EXPECT_GE(stats.max_batch, 2u);
  EXPECT_LT(stats.batches, kN);
}

TEST(EvalServer, LoneRequestCompletesViaFlushTimeout) {
  rl::SteinerSelector selector(tiny_config());
  const HananGrid grid = test_grid(3);
  EvalServerConfig cfg;
  cfg.eval_batch = 8;     // never fills with one request
  cfg.flush_us = 2'000;   // 2ms straggler wait, then flush
  EvalServer server(selector, cfg);

  hanan::FeatureCache cache;
  std::vector<float> features(feature_numel(grid));
  cache.encode_into(grid, {}, features.data());
  std::vector<double> out;
  server.submit(grid, features.data(), out).get();  // must not hang
  EXPECT_FALSE(out.empty());
  const EvalServer::Stats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_GE(stats.flush_timeouts, 1u);
}

TEST(EvalServer, DifferentShapesAreNeverFused) {
  rl::SteinerSelector selector(tiny_config());
  const HananGrid small = test_grid(4, 5, 5, 2);
  const HananGrid large = test_grid(5, 7, 6, 2);
  std::vector<double> ref_small, ref_large;
  selector.infer_fsp_into(small, {}, ref_small);
  selector.infer_fsp_into(large, {}, ref_large);

  EvalServerConfig cfg;
  cfg.flush_us = 1'000;
  EvalServer server(selector, cfg);
  hanan::FeatureCache cache_s, cache_l;
  std::vector<float> f_small(feature_numel(small)), f_large(feature_numel(large));
  cache_s.encode_into(small, {}, f_small.data());
  cache_l.encode_into(large, {}, f_large.data());
  std::vector<double> out_small, out_large;
  auto fut_s = server.submit(small, f_small.data(), out_small);
  auto fut_l = server.submit(large, f_large.data(), out_large);
  fut_s.get();
  fut_l.get();

  EXPECT_EQ(server.stats().max_batch, 1u);
  EXPECT_EQ(server.stats().batches, 2u);
  ASSERT_EQ(out_small.size(), ref_small.size());
  ASSERT_EQ(out_large.size(), ref_large.size());
  for (std::size_t i = 0; i < out_small.size(); ++i) {
    EXPECT_EQ(out_small[i], ref_small[i]);
  }
  for (std::size_t i = 0; i < out_large.size(); ++i) {
    EXPECT_EQ(out_large[i], ref_large[i]);
  }
}

TEST(EvalServer, BackpressureBlocksInsteadOfDropping) {
  rl::SteinerSelector selector(tiny_config());
  const HananGrid anchor_grid = test_grid(6, 5, 5, 2);
  const HananGrid fill_grid = test_grid(7, 6, 6, 2);

  EvalServerConfig cfg;
  cfg.eval_batch = 8;
  cfg.flush_us = 500'000;  // 500ms: the drain holds the anchor this long
  cfg.queue_capacity = 2;
  EvalServer server(selector, cfg);

  hanan::FeatureCache cache;
  std::vector<float> f_anchor(feature_numel(anchor_grid));
  cache.encode_into(anchor_grid, {}, f_anchor.data());
  std::vector<double> out_anchor;
  auto fut_anchor = server.submit(anchor_grid, f_anchor.data(), out_anchor);
  // Give the drain thread time to collect the anchor and enter its
  // straggler wait; fill-shape requests then stay queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  hanan::FeatureCache fill_cache;
  std::vector<std::vector<float>> f_fill(3);
  std::vector<std::vector<double>> out_fill(3);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 2; ++i) {  // fills queue_capacity
    f_fill[std::size_t(i)].resize(feature_numel(fill_grid));
    fill_cache.encode_into(fill_grid, {}, f_fill[std::size_t(i)].data());
    futs.push_back(
        server.submit(fill_grid, f_fill[std::size_t(i)].data(), out_fill[std::size_t(i)]));
  }

  // The third submit must BLOCK (queue full), not drop or throw.
  std::atomic<bool> third_returned{false};
  f_fill[2].resize(feature_numel(fill_grid));
  fill_cache.encode_into(fill_grid, {}, f_fill[2].data());
  std::thread blocked([&] {
    futs.push_back(server.submit(fill_grid, f_fill[2].data(), out_fill[2]));
    third_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(third_returned.load())
      << "submit returned while the bounded queue was full";

  // Once the anchor flushes, the fill batch drains the queue and the
  // blocked submit proceeds; every future resolves.
  fut_anchor.get();
  blocked.join();
  EXPECT_TRUE(third_returned.load());
  for (auto& f : futs) f.get();
  EXPECT_LE(server.stats().peak_queue_depth, 2u);
  EXPECT_EQ(server.stats().requests, 4u);
}

TEST(EvalServer, ShutdownDrainsPendingRequestsByDefault) {
  rl::SteinerSelector selector(tiny_config());
  const HananGrid anchor_grid = test_grid(8, 5, 5, 2);
  const HananGrid fill_grid = test_grid(9, 6, 6, 2);

  EvalServerConfig cfg;
  cfg.flush_us = 300'000;
  EvalServer server(selector, cfg);

  hanan::FeatureCache cache;
  std::vector<float> f_anchor(feature_numel(anchor_grid));
  cache.encode_into(anchor_grid, {}, f_anchor.data());
  std::vector<double> out_anchor;
  auto fut_anchor = server.submit(anchor_grid, f_anchor.data(), out_anchor);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  hanan::FeatureCache fill_cache;
  std::vector<float> f_fill(feature_numel(fill_grid));
  fill_cache.encode_into(fill_grid, {}, f_fill.data());
  std::vector<double> out_fill;
  auto fut_fill = server.submit(fill_grid, f_fill.data(), out_fill);

  server.shutdown(/*cancel_pending=*/false);  // drains, then joins
  EXPECT_NO_THROW(fut_anchor.get());
  EXPECT_NO_THROW(fut_fill.get());
  EXPECT_FALSE(out_anchor.empty());
  EXPECT_FALSE(out_fill.empty());
  EXPECT_EQ(server.stats().cancelled, 0u);
  EXPECT_THROW(server.submit(fill_grid, f_fill.data(), out_fill),
               std::runtime_error);
}

TEST(EvalServer, ShutdownCancelFailsPendingWithEvalCancelled) {
  rl::SteinerSelector selector(tiny_config());
  const HananGrid anchor_grid = test_grid(10, 5, 5, 2);
  const HananGrid fill_grid = test_grid(11, 6, 6, 2);

  EvalServerConfig cfg;
  cfg.flush_us = 300'000;
  EvalServer server(selector, cfg);

  hanan::FeatureCache cache;
  std::vector<float> f_anchor(feature_numel(anchor_grid));
  cache.encode_into(anchor_grid, {}, f_anchor.data());
  std::vector<double> out_anchor;
  auto fut_anchor = server.submit(anchor_grid, f_anchor.data(), out_anchor);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  hanan::FeatureCache fill_cache;
  std::vector<std::vector<float>> f_fill(2);
  std::vector<std::vector<double>> out_fill(2);
  std::vector<std::future<void>> futs;
  for (std::size_t i = 0; i < 2; ++i) {
    f_fill[i].resize(feature_numel(fill_grid));
    fill_cache.encode_into(fill_grid, {}, f_fill[i].data());
    futs.push_back(server.submit(fill_grid, f_fill[i].data(), out_fill[i]));
  }

  server.shutdown(/*cancel_pending=*/true);
  // The anchor was already collected into the drain's batch: it completes.
  EXPECT_NO_THROW(fut_anchor.get());
  // The queued fill requests are cancelled — failed, never leaked.
  for (auto& f : futs) EXPECT_THROW(f.get(), EvalCancelled);
  EXPECT_EQ(server.stats().cancelled, 2u);
}

TEST(EvalServer, DestructorJoinsWithInflightRequests) {
  rl::SteinerSelector selector(tiny_config());
  const HananGrid grid = test_grid(12);
  std::vector<double> out1, out2;
  hanan::FeatureCache cache;
  std::vector<float> features(feature_numel(grid));
  cache.encode_into(grid, {}, features.data());
  std::future<void> f1, f2;
  {
    EvalServerConfig cfg;
    cfg.flush_us = 100'000;
    EvalServer server(selector, cfg);
    f1 = server.submit(grid, features.data(), out1);
    f2 = server.submit(grid, features.data(), out2);
    // Destructor runs here with the requests possibly still queued: it
    // must drain them (futures resolve) and join without hanging/leaking.
  }
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
  EXPECT_FALSE(out1.empty());
  EXPECT_FALSE(out2.empty());
}

}  // namespace
}  // namespace oar::mcts
