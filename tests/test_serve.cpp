#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>

#include "experience/canonical.hpp"
#include "gen/random_layout.hpp"
#include "obs/metrics.hpp"
#include "serve/batched_selector.hpp"

namespace oar::serve {
namespace {

using hanan::Vertex;

/// A registry counter's current value, read through a snapshot so probing
/// never registers a family (0 when absent, e.g. under NO_METRICS).
std::uint64_t counter_value(const std::string& name) {
  for (const obs::CounterSample& c :
       obs::MetricsRegistry::instance().snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

rl::SelectorConfig tiny_config() {
  rl::SelectorConfig cfg;
  cfg.unet.in_channels = 7;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 11;
  return cfg;
}

HananGrid small_grid(std::uint64_t seed = 4) {
  util::Rng rng(seed);
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

std::set<std::pair<Vertex, Vertex>> edge_set(const route::RouteTree& tree) {
  std::set<std::pair<Vertex, Vertex>> out;
  for (const route::GridEdge& e : tree.edges()) out.insert({e.a, e.b});
  return out;
}

TEST(Canonical, AllSixteenSymmetriesShareOneKey) {
  const HananGrid grid = small_grid();
  const experience::CanonicalForm base = experience::canonicalize(grid);
  EXPECT_TRUE(base.symmetric);
  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    const HananGrid variant = rl::transform_grid(grid, spec);
    const experience::CanonicalForm form = experience::canonicalize(variant);
    EXPECT_EQ(form.key, base.key);
  }
}

TEST(Canonical, FastOrbitSerializationMatchesReference) {
  const HananGrid grid = small_grid();
  // Reference: serialize the fully constructed transformed grids.
  std::string expect;
  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    std::string key =
        experience::serialize_grid(rl::transform_grid(grid, spec));
    if (expect.empty() || key < expect) expect = std::move(key);
  }
  EXPECT_EQ(experience::canonicalize(grid).key, expect);
}

TEST(Canonical, DistinctLayoutsGetDistinctKeys) {
  EXPECT_NE(experience::canonicalize(small_grid(4)).key,
            experience::canonicalize(small_grid(5)).key);
}

TEST(Canonical, CostBiasOverlayForcesIdentityKey) {
  // A congestion overlay (full-chip negotiation) breaks the symmetry
  // orbit: canonicalize must fall back to the identity key, and two
  // different overlay states must never alias one cache entry.
  HananGrid grid = small_grid();
  const experience::CanonicalForm plain = experience::canonicalize(grid);
  ASSERT_TRUE(plain.symmetric);

  grid.set_edge_cost_bias(0, hanan::Dir::kPosX, 2.5);
  const experience::CanonicalForm biased = experience::canonicalize(grid);
  EXPECT_FALSE(biased.symmetric);
  EXPECT_NE(biased.key, plain.key);

  grid.set_edge_cost_bias(0, hanan::Dir::kPosX, 3.5);
  EXPECT_NE(experience::canonicalize(grid).key, biased.key);

  // Clearing the overlay restores the symmetric orbit key exactly.
  grid.clear_edge_cost_biases();
  const experience::CanonicalForm restored = experience::canonicalize(grid);
  EXPECT_TRUE(restored.symmetric);
  EXPECT_EQ(restored.key, plain.key);
}

TEST(Canonical, InverseVertexMapRoundTrips) {
  const HananGrid grid = small_grid();
  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    const std::vector<Vertex> inv =
        experience::inverse_vertex_map(grid, spec);
    for (Vertex v = 0; v < grid.num_vertices(); ++v) {
      EXPECT_EQ(inv[std::size_t(rl::transform_vertex(grid, v, spec))], v);
    }
  }
}

rl::SelectorConfig direct_config() {
  // base 8 / depth 2: every 3x3x3 conv runs the register-tiled line kernel.
  rl::SelectorConfig cfg = tiny_config();
  cfg.unet.base_channels = 8;
  cfg.unet.depth = 2;
  return cfg;
}

HananGrid layered_grid(std::uint64_t seed, std::int32_t m) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = 8;
  spec.v = 7;
  spec.m = m;
  spec.min_pins = 4;
  spec.max_pins = 5;
  spec.min_obstacles = 3;
  spec.max_obstacles = 3;
  return gen::random_grid(spec, rng);
}

TEST(BatchedSelector, MatchesSingleSampleInference) {
  // A micro-batch is a scheduling unit: each grid's fsp must be bitwise
  // the lone infer_fsp answer, on the im2col and the line-kernel configs.
  for (const rl::SelectorConfig& cfg : {tiny_config(), direct_config()}) {
    for (const std::int32_t m : {2, 3, 6}) {
      SCOPED_TRACE(testing::Message() << "base " << cfg.unet.base_channels
                                      << " M " << m);
      rl::SteinerSelector selector(cfg);
      std::vector<HananGrid> grids;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        grids.push_back(layered_grid(seed, m));
      }
      std::vector<const HananGrid*> ptrs;
      for (const HananGrid& g : grids) ptrs.push_back(&g);

      const auto batched = batched_fsp(selector, ptrs);
      ASSERT_EQ(batched.size(), grids.size());
      for (std::size_t i = 0; i < grids.size(); ++i) {
        EXPECT_EQ(batched[i], selector.infer_fsp(grids[i])) << "grid " << i;
      }
    }
  }
}

/// A layout large enough that routing it keeps the batcher busy for far
/// longer than the tests' 50 ms settle sleeps (~150 ms on one AVX2
/// core even with the line-kernel selector).
std::shared_ptr<const HananGrid> slow_grid() {
  util::Rng rng(3);
  gen::RandomGridSpec spec;
  spec.h = 128;
  spec.v = 128;
  spec.m = 8;
  spec.min_pins = 4;
  spec.max_pins = 4;
  spec.min_obstacles = 2;
  spec.max_obstacles = 2;
  return std::make_shared<const HananGrid>(gen::random_grid(spec, rng));
}

TEST(RouterService, ReplyDoesNotDependOnItsBatch) {
  // The same layout routed alone and taken in a burst of four requests
  // must get the identical tree: fsp bits, and with them the top-k Steiner
  // set, may not depend on batch composition.
  auto selector = std::make_shared<rl::SteinerSelector>(direct_config());
  RouterServiceConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_capacity = 0;  // every request reaches the network
  RouterService service(selector, cfg);

  const auto alone_grid = std::make_shared<const HananGrid>(layered_grid(7, 3));
  const RouteReply alone = service.route(alone_grid);
  ASSERT_TRUE(alone.result.connected);

  // Pin the batcher on a slow request so the whole burst queues up behind
  // it and is taken as one batch.
  auto pin = service.submit({slow_grid(), std::nullopt});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t batches_before = counter_value("oar_serve_batches_total");
  std::vector<std::future<RouteReply>> burst;
  burst.push_back(service.submit(
      {std::make_shared<const HananGrid>(layered_grid(7, 3)), std::nullopt}));
  for (std::uint64_t seed = 8; seed <= 10; ++seed) {
    burst.push_back(service.submit(
        {std::make_shared<const HananGrid>(layered_grid(seed, 3)), std::nullopt}));
  }
  std::vector<RouteReply> replies;
  for (auto& f : burst) replies.push_back(f.get());
  EXPECT_TRUE(pin.get().result.connected);
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(counter_value("oar_serve_batches_total") - batches_before, 1u);
  }

  const RouteReply& fused = replies.front();
  ASSERT_TRUE(fused.result.connected);
  EXPECT_FALSE(fused.cache_hit);
  EXPECT_EQ(fused.result.cost, alone.result.cost);
  EXPECT_EQ(edge_set(fused.result.tree), edge_set(alone.result.tree));
  EXPECT_EQ(fused.result.kept_steiner, alone.result.kept_steiner);
}

TEST(RouterService, MixedShapesShareOneBatchInDeadlineOrder) {
  // While the batcher routes a slow request, four requests of three shapes
  // queue up.  The next batch takes max_batch = 3 of them, whatever their
  // shape, in deadline order: the deadline-less request, submitted first,
  // is left for the batch after.
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterServiceConfig cfg;
  cfg.max_batch = 3;
  cfg.cache_capacity = 0;
  RouterService service(selector, cfg);

  auto pin = service.submit({slow_grid(), std::nullopt});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto grid = [](std::uint64_t seed, std::int32_t m) {
    return std::make_shared<const HananGrid>(layered_grid(seed, m));
  };
  const Clock::time_point now = Clock::now();
  auto relaxed = service.submit({grid(1, 2), std::nullopt});
  std::vector<std::future<RouteReply>> urgent;
  urgent.push_back(service.submit({grid(2, 3), now + std::chrono::seconds(60)}));
  urgent.push_back(service.submit({grid(3, 6), now + std::chrono::seconds(30)}));
  urgent.push_back(service.submit({grid(4, 2), now + std::chrono::seconds(45)}));

  std::vector<RouteReply> replies;
  for (auto& f : urgent) replies.push_back(f.get());
  const RouteReply relaxed_reply = relaxed.get();
  EXPECT_TRUE(pin.get().result.connected);
  EXPECT_TRUE(relaxed_reply.result.connected);
  for (const RouteReply& r : replies) {
    EXPECT_TRUE(r.result.connected);
    // Stage timings are per batch: one batch reports one timing to all.
    EXPECT_EQ(r.inference_seconds, replies.front().inference_seconds);
    EXPECT_EQ(r.routing_seconds, replies.front().routing_seconds);
    // Enqueued first, popped later.
    EXPECT_GT(relaxed_reply.queue_seconds, r.queue_seconds);
  }
}

TEST(RouterService, CacheHitReturnsIdenticalTree) {
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterServiceConfig cfg;
  cfg.max_batch = 4;
  RouterService service(selector, cfg);
  const std::uint64_t hits_before = counter_value("oar_serve_cache_hits_total");

  const auto grid = std::make_shared<const HananGrid>(small_grid());
  const RouteReply cold = service.route(grid);
  ASSERT_TRUE(cold.result.connected);
  EXPECT_FALSE(cold.cache_hit);

  const RouteReply warm = service.route(grid);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.result.connected);
  EXPECT_DOUBLE_EQ(warm.result.cost, cold.result.cost);
  EXPECT_EQ(edge_set(warm.result.tree), edge_set(cold.result.tree));
  EXPECT_EQ(warm.result.kept_steiner.size(), cold.result.kept_steiner.size());
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(counter_value("oar_serve_cache_hits_total") - hits_before, 1u);
  }
}

TEST(RouterService, RotatedLayoutHitsSameCacheEntry) {
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterService service(selector, {});

  const auto grid = std::make_shared<const HananGrid>(small_grid());
  const RouteReply cold = service.route(grid);
  ASSERT_TRUE(cold.result.connected);

  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    const auto variant =
        std::make_shared<const HananGrid>(rl::transform_grid(*grid, spec));
    const RouteReply reply = service.route(variant);
    EXPECT_TRUE(reply.cache_hit);
    // Symmetries preserve step costs, so the replayed tree costs the same
    // and must be a valid tree over the variant's own pins.
    EXPECT_DOUBLE_EQ(reply.result.cost, cold.result.cost);
    EXPECT_EQ(reply.result.tree.validate(variant->pins()), "");
  }
  EXPECT_EQ(service.cache_size(), 1u);
}

TEST(RouterService, ExpiredDeadlineIsFlagged) {
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterService service(selector, {});
  const std::uint64_t misses_before =
      counter_value("oar_serve_slo_deadline_misses_total");

  RouteRequest request;
  request.grid = std::make_shared<const HananGrid>(small_grid());
  request.deadline = Clock::now() - std::chrono::seconds(1);
  const RouteReply reply = service.submit(std::move(request)).get();
  EXPECT_TRUE(reply.result.connected);  // still routed, just late
  EXPECT_FALSE(reply.deadline_met);
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(counter_value("oar_serve_slo_deadline_misses_total") -
                  misses_before,
              1u);
  }
}

TEST(RouterService, ConcurrentClientsAllComplete) {
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterServiceConfig cfg;
  cfg.max_batch = 4;
  RouterService service(selector, cfg);
  const std::uint64_t requests_before =
      counter_value("oar_serve_requests_total");
  const std::uint64_t hits_before = counter_value("oar_serve_cache_hits_total");

  std::vector<std::shared_ptr<const HananGrid>> layouts;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    layouts.push_back(std::make_shared<const HananGrid>(small_grid(s)));
  }

  constexpr int kClients = 4, kPerClient = 6;
  std::atomic<int> connected{0}, hits{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const auto& grid = layouts[std::size_t(c + r) % layouts.size()];
        const RouteReply reply =
            service.submit(RouteRequest{grid, std::nullopt}).get();
        if (reply.result.connected) connected++;
        if (reply.cache_hit) hits++;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(connected.load(), kClients * kPerClient);
  // Only 3 distinct layouts exist; concurrent first touches may each miss,
  // but the steady state must be hits and at most 3 entries.
  EXPECT_GE(hits.load(), 1);
  EXPECT_LE(service.cache_size(), 3u);
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(counter_value("oar_serve_requests_total") - requests_before,
              std::uint64_t(kClients * kPerClient));
    EXPECT_EQ(counter_value("oar_serve_cache_hits_total") - hits_before,
              std::uint64_t(hits.load()));
  }
}

}  // namespace
}  // namespace oar::serve
