// RouterService walkthrough: several concurrent clients stream routing
// requests (with deadlines) at one service instance.  Demonstrates
// micro-batching, symmetry-aware cache hits (a rotated copy of a routed
// layout is answered from the cache) and the service's metric families in
// the Prometheus scrape.
//
// Usage: serve_demo [clients] [requests-per-client]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/oarsmtrl.hpp"
#include "gen/random_layout.hpp"
#include "rl/augment.hpp"
#include "serve/service.hpp"

int main(int argc, char** argv) {
  using namespace oar;

  const int clients = argc > 1 ? std::atoi(argv[1]) : 4;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 6;

  auto selector = core::load_or_train_pretrained(/*fallback_stages=*/2);

  // A small shared pool of layouts so clients repeat each other's work —
  // that is what the cache is for.  Half the lookups use a rotated copy to
  // show that symmetry variants hit the same entry.
  gen::RandomGridSpec spec;  // 16x16x4
  util::Rng rng(7);
  std::vector<std::shared_ptr<const hanan::HananGrid>> layouts;
  for (int i = 0; i < 8; ++i) {
    layouts.push_back(
        std::make_shared<const hanan::HananGrid>(gen::random_grid(spec, rng)));
  }
  rl::AugmentSpec quarter_turn;
  quarter_turn.rotation = 1;

  serve::RouterServiceConfig cfg;
  cfg.max_batch = 8;
  serve::RouterService service(selector, cfg);

  std::atomic<int> hits{0}, misses{0}, deadline_misses{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      util::Rng pick(100 + c);
      for (int r = 0; r < per_client; ++r) {
        auto grid = layouts[pick.uniform_int(0, int(layouts.size()) - 1)];
        if (pick.uniform_int(0, 1) == 1) {
          grid = std::make_shared<const hanan::HananGrid>(
              rl::transform_grid(*grid, quarter_turn));
        }
        serve::RouteRequest request;
        request.grid = grid;
        request.deadline =
            serve::Clock::now() + std::chrono::milliseconds(250);
        const serve::RouteReply reply = service.submit(std::move(request)).get();
        ++(reply.cache_hit ? hits : misses);
        if (!reply.deadline_met) ++deadline_misses;
        std::printf(
            "client %d req %d: cost %7.0f  %s%s  %5.1f ms total\n", c, r,
            reply.result.cost, reply.cache_hit ? "cache-hit " : "routed    ",
            reply.deadline_met ? "" : " DEADLINE MISSED", reply.total_seconds * 1e3);
      }
    });
  }
  for (auto& w : workers) w.join();

  const int requests = hits + misses;
  std::printf("\n%d requests, %d cache hits (%.0f%%), %d misses, "
              "%d deadline misses\n\n",
              requests, hits.load(),
              requests == 0 ? 0.0 : 100.0 * hits / requests, misses.load(),
              deadline_misses.load());

  // The serving families of the scrape (bucket series omitted for brevity).
  std::istringstream scrape(service.scrape_prometheus());
  for (std::string line; std::getline(scrape, line);) {
    if (line.rfind("oar_serve_", 0) == 0 &&
        line.find("_bucket{") == std::string::npos) {
      std::printf("  %s\n", line.c_str());
    }
  }
  return 0;
}
