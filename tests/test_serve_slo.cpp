// SLO-aware serving battery (DESIGN.md §16): admission control, urgency
// scheduling, deadline stamping, and the batching/metrics regressions —
//   * take_batch's assembly stage is measured, not hard-coded zero,
//   * the queue-depth gauge is refreshed at every mutation point.
// Scheduling tests pin the batcher with a slow first request (a large
// grid): while it is routed, later submissions pile up in the queue.
// Suite names contain "RouterService" on purpose: the CI ThreadSanitizer
// lane selects its battery by that substring.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_layout.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace oar::serve {
namespace {

using hanan::HananGrid;

/// Registry reads through a snapshot, so probing never registers a family
/// (absent families read as zero, e.g. under NO_METRICS).
std::uint64_t counter_value(const std::string& name) {
  for (const obs::CounterSample& c :
       obs::MetricsRegistry::instance().snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

obs::HistogramSample histogram_sample(const obs::Snapshot& snap,
                                      const std::string& name) {
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name == name) return h;
  }
  return {};
}

double gauge_value(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

rl::SelectorConfig tiny_config() {
  rl::SelectorConfig cfg;
  cfg.unet.in_channels = 7;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 11;
  return cfg;
}

std::shared_ptr<rl::SteinerSelector> tiny_selector() {
  return std::make_shared<rl::SteinerSelector>(tiny_config());
}

std::shared_ptr<const HananGrid> grid_of_shape(std::int32_t h, std::int32_t v,
                                               std::int32_t m,
                                               std::uint64_t seed = 4) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = h;
  spec.v = v;
  spec.m = m;
  spec.min_pins = 4;
  spec.max_pins = 4;
  spec.min_obstacles = 2;
  spec.max_obstacles = 2;
  return std::make_shared<const HananGrid>(gen::random_grid(spec, rng));
}

std::shared_ptr<const HananGrid> small_grid(std::uint64_t seed = 4) {
  return grid_of_shape(6, 6, 2, seed);
}

/// A layout large enough that routing it keeps the batcher busy for far
/// longer than the tests' 50 ms settle sleeps (~300 ms on one AVX2
/// core with the tiny selector).
std::shared_ptr<const HananGrid> slow_grid() {
  return grid_of_shape(128, 128, 8, 3);
}

Clock::time_point in_ms(double ms) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
}

TEST(RouterServiceSlo, MostUrgentIndexRule) {
  // Empty and all-deadline-less pick index 0 (FIFO).
  EXPECT_EQ(most_urgent_index({}), 0u);
  EXPECT_EQ(most_urgent_index({std::nullopt, std::nullopt}), 0u);

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point t1 = t0 + std::chrono::milliseconds(10);
  const Clock::time_point t2 = t0 + std::chrono::milliseconds(20);

  // Earliest deadline wins over FIFO order.
  EXPECT_EQ(most_urgent_index({t2, t1, t0}), 2u);
  EXPECT_EQ(most_urgent_index({std::nullopt, t2, t1}), 2u);
  // Any deadline beats no deadline.
  EXPECT_EQ(most_urgent_index({std::nullopt, t2, std::nullopt}), 1u);
  // Deadline ties resolve FIFO (lowest index).
  EXPECT_EQ(most_urgent_index({t1, t1, t0 + std::chrono::milliseconds(30)}),
            0u);
}

TEST(RouterServiceSlo, SloConfigValidates) {
  SloConfig ok;
  EXPECT_NO_THROW(ok.validate());
  SloConfig bad = ok;
  bad.default_deadline_ms = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.min_slack_ms = -0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(RouterServiceSlo, BatchAssemblyStageIsMeasured) {
  // Regression: batch assembly used to be recorded as a hard-coded 0.0.
  // A lone request records exactly one pop -> dispatch interval, and that
  // interval is a real measurement.
  const char* kAssembly = "oar_serve_batch_assembly_seconds";
  const obs::HistogramSample before =
      histogram_sample(obs::MetricsRegistry::instance().snapshot(), kAssembly);
  RouterServiceConfig cfg;
  cfg.max_batch = 8;
  cfg.cache_capacity = 0;
  RouterService service(tiny_selector(), cfg);
  EXPECT_TRUE(service.route(small_grid()).result.connected);
  if (!obs::kMetricsCompiled) return;

  const obs::HistogramSample after =
      histogram_sample(obs::MetricsRegistry::instance().snapshot(), kAssembly);
  ASSERT_EQ(after.count - before.count, 1u);
  EXPECT_GT(after.sum - before.sum, 0.0);
}

TEST(RouterServiceSlo, DefaultDeadlineIsStampedAndFlagged) {
  // A service-level default deadline applies to requests without their
  // own; an (unmeetable) default must flag the reply late but still serve
  // it — reject_hopeless stays off by default.
  RouterServiceConfig cfg;
  cfg.max_batch = 1;
  cfg.cache_capacity = 0;
  cfg.slo.default_deadline_ms = 1e-3;
  RouterService service(tiny_selector(), cfg);
  const std::uint64_t misses_before =
      counter_value("oar_serve_slo_deadline_misses_total");
  const RouteReply reply = service.route(small_grid());
  EXPECT_EQ(reply.status, ReplyStatus::kOk);
  EXPECT_TRUE(reply.result.connected);
  EXPECT_FALSE(reply.deadline_met);
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(counter_value("oar_serve_slo_deadline_misses_total") -
                  misses_before,
              1u);
  }
}

TEST(RouterServiceSlo, HopelessDeadlineRejectsTyped) {
  RouterServiceConfig cfg;
  cfg.max_batch = 1;
  cfg.cache_capacity = 0;
  cfg.slo.reject_hopeless = true;
  RouterService service(tiny_selector(), cfg);
  const std::uint64_t rejected_before =
      counter_value("oar_serve_slo_rejected_hopeless_total");
  const RouteReply reply =
      service.submit(RouteRequest{small_grid(), in_ms(-5.0)}).get();
  EXPECT_EQ(reply.status, ReplyStatus::kOverloadedHopelessDeadline);
  EXPECT_TRUE(reply.overloaded());
  EXPECT_FALSE(reply.deadline_met);
  EXPECT_FALSE(reply.result.connected);
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(counter_value("oar_serve_slo_rejected_hopeless_total") -
                  rejected_before,
              1u);
  }
  // A request with healthy slack is admitted and served.
  const RouteReply ok =
      service.submit(RouteRequest{small_grid(), in_ms(60000.0)}).get();
  EXPECT_EQ(ok.status, ReplyStatus::kOk);
  EXPECT_TRUE(ok.result.connected);
}

TEST(RouterServiceSlo, QueueFullRejectsTyped) {
  // Deterministic overload: the batcher is pinned routing a slow request,
  // so later submissions accumulate in the queue until the admission bound
  // trips.
  RouterServiceConfig cfg;
  cfg.max_batch = 8;
  cfg.cache_capacity = 0;
  cfg.slo.max_queue_depth = 2;
  RouterService service(tiny_selector(), cfg);
  const std::uint64_t rejected_before =
      counter_value("oar_serve_slo_rejected_queue_full_total");

  // Pin the batcher: it takes the slow request alone and routes it.
  auto pin = service.submit(RouteRequest{slow_grid(), std::nullopt});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Queued behind the pinned batch.
  auto q1 = service.submit(RouteRequest{grid_of_shape(5, 5, 1, 7), std::nullopt});
  auto q2 = service.submit(RouteRequest{grid_of_shape(5, 5, 1, 8), std::nullopt});
  auto q3 = service.submit(RouteRequest{grid_of_shape(5, 5, 1, 9), std::nullopt});

  // The third must already be resolved, typed, and empty.
  ASSERT_EQ(q3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const RouteReply rejected = q3.get();
  EXPECT_EQ(rejected.status, ReplyStatus::kOverloadedQueueFull);
  EXPECT_FALSE(rejected.deadline_met);
  EXPECT_FALSE(rejected.result.connected);
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(counter_value("oar_serve_slo_rejected_queue_full_total") -
                  rejected_before,
              1u);
  }

  // Every admitted request is still served as a valid tree.
  EXPECT_TRUE(pin.get().result.connected);
  EXPECT_TRUE(q1.get().result.connected);
  EXPECT_TRUE(q2.get().result.connected);
}

TEST(RouterServiceSlo, UrgentRequestIsScheduledFirst) {
  // While the batcher is pinned on a slow request, enqueue a deadline-less
  // request then a later, urgent one.  With one request per batch, urgency
  // scheduling pops the later, urgent request first: its queue wait must
  // come out shorter.
  RouterServiceConfig cfg;
  cfg.max_batch = 1;
  cfg.cache_capacity = 0;
  RouterService service(tiny_selector(), cfg);

  auto pin = service.submit(RouteRequest{slow_grid(), std::nullopt});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto relaxed =
      service.submit(RouteRequest{grid_of_shape(5, 5, 1, 7), std::nullopt});
  auto urgent = service.submit(
      RouteRequest{grid_of_shape(4, 4, 2, 8), in_ms(60000.0)});

  const RouteReply relaxed_reply = relaxed.get();
  const RouteReply urgent_reply = urgent.get();
  EXPECT_TRUE(pin.get().result.connected);
  EXPECT_TRUE(relaxed_reply.result.connected);
  EXPECT_TRUE(urgent_reply.result.connected);
  // Submitted later but popped earlier => strictly less queue wait.
  EXPECT_LT(urgent_reply.queue_seconds, relaxed_reply.queue_seconds);
}

TEST(RouterServiceSlo, ScrapeCarriesSloFamilies) {
  RouterServiceConfig cfg;
  cfg.max_batch = 1;
  cfg.cache_capacity = 0;
  cfg.slo.default_deadline_ms = 60000.0;
  RouterService service(tiny_selector(), cfg);
  const obs::Snapshot before = obs::MetricsRegistry::instance().snapshot();
  constexpr std::uint64_t kRequests = 5;
  for (std::uint64_t seed = 1; seed <= kRequests; ++seed) {
    EXPECT_TRUE(service.route(small_grid(seed)).result.connected);
  }

  const std::string prom = service.scrape_prometheus();
  if (!obs::kMetricsCompiled) return;  // the scrape is empty
  EXPECT_NE(prom.find("oar_serve_slo_deadline_misses_total"), std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_rejected_queue_full_total"),
            std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_rejected_hopeless_total"),
            std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_slack_seconds"), std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_p50_latency_seconds"), std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_p99_latency_seconds"), std::string::npos);
  EXPECT_NE(prom.find("oar_serve_queue_wait_seconds"), std::string::npos);
  EXPECT_NE(prom.find("oar_serve_batch_assembly_seconds"), std::string::npos);

  // Every reply was delivered before the scrape, so nothing records between
  // the scrape's gauge refresh and this snapshot.
  const obs::Snapshot after = obs::MetricsRegistry::instance().snapshot();
  const auto count_delta = [&](const char* name) {
    return histogram_sample(after, name).count -
           histogram_sample(before, name).count;
  };
  // max_batch = 1: one queue wait and one assembly per served request.
  EXPECT_EQ(count_delta("oar_serve_queue_wait_seconds"), kRequests);
  EXPECT_EQ(count_delta("oar_serve_batch_assembly_seconds"), kRequests);
  EXPECT_EQ(count_delta("oar_serve_request_latency_seconds"), kRequests);

  // The percentile gauges are quantiles of the scraped latency histogram.
  const obs::HistogramSample latency =
      histogram_sample(after, "oar_serve_request_latency_seconds");
  const double p50 = gauge_value(after, "oar_serve_slo_p50_latency_seconds");
  const double p99 = gauge_value(after, "oar_serve_slo_p99_latency_seconds");
  EXPECT_DOUBLE_EQ(p50, obs::histogram_quantile(latency, 0.50));
  EXPECT_DOUBLE_EQ(p99, obs::histogram_quantile(latency, 0.99));
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
}

}  // namespace
}  // namespace oar::serve
