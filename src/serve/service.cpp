#include "serve/service.hpp"

#include <algorithm>
#include <cmath>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "serve/batched_selector.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace oar::serve {

using hanan::HananGrid;
using hanan::Vertex;

namespace {

// End-to-end latency family; refresh_gauges() reads its quantiles.
constexpr const char* kRequestLatency = "oar_serve_request_latency_seconds";

// The serving layer's metrics: fixed-size, lock-free families in the
// process-global registry.  Names follow the oar_<subsystem>_<what>_<unit>
// scheme of DESIGN.md §12; the serving integration test pins these
// families.
struct ServeObs {
  obs::Counter& requests;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& batches;
  // SLO family (DESIGN.md §16).
  obs::Counter& slo_deadline_misses;
  obs::Counter& slo_rejected_queue_full;
  obs::Counter& slo_rejected_hopeless;
  obs::Gauge& queue_depth;
  obs::Gauge& cache_entries;
  obs::Gauge& slo_p50_latency;
  obs::Gauge& slo_p99_latency;
  obs::Histogram& batch_occupancy;
  obs::Histogram& request_latency;
  obs::Histogram& queue_wait;
  obs::Histogram& batch_assembly;
  obs::Histogram& inference_latency;
  obs::Histogram& routing_latency;
  obs::Histogram& slo_slack;
};

ServeObs& serve_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static ServeObs o{
      reg.counter("oar_serve_requests_total", "Routing requests submitted"),
      reg.counter("oar_serve_cache_hits_total",
                  "Requests answered from the symmetry-aware result cache"),
      reg.counter("oar_serve_cache_misses_total",
                  "Requests that missed the result cache and were queued"),
      reg.counter("oar_serve_batches_total", "Micro-batches processed"),
      reg.counter("oar_serve_slo_deadline_misses_total",
                  "Served replies that finished after their effective deadline"),
      reg.counter("oar_serve_slo_rejected_queue_full_total",
                  "Requests rejected at admission: queue at max_queue_depth"),
      reg.counter("oar_serve_slo_rejected_hopeless_total",
                  "Requests rejected at admission: deadline slack below floor"),
      reg.gauge("oar_serve_queue_depth", "Requests waiting in the batcher queue"),
      reg.gauge("oar_serve_cache_entries", "Entries resident in the result cache"),
      reg.gauge("oar_serve_slo_p50_latency_seconds",
                "Median end-to-end latency, refreshed at each scrape"),
      reg.gauge("oar_serve_slo_p99_latency_seconds",
                "p99 end-to-end latency, refreshed at each scrape"),
      reg.histogram("oar_serve_batch_occupancy", obs::pow2_buckets(8),
                    "Requests per processed micro-batch"),
      reg.histogram(kRequestLatency, obs::latency_buckets(),
                    "Submit-to-reply latency per request"),
      reg.histogram("oar_serve_queue_wait_seconds", obs::latency_buckets(),
                    "Submit-to-batch-pop wait per queued request"),
      reg.histogram("oar_serve_batch_assembly_seconds", obs::latency_buckets(),
                    "Batch pop to inference dispatch per micro-batch"),
      reg.histogram("oar_serve_inference_seconds", obs::latency_buckets(),
                    "Batched U-Net pass latency per micro-batch"),
      reg.histogram("oar_serve_routing_seconds", obs::latency_buckets(),
                    "OARMST fan-out latency per micro-batch"),
      reg.histogram("oar_serve_slo_slack_seconds", obs::latency_buckets(),
                    "Deadline slack remaining at reply (misses land in the "
                    "zero bucket)"),
  };
  return o;
}

}  // namespace

const char* reply_status_name(ReplyStatus status) {
  switch (status) {
    case ReplyStatus::kOk:
      return "ok";
    case ReplyStatus::kOverloadedQueueFull:
      return "overloaded_queue_full";
    case ReplyStatus::kOverloadedHopelessDeadline:
      return "overloaded_hopeless_deadline";
  }
  return "unknown";
}

void SloConfig::validate() const {
  util::check_field(default_deadline_ms >= 0.0 && std::isfinite(default_deadline_ms),
                    "SloConfig", "default_deadline_ms",
                    "be finite and non-negative (0 disables)",
                    default_deadline_ms);
  util::check_field(min_slack_ms >= 0.0 && std::isfinite(min_slack_ms),
                    "SloConfig", "min_slack_ms", "be finite and non-negative",
                    min_slack_ms);
}

void RouterServiceConfig::validate() const {
  util::check_field(max_batch >= 1, "RouterServiceConfig", "max_batch",
                    "be >= 1 (1 = one request per batch)", max_batch);
  util::check_field(!experience_read_only || !experience_path.empty(),
                    "RouterServiceConfig", "experience_read_only",
                    "require experience_path to name an existing file",
                    experience_read_only);
  slo.validate();
}

std::size_t most_urgent_index(
    const std::vector<std::optional<Clock::time_point>>& deadlines) {
  if (deadlines.empty()) return 0;
  const auto it = detail::most_urgent(
      deadlines.begin(), deadlines.end(),
      [](const std::optional<Clock::time_point>& d)
          -> const std::optional<Clock::time_point>& { return d; });
  return std::size_t(it - deadlines.begin());
}

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

experience::StoreConfig store_config_of(const RouterServiceConfig& config) {
  experience::StoreConfig sc;
  sc.memory_capacity = config.cache_capacity;
  sc.path = config.experience_path;
  sc.read_only = config.experience_read_only;
  sc.flush_batch = config.experience_flush_batch;
  return sc;
}

}  // namespace

RouterService::RouterService(std::shared_ptr<rl::SteinerSelector> selector,
                             RouterServiceConfig config)
    : RouterService(std::move(selector), config,
                    std::make_shared<experience::Store>(
                        store_config_of(config))) {}

RouterService::RouterService(std::shared_ptr<rl::SteinerSelector> selector,
                             RouterServiceConfig config,
                             std::shared_ptr<experience::Store> store)
    : config_(config),
      selector_(std::move(selector)),
      store_(std::move(store)),
      pool_(config.worker_threads) {
  config_.validate();
  if (store_ == nullptr) {
    store_ = std::make_shared<experience::Store>(store_config_of(config_));
  }
  batcher_ = std::thread([this] { batcher_loop(); });
}

RouterService::~RouterService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  batcher_.join();
}

std::future<RouteReply> RouterService::submit(RouteRequest request) {
  serve_obs().requests.inc();
  const Clock::time_point now = Clock::now();

  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = now;
  pending.deadline = pending.request.deadline;
  if (!pending.deadline && config_.slo.default_deadline_ms > 0.0) {
    pending.deadline =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      config_.slo.default_deadline_ms));
  }
  std::future<RouteReply> fut = pending.promise.get_future();

  // A symmetry-store hit is answered even when the deadline is hopeless —
  // the reply is free, so rejecting it would only discard useful work.
  if (caching_enabled()) {
    pending.canon = experience::canonicalize(*pending.request.grid);
    experience::HitTier tier = experience::HitTier::kMiss;
    if (std::optional<experience::ExperienceRecord> hit = store_->get(
            experience::CanonicalKey::from_bytes(pending.canon.key), &tier)) {
      serve_obs().cache_hits.inc();
      RouteReply reply = replay_cached(pending.request, pending.canon, *hit);
      reply.hit_tier = tier;
      const Clock::time_point done = Clock::now();
      reply.total_seconds = seconds_between(now, done);
      if (pending.deadline) {
        serve_obs().slo_slack.observe(
            std::max(0.0, seconds_between(done, *pending.deadline)));
        if (done > *pending.deadline) {
          reply.deadline_met = false;
          serve_obs().slo_deadline_misses.inc();
        }
      }
      serve_obs().request_latency.observe(reply.total_seconds);
      pending.promise.set_value(std::move(reply));
      return fut;
    }
  }

  serve_obs().cache_misses.inc();

  // Admission control: resolve hopeless or over-capacity requests here,
  // synchronously and typed — never by blocking the caller.
  const auto reject = [&](ReplyStatus status) {
    RouteReply reply;
    reply.grid = pending.request.grid;
    reply.status = status;
    reply.deadline_met = false;
    reply.total_seconds = seconds_between(now, Clock::now());
    pending.promise.set_value(std::move(reply));
  };

  if (config_.slo.reject_hopeless && pending.deadline) {
    const double slack_ms = seconds_between(now, *pending.deadline) * 1e3;
    if (slack_ms < config_.slo.min_slack_ms) {
      serve_obs().slo_rejected_hopeless.inc();
      reject(ReplyStatus::kOverloadedHopelessDeadline);
      return fut;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (config_.slo.max_queue_depth > 0 &&
        queue_.size() >= config_.slo.max_queue_depth) {
      serve_obs().slo_rejected_queue_full.inc();
      reject(ReplyStatus::kOverloadedQueueFull);
      return fut;
    }
    queue_.push_back(std::move(pending));
    serve_obs().queue_depth.set(double(queue_.size()));
  }
  cv_.notify_all();
  return fut;
}

RouteReply RouterService::route(std::shared_ptr<const HananGrid> grid) {
  return submit(RouteRequest{std::move(grid), std::nullopt}).get();
}

void RouterService::batcher_loop() {
  for (;;) {
    Batch batch = take_batch();
    if (batch.items.empty()) return;
    process_batch(std::move(batch));
  }
}

RouterService::Batch RouterService::take_batch() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) {
    // Stopping and drained: leave the liveness gauge at its true value
    // instead of whatever the last scrape saw.
    serve_obs().queue_depth.set(0.0);
    return {};
  }

  // Up to max_batch queued requests of any shape, most urgent first
  // (earliest effective deadline, FIFO among the deadline-less).  There is
  // no straggler wait: every request runs its own single-sample forward, so
  // company arriving later could not make the batch any cheaper.
  Batch batch;
  batch.popped = Clock::now();
  while (!queue_.empty() && batch.items.size() < config_.max_batch) {
    const auto next = detail::most_urgent(
        queue_.begin(), queue_.end(),
        [](const Pending& p) -> const std::optional<Clock::time_point>& {
          return p.deadline;
        });
    batch.items.push_back(std::move(*next));
    queue_.erase(next);
  }
  serve_obs().queue_depth.set(double(queue_.size()));
  return batch;
}

void RouterService::process_batch(Batch batch_in) {
  std::vector<Pending>& batch = batch_in.items;
  const Clock::time_point popped = batch_in.popped;
  for (const Pending& p : batch) {
    serve_obs().queue_wait.observe(seconds_between(p.enqueued, popped));
  }
  serve_obs().batches.inc();
  serve_obs().batch_occupancy.observe(double(batch.size()));

  std::vector<const HananGrid*> grids;
  grids.reserve(batch.size());
  for (const Pending& p : batch) grids.push_back(p.request.grid.get());

  // Assembly = batch popped -> inference dispatch: the queue pass and the
  // grid gathering above.
  const double assembly_seconds = seconds_between(popped, Clock::now());
  serve_obs().batch_assembly.observe(assembly_seconds);

  // Stage 1: one single-sample U-Net pass per net of the micro-batch.
  util::Timer infer_timer;
  const std::vector<std::vector<double>> fsp = batched_fsp(*selector_, grids);
  const double infer_seconds = infer_timer.seconds();
  serve_obs().inference_latency.observe(infer_seconds);

  // Stage 2: per-net top-k + OARMST construction across the pool.
  util::Timer route_timer;
  std::vector<route::OarmstResult> results(batch.size());
  pool_.parallel_for(batch.size(), [&](std::size_t i) {
    const HananGrid& grid = *batch[i].request.grid;
    const std::int32_t budget =
        std::max<std::int32_t>(0, std::int32_t(grid.pins().size()) - 2);
    const std::vector<Vertex> steiner =
        rl::SteinerSelector::top_k_valid(grid, fsp[i], budget, {});
    // Per-pool-thread scratch: the maze arrays persist across batches, so
    // steady-state serving does no O(V) routing allocations.
    route::OarmstRouter router(grid);
    results[i] = router.build(grid.pins(), steiner, &route::local_router_scratch());
  });
  const double route_seconds = route_timer.seconds();
  serve_obs().routing_latency.observe(route_seconds);

  const Clock::time_point done = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    route::OarmstResult& res = results[i];

    if (caching_enabled() && res.connected) {
      // Stored in canonical vertex space so symmetry variants hit too.
      // The record also carries the fsp inference and kept Steiner set in
      // pin-stripped base space — the warm-start payload MCTS mines for
      // near-miss priors (experience/record.hpp).
      const HananGrid& grid = *p.request.grid;
      std::vector<float> fsp_f(fsp[i].begin(), fsp[i].end());
      store_->put(experience::build_record(grid, p.canon, res, fsp_f,
                                           res.kept_steiner));
      serve_obs().cache_entries.set(double(store_->memory_entries()));
    }

    RouteReply reply;
    reply.grid = p.request.grid;
    reply.result = std::move(res);
    reply.result.tree.rebind_grid(reply.grid.get());
    reply.cache_hit = false;
    reply.queue_seconds = seconds_between(p.enqueued, popped);
    reply.inference_seconds = infer_seconds;
    reply.routing_seconds = route_seconds;
    reply.total_seconds = seconds_between(p.enqueued, done);
    if (p.deadline) {
      serve_obs().slo_slack.observe(
          std::max(0.0, seconds_between(done, *p.deadline)));
      if (done > *p.deadline) {
        reply.deadline_met = false;
        serve_obs().slo_deadline_misses.inc();
      }
    }
    serve_obs().request_latency.observe(reply.total_seconds);
    p.promise.set_value(std::move(reply));
  }
}

void RouterService::refresh_gauges() {
  ServeObs& o = serve_obs();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    o.queue_depth.set(double(queue_.size()));
  }
  o.cache_entries.set(double(store_->memory_entries()));
  // Percentile gauges are point-in-time quantiles of the end-to-end
  // latency histogram, recomputed at every scrape like the liveness gauges.
  const obs::Snapshot snap = obs::MetricsRegistry::instance().snapshot();
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name != kRequestLatency) continue;
    o.slo_p50_latency.set(obs::histogram_quantile(h, 0.50));
    o.slo_p99_latency.set(obs::histogram_quantile(h, 0.99));
  }
}

std::string RouterService::scrape_prometheus() {
  refresh_gauges();
  return obs::scrape_prometheus();
}

std::string RouterService::scrape_json() {
  refresh_gauges();
  return obs::scrape_json();
}

bool RouterService::caching_enabled() const {
  // The injected-store case must consult the store's own config (our
  // config_'s cache fields are ignored then).
  return store_->config().memory_capacity > 0 || store_->has_disk_tier();
}

RouteReply RouterService::replay_cached(
    const RouteRequest& request, const experience::CanonicalForm& canon,
    const experience::ExperienceRecord& cached) const {
  const HananGrid& grid = *request.grid;
  const std::vector<Vertex> inv =
      experience::inverse_vertex_map(grid, canon.spec);

  RouteReply reply;
  reply.grid = request.grid;
  reply.cache_hit = true;

  route::RouteTree tree(request.grid.get());
  for (const route::GridEdge& e : cached.edges) {
    tree.add_edge(inv[std::size_t(e.a)], inv[std::size_t(e.b)]);
  }
  reply.result.tree = std::move(tree);
  reply.result.cost = cached.cost;
  reply.result.connected = cached.connected;
  reply.result.rebuild_passes = 0;
  reply.result.kept_steiner.reserve(cached.steiner.size());
  for (Vertex v : cached.steiner) {
    reply.result.kept_steiner.push_back(inv[std::size_t(v)]);
  }
  return reply;
}

}  // namespace oar::serve
