// serve_mixed: an open loop of single-net requests into serve::RouterService.
//
// Why: it exercises the serve queue and micro-batcher, experience-store gets
// beside puts (about 30% of requests are rotations or reflections of an
// earlier one, which the symmetry cache answers), batched U-Net forwards and
// the per-net top-k + OARMST fan-out.  It bypasses mcts and chip.
//
// One generator thread sends Poisson arrivals on a fixed schedule in two
// phases — nominal (30 req/s) and overload (100 req/s) — whatever the
// service's capacity; latency is timed from each request's due time.  The
// phases alternate in short segments, each drained before the next, so both
// sample the whole run: on a shared host the speed of this multi-threaded
// path drifts over tens of seconds, and one contiguous half per phase left
// each phase's figures at the mercy of the drift in its half.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "common.hpp"
#include "experience/record.hpp"
#include "serve/batched_selector.hpp"

namespace perfbench {

using namespace oar;

namespace {

constexpr double kNominalRate = 30.0;    // requests per second
constexpr double kOverloadRate = 100.0;  // requests per second
constexpr double kNominalShare = 0.5;    // of the run's seconds
constexpr int kCycles = 6;               // nominal + overload segment pairs
constexpr double kDeadlineMs = 100.0;
constexpr std::size_t kMaxQueueDepth = 8;
constexpr int kSetupReps = 3;

struct Shape {
  std::int32_t h, v, m;
};
constexpr Shape kShapes[] = {{16, 16, 4}, {24, 24, 6}, {32, 32, 8}};

struct Arrival {
  double due_s = 0.0;  // offset from the phase start
  std::shared_ptr<const hanan::HananGrid> grid;
  std::size_t base = 0;  // index of the untransformed layout
  bool repeat = false;
};

enum Kind { kNominal = 0, kOverload = 1 };
constexpr const char* kKindName[] = {"nominal", "overload"};
constexpr double kKindRate[] = {kNominalRate, kOverloadRate};

/// One segment of the schedule.
struct Phase {
  Kind kind;
  double seconds;
  std::vector<Arrival> arrivals;
};

struct Outcome {
  serve::RouteReply reply;
  double late_s = 0.0;     // submit time - due time
  double latency_s = 0.0;  // due time -> reply
  bool threw = false;
  std::string error;
};

/// Base layouts, shared by all segments' repeats.
struct Inputs {
  std::vector<std::shared_ptr<const hanan::HananGrid>> bases;
  std::vector<Phase> phases;  // nominal, overload, nominal, ...
  double seconds[2] = {0.0, 0.0};  // scheduled seconds per Kind
};

Phase make_phase(Kind kind, double seconds, util::Rng& rng, Inputs& in) {
  const double rate = kKindRate[kind];
  Phase phase{kind, seconds, {}};
  const std::size_t first_base = in.bases.size();
  const auto specs = rl::all_augmentations();
  // Exact shares per round: 3 repeats in every 10 requests, each shape once
  // in every 3 fresh layouts, each pin count 3..6 once in every 4.
  Rounds repeat_slot(10), shape(3), pins(4);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_s = t;
    const bool repeat = repeat_slot.next(rng) < 3;
    if (repeat && in.bases.size() > first_base) {
      a.base = std::size_t(rng.uniform_int(std::int64_t(first_base),
                                           std::int64_t(in.bases.size()) - 1));
      const rl::AugmentSpec& spec = specs[std::size_t(rng.uniform_int(1, 15))];
      a.grid = std::make_shared<const hanan::HananGrid>(
          rl::transform_grid(*in.bases[a.base], spec));
      a.repeat = true;
    } else {
      const Shape& s = kShapes[shape.next(rng)];
      const std::int32_t n = 3 + pins.next(rng);
      in.bases.push_back(std::make_shared<const hanan::HananGrid>(
          make_layout(s.h, s.v, s.m, n, n, rng)));
      a.grid = in.bases.back();
      a.base = in.bases.size() - 1;
    }
    phase.arrivals.push_back(std::move(a));
  }
  return phase;
}

Inputs make_inputs(std::uint64_t seed, double seconds) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5e5e);
  Inputs in;
  const double share[2] = {kNominalShare, 1.0 - kNominalShare};
  for (int c = 0; c < kCycles; ++c) {
    for (Kind kind : {kNominal, kOverload}) {
      in.phases.push_back(make_phase(kind, seconds * share[kind] / kCycles, rng, in));
      in.seconds[kind] += in.phases.back().seconds;
    }
  }
  return in;
}

serve::RouterServiceConfig service_config() {
  serve::RouterServiceConfig cfg;
  cfg.slo.default_deadline_ms = kDeadlineMs;
  cfg.slo.max_queue_depth = kMaxQueueDepth;
  // Two fan-out threads instead of the default one per core: with the
  // generator and batcher threads the load then fits the 4 cores.  At 4 the
  // overload capacity was the same (~82 req/s) but runs on a shared host
  // spread 2-4x wider.
  cfg.worker_threads = 2;
  return cfg;
}

/// Runs one phase open-loop: the calling thread is the generator.
std::vector<Outcome> run_phase(serve::RouterService& svc, const Phase& phase,
                               Tracer* tracer) {
  std::vector<Outcome> out(phase.arrivals.size());
  std::vector<std::future<serve::RouteReply>> futures(phase.arrivals.size());
  std::vector<Clock::time_point> submitted(phase.arrivals.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(phase.arrivals[i].due_s));
  };
  for (std::size_t i = 0; i < phase.arrivals.size(); ++i) {
    std::this_thread::sleep_until(due_of(i));
    submitted[i] = Clock::now();
    out[i].late_s = seconds_between(due_of(i), submitted[i]);
    try {
      futures[i] = svc.submit(serve::RouteRequest{phase.arrivals[i].grid, std::nullopt});
    } catch (const std::exception& e) {
      out[i].threw = true;
      out[i].error = e.what();
    }
  }
  for (std::size_t i = 0; i < phase.arrivals.size(); ++i) {
    if (out[i].threw) continue;
    try {
      out[i].reply = futures[i].get();
    } catch (const std::exception& e) {
      out[i].threw = true;
      out[i].error = e.what();
      continue;
    }
    const serve::RouteReply& r = out[i].reply;
    out[i].latency_s = out[i].late_s + r.total_seconds;
    if (tracer == nullptr) continue;
    // Spans from the reply's own stage timings, laid out inside the
    // request's due -> reply interval.
    const std::uint64_t req = tracer->new_request();
    const auto at = [&](double s) {
      return submitted[i] + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(s));
    };
    const std::uint64_t root =
        tracer->record("request", due_of(i), at(r.total_seconds), req);
    if (r.status != serve::ReplyStatus::kOk) {
      tracer->record("serve.admission", at(0.0), at(r.total_seconds), req, root);
    } else if (r.cache_hit) {
      tracer->record("experience.hit", at(0.0), at(r.total_seconds), req, root);
    } else {
      const double end = r.total_seconds;
      tracer->record("serve.queue", at(0.0), at(r.queue_seconds), req, root);
      tracer->record("nn.batched_fsp",
                     at(end - r.routing_seconds - r.inference_seconds),
                     at(end - r.routing_seconds), req, root);
      tracer->record("route.fanout", at(end - r.routing_seconds), at(end), req, root);
    }
  }
  return out;
}

struct PhaseTally {
  std::int64_t sent = 0, succeeded = 0, refused = 0, failed = 0, in_time = 0,
               hits = 0, repeats = 0;
  // Served cache misses, from due time.  Hits (~0 ms, an exact 30% share)
  // are left out: mixed in, they put p50 and p75 on the cliff between the
  // hit/16x16x4 mode and the larger layouts, where they jump by 2-4x
  // between input sets.
  std::vector<double> latency_ms;
  std::vector<double> queue_ms, inference_ms, routing_ms;  // served misses
  double max_late_ms = 0.0;
  double cost_ratio_sum = 0.0;
  std::int64_t cost_ratio_n = 0;
};

/// Adds one segment's outcomes to its Kind's tally `t`.
void tally(const Phase& phase, const std::vector<Outcome>& outcomes, const Inputs& in,
           std::vector<double>& mst_cache, Report& report, PhaseTally& t) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Arrival& a = phase.arrivals[i];
    const Outcome& o = outcomes[i];
    ++t.sent;
    t.repeats += a.repeat ? 1 : 0;
    t.max_late_ms = std::max(t.max_late_ms, o.late_s * 1e3);
    if (o.threw) {
      ++t.failed;
      report.fail(std::string("serve request threw: ") + o.error);
      continue;
    }
    if (o.reply.status != serve::ReplyStatus::kOk) {
      ++t.refused;  // a typed rejection is a valid answer, not a failure
      continue;
    }
    const std::string why = check_tree(o.reply.result, a.grid->pins());
    if (!why.empty()) {
      ++t.failed;
      report.fail(std::string("serve reply invalid: ") + why);
      continue;
    }
    ++t.succeeded;
    t.hits += o.reply.cache_hit ? 1 : 0;
    if (o.latency_s * 1e3 <= kDeadlineMs) ++t.in_time;
    if (!o.reply.cache_hit) {
      t.latency_ms.push_back(o.latency_s * 1e3);
      t.queue_ms.push_back(o.reply.queue_seconds * 1e3);
      t.inference_ms.push_back(o.reply.inference_seconds * 1e3);
      t.routing_ms.push_back(o.reply.routing_seconds * 1e3);
    }
    double& mst = mst_cache[a.base];
    if (mst == 0.0) mst = steiner::mst_cost(*in.bases[a.base]);
    if (std::isfinite(mst) && mst > 0.0) {
      t.cost_ratio_sum += o.reply.result.cost / mst;
      ++t.cost_ratio_n;
    }
  }
}

void print_tally(Kind kind, double seconds, const PhaseTally& t) {
  std::printf("  phase %-8s rate %5.1f/s over %.1fs in %d segments: sent %lld "
              "succeeded %lld (within %.0f ms: %lld, cache hits %lld) refused %lld "
              "failed %lld repeats %lld generator late max %.2f ms\n",
              kKindName[kind], kKindRate[kind], seconds, kCycles, (long long)t.sent,
              (long long)t.succeeded, kDeadlineMs, (long long)t.in_time,
              (long long)t.hits, (long long)t.refused, (long long)t.failed,
              (long long)t.repeats, t.max_late_ms);
}

/// Service + warm-up: a few requests of every shape, alone and as a full
/// micro-batch, so arenas and pools are sized before timing.
std::unique_ptr<serve::RouterService> make_service(
    std::shared_ptr<rl::SteinerSelector> selector, std::uint64_t seed) {
  auto svc = std::make_unique<serve::RouterService>(std::move(selector),
                                                    service_config());
  util::Rng rng(seed ^ 0xa11ce);
  for (const Shape& s : kShapes) {
    std::vector<std::future<serve::RouteReply>> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(svc->submit(serve::RouteRequest{
          std::make_shared<const hanan::HananGrid>(make_layout(s.h, s.v, s.m, 3, 6, rng)),
          std::nullopt}));
    }
    for (auto& f : batch) f.get();
  }
  svc->experience().clear_memory();
  return svc;
}

void layer_probes(rl::SteinerSelector& selector, const Inputs& in, Tracer& tracer,
                  Report& report) {
  std::vector<double> fsp, topk_us;
  for (const Shape& s : kShapes) {
    std::vector<double> enc_ms, fwd_ms, oar_ms;
    int taken = 0;
    for (const auto& grid : in.bases) {
      if (grid->h_dim() != s.h || grid->m_dim() != s.m || taken >= 8) continue;
      ++taken;
      const std::uint64_t req = tracer.new_request();
      Span root(&tracer, "probe", req);
      {
        const Clock::time_point t0 = Clock::now();
        Span sp(&tracer, "hanan.encode", req, root.id());
        nn::Tensor x = rl::SteinerSelector::encode(*grid);
        enc_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      // First call fills the feature cache; the second times the forward.
      selector.infer_fsp_into(*grid, {}, fsp);
      {
        const Clock::time_point t0 = Clock::now();
        Span sp(&tracer, "nn.forward", req, root.id());
        selector.infer_fsp_into(*grid, {}, fsp);
        fwd_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      std::vector<hanan::Vertex> steiner;
      {
        const Clock::time_point t0 = Clock::now();
        Span sp(&tracer, "rl.topk", req, root.id());
        steiner = rl::SteinerSelector::top_k_valid(
            *grid, fsp, std::max<std::int32_t>(0, std::int32_t(grid->pins().size()) - 2),
            {});
        topk_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      }
      {
        const Clock::time_point t0 = Clock::now();
        Span sp(&tracer, "route.oarmst", req, root.id());
        route::OarmstRouter router(*grid);
        const route::OarmstResult res = router.build(grid->pins(), steiner);
        oar_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        const std::string why = check_tree(res, grid->pins());
        if (!why.empty()) report.fail("probe oarmst tree invalid: " + why);
      }
    }
    const std::string shape = std::to_string(s.h) + "x" + std::to_string(s.v) + "x" +
                              std::to_string(s.m);
    report.set("hanan.encode_ms." + shape, median(enc_ms), "ms");
    report.set("nn.forward_ms." + shape, median(fwd_ms), "ms");
    report.set("route.oarmst_ms." + shape, median(oar_ms), "ms");
  }
  report.set("rl.topk_us", median(topk_us), "us");

  // Batch-8 vs 8 singles on 32x32x8, both from cold features.
  std::vector<std::shared_ptr<const hanan::HananGrid>> big;
  util::Rng rng(0xb8);
  for (int i = 0; i < 8; ++i) {
    big.push_back(std::make_shared<const hanan::HananGrid>(make_layout(32, 32, 8, 3, 6, rng)));
  }
  std::vector<const hanan::HananGrid*> ptrs;
  for (const auto& g : big) ptrs.push_back(g.get());
  util::ThreadPool pool;
  std::vector<double> batch_ms, singles_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t req = tracer.new_request();
    Span root(&tracer, "probe", req);
    Clock::time_point t0 = Clock::now();
    {
      Span sp(&tracer, "nn.forward_batch8", req, root.id());
      serve::batched_fsp(selector, ptrs, &pool);
    }
    batch_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    {
      Span sp(&tracer, "nn.forward_single8", req, root.id());
      for (const hanan::HananGrid* g : ptrs) selector.infer_fsp_into(*g, {}, fsp);
    }
    singles_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  report.set("nn.forward_batch8_ms.32x32x8", median(batch_ms), "ms");
  report.set("nn.batch8_speedup", median(singles_ms) / median(batch_ms), "ratio");

  // The workload's key sequence replayed through a memory-tier Store.
  std::vector<experience::CanonicalForm> forms;
  std::vector<route::OarmstResult> records;
  for (const Phase& phase : in.phases) {
    for (const Arrival& a : phase.arrivals) {
      forms.push_back(experience::canonicalize(*a.grid));
      records.push_back(route::OarmstRouter(*a.grid).build(a.grid->pins()));
    }
  }
  experience::Store store;
  std::vector<double> get_us, put_us;
  std::size_t k = 0;
  for (const Phase& phase : in.phases) {
    for (const Arrival& a : phase.arrivals) {
      const experience::CanonicalKey key =
          experience::CanonicalKey::from_bytes(forms[k].key);
      Clock::time_point t0 = Clock::now();
      const bool hit = store.get(key).has_value();
      get_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      if (!hit) {
        experience::KeyedRecord rec =
            experience::build_record(*a.grid, forms[k], records[k]);
        t0 = Clock::now();
        store.put(std::move(rec));
        put_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      }
      ++k;
    }
  }
  report.set("experience.get_us", median(get_us), "us");
  report.set("experience.put_us", median(put_us), "us");
}

}  // namespace

void run_serve_mixed(const Args& args, Report& report, Tracer* tracer) {
  const Inputs in = make_inputs(args.seed, tracer ? args.seconds / 2 : args.seconds);
  std::vector<double> mst_cache(in.bases.size(), 0.0);

  std::shared_ptr<rl::SteinerSelector> selector;
  std::unique_ptr<serve::RouterService> svc;
  std::vector<double> selector_s, warmup_s;
  const std::vector<double> setup_s = time_setups(tracer ? 1 : kSetupReps, [&] {
    svc.reset();
    selector.reset();
    const Clock::time_point t0 = Clock::now();
    selector = core::load_or_train_pretrained(2);
    const Clock::time_point t1 = Clock::now();
    svc = make_service(selector, args.seed);
    selector_s.push_back(seconds_between(t0, t1));
    warmup_s.push_back(seconds_between(t1, Clock::now()));
  });
  std::printf("  model: %s, OARSMTRL_MODEL=%s, weights fnv1a64 %016llx\n",
              model_source().c_str(),
              std::getenv("OARSMTRL_MODEL") ? std::getenv("OARSMTRL_MODEL") : "(unset)",
              (unsigned long long)weights_fnv1a64(*selector));

  // Untraced run always; the traced run repeats the same schedule.
  const auto run_all = [&](Tracer* t, std::vector<PhaseTally>& tallies, double& pushes,
                           double& misses, std::pair<double, double>& occupancy) {
    svc->experience().clear_memory();
    const ObsReading before = read_obs();
    std::vector<std::vector<Outcome>> outcomes;
    for (const Phase& phase : in.phases) outcomes.push_back(run_phase(*svc, phase, t));
    const ObsReading after = read_obs();
    pushes = counter_delta(before, after, "oar_route_maze_heap_pushes_total");
    occupancy = histogram_delta(before, after, "oar_serve_batch_occupancy");
    tallies.assign(2, PhaseTally{});
    for (std::size_t p = 0; p < in.phases.size(); ++p) {
      tally(in.phases[p], outcomes[p], in, mst_cache, report, tallies[in.phases[p].kind]);
    }
    misses = 0;
    for (Kind kind : {kNominal, kOverload}) {
      print_tally(kind, in.seconds[kind], tallies[kind]);
      report.attempted += tallies[kind].sent;
      misses += double(tallies[kind].succeeded - tallies[kind].hits);
    }
  };

  std::vector<PhaseTally> tallies;
  double pushes = 0, misses = 0;
  std::pair<double, double> occupancy;
  run_all(nullptr, tallies, pushes, misses, occupancy);
  const PhaseTally& nominal = tallies[kNominal];
  const PhaseTally& overload = tallies[kOverload];

  if (!tracer) {
    if (samples_beyond(nominal.latency_ms.size(), kTailQ) < kMinTailSamples) {
      report.fail("too few nominal samples for p75: " +
                  std::to_string(nominal.latency_ms.size()));
    }
    double ratio_sum = 0.0;
    std::int64_t ratio_n = 0;
    for (const PhaseTally& t : tallies) {
      ratio_sum += t.cost_ratio_sum;
      ratio_n += t.cost_ratio_n;
    }
    report.set("setup_s", median(setup_s), "s");
    report.set("p50_ms", median(nominal.latency_ms), "ms");
    report.set("p75_ms", quantile(nominal.latency_ms, kTailQ), "ms");
    // Served replies per second of overload schedule: the capacity the
    // bounded queue lets through.  Goodput (within the deadline) is reported
    // beside it and as serve.goodput_rps; it swings with how close queued
    // requests run to their deadline, too much to bound.
    report.set("throughput_per_s", double(overload.succeeded) / in.seconds[kOverload],
               "1/s");
    report.set("cost_ratio", ratio_n ? ratio_sum / double(ratio_n) : 0.0, "ratio");
    std::printf("  nominal latency from due time over %zu served misses: "
                "p50 %.2f ms, p75 %.2f ms (%zu samples beyond p75); "
                "overload served %.2f req/s, goodput %.2f req/s\n",
                nominal.latency_ms.size(), report.metrics["p50_ms"].value,
                report.metrics["p75_ms"].value,
                samples_beyond(nominal.latency_ms.size(), kTailQ),
                report.metrics["throughput_per_s"].value,
                double(overload.in_time) / in.seconds[kOverload]);
    return;
  }

  // Traced run: the same schedule again with spans on.
  std::vector<PhaseTally> traced;
  double tpushes = 0, tmisses = 0;
  std::pair<double, double> toccupancy;
  run_all(tracer, traced, tpushes, tmisses, toccupancy);
  const Tracer::SelfTimes self = tracer->self_times();

  std::vector<double> queue_ms, inference_ms, routing_ms;
  std::int64_t sent = 0, refused = 0, hits = 0, repeats = 0, ok = 0;
  double late = 0.0;
  for (const PhaseTally& t : traced) {
    queue_ms.insert(queue_ms.end(), t.queue_ms.begin(), t.queue_ms.end());
    inference_ms.insert(inference_ms.end(), t.inference_ms.begin(), t.inference_ms.end());
    routing_ms.insert(routing_ms.end(), t.routing_ms.begin(), t.routing_ms.end());
    sent += t.sent;
    refused += t.refused;
    hits += t.hits;
    repeats += t.repeats;
    ok += t.succeeded;
    late = std::max(late, t.max_late_ms);
  }
  report.set("setup.selector_s", median(selector_s), "s");
  report.set("setup.warmup_s", median(warmup_s), "s");
  report_trace(report, self,
             median(traced[kNominal].latency_ms) / median(nominal.latency_ms) - 1.0);
  report.set("serve.queue_wait_ms.p50", median(queue_ms), "ms");
  report.set("serve.queue_wait_ms.p90", quantile(queue_ms, 0.9), "ms");
  report.set("serve.inference_ms", median(inference_ms), "ms");
  report.set("serve.routing_ms", median(routing_ms), "ms");
  report.set("serve.gen_late_ms", late, "ms");
  report.set("serve.goodput_rps", double(traced[kOverload].in_time) / in.seconds[kOverload],
             "1/s");
  report.set("serve.batch_size_mean",
             toccupancy.second > 0 ? toccupancy.first / toccupancy.second : 0.0, "count");
  report.set("serve.cache_hit_frac", ok ? double(hits) / double(ok) : 0.0, "frac");
  report.set("serve.repeat_frac", sent ? double(repeats) / double(sent) : 0.0, "frac");
  report.set("serve.refused_frac", sent ? double(refused) / double(sent) : 0.0, "frac");
  report.set("serve.slo_miss_frac",
             traced[kNominal].sent ? 1.0 - double(traced[kNominal].in_time) /
                                             double(traced[kNominal].sent)
                            : 0.0,
             "frac");
  report.set("route.heap_pushes_per_req", tmisses > 0 ? tpushes / tmisses : 0.0, "count");
  layer_probes(*selector, in, *tracer, report);
}

}  // namespace perfbench
