// chip_negotiate: negotiated rip-up & reroute of whole netlists.
//
// Why: on a 32x32x4 grid with 120 nets of 2-5 pins and edge capacity 2 the
// router rips up and reroutes on nearly every netlist (3.4 iterations on
// average, up to ~16; ~130 engine calls per netlist), and the congestion
// overlay changes the grid before almost every call, so the route adjacency
// and hanan/nn feature caches miss.  Capacity 1 is not used: there the
// negotiation leaves overflow on a few percent of netlists (NOTES.md,
// "Defects"), and every netlist here must route cleanly.  The other
// workloads use the same layers on static grids; a cache gain for one that
// costs the other shows here.  It bypasses serve batching and mcts; its
// traced run also hosts the mcts layer probes (mcts_probes.cpp).
//
// Each netlist goes through chip::ChipRouter with the "rl-ours" engine
// (core::RlRouter, exactly what core::Router::route(grid, netlist) builds)
// wrapped in a timing decorator, so every single-net engine request is
// timed.  Netlists run back to back until the run's seconds are used.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "gen/random_netlist.hpp"

namespace perfbench {

using namespace oar;

namespace {

constexpr std::int32_t kDim = 32, kLayers = 4, kNets = 120;
constexpr std::int32_t kMinPins = 2, kMaxPins = 5, kCapacity = 2;
constexpr std::size_t kMinNetlists = 3;
constexpr int kSetupReps = 3;

struct Job {
  std::shared_ptr<const hanan::HananGrid> grid;  // no pins
  chip::Netlist netlist;
};

Job make_job(util::Rng& rng, std::int32_t nets) {
  Job job;
  hanan::HananGrid grid = make_layout(kDim, kDim, kLayers, 2, 2, rng);
  grid.clear_pins();  // the netlist brings the pins
  gen::RandomNetlistSpec spec;
  spec.min_pins = kMinPins;
  spec.max_pins = kMaxPins;
  job.netlist = gen::random_netlist(grid, nets, rng, spec);
  job.grid = std::make_shared<const hanan::HananGrid>(std::move(grid));
  return job;
}

/// Times every engine request the negotiation makes; in a traced run also
/// records it as a span split into selection and routing
/// (RlRouter::last_timing).
class TimedEngine : public steiner::Router {
 public:
  explicit TimedEngine(core::RlRouter& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }

  route::OarmstResult route(const hanan::HananGrid& grid) override {
    const Clock::time_point t0 = Clock::now();
    route::OarmstResult r = inner_.route(grid);
    const Clock::time_point t1 = Clock::now();
    call_s.push_back(seconds_between(t0, t1));
    const core::RlRouterTiming& tm = inner_.last_timing();
    select_s += tm.select_seconds;
    route_s += tm.total_seconds - tm.select_seconds;
    if (tracer != nullptr) {
      const std::uint64_t id = tracer->record("core.engine", t0, t1, request, parent);
      const Clock::time_point sel =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(tm.select_seconds));
      tracer->record("nn.select", t0, sel, request, id);
      tracer->record("route.build", sel, t1, request, id);
    }
    return r;
  }

  std::vector<double> call_s;
  double select_s = 0.0;
  double route_s = 0.0;
  Tracer* tracer = nullptr;
  std::uint64_t request = 0;
  std::uint64_t parent = 0;

 private:
  core::RlRouter& inner_;
};

struct Routed {
  double seconds = 0.0;
  double engine_seconds = 0.0;
  std::size_t calls = 0;
  std::int32_t iterations = 0;
  double wirelength = 0.0;
  double mst_sum = 0.0;
};

chip::ChipConfig chip_config() {
  chip::ChipConfig cfg;
  cfg.edge_capacity = kCapacity;
  return cfg;
}

/// Routes one netlist and checks the result: zero overflow, every net
/// routed, every tree valid for its pins.
Routed route_job(const Job& job, TimedEngine& engine, Tracer* tracer, Report& report) {
  Routed out;
  ++report.attempted;
  const std::size_t calls_before = engine.call_s.size();
  const std::uint64_t req = tracer ? tracer->new_request() : 0;
  const std::uint64_t root = tracer ? tracer->reserve_id() : 0;
  const Clock::time_point t0 = Clock::now();
  chip::ChipResult result;
  try {
    Span negotiate(tracer, "chip.negotiate", req, root);
    engine.tracer = tracer;
    engine.request = req;
    engine.parent = negotiate.id();
    chip::ChipRouter router(*job.grid, chip_config());
    result = router.route(job.netlist, engine);
  } catch (const std::exception& e) {
    report.fail(std::string("chip route threw: ") + e.what());
    return out;
  }
  out.seconds = seconds_between(t0, Clock::now());
  if (tracer) tracer->record_with_id(root, "request", t0, Clock::now(), req);
  out.calls = engine.call_s.size() - calls_before;
  for (std::size_t i = calls_before; i < engine.call_s.size(); ++i) {
    out.engine_seconds += engine.call_s[i];
  }
  out.iterations = result.iterations_run;

  if (!result.success || result.overflow != 0 ||
      result.routed != std::int32_t(job.netlist.size())) {
    report.fail("chip run ended with overflow " + std::to_string(result.overflow) +
                ", routed " + std::to_string(result.routed) + "/" +
                std::to_string(job.netlist.size()));
    return out;
  }
  for (std::size_t i = 0; i < job.netlist.size(); ++i) {
    const std::string why = result.nets[i].tree.validate(job.netlist.nets[i].pins);
    if (!why.empty()) {
      report.fail("chip net " + job.netlist.nets[i].name + " invalid: " + why);
      return out;
    }
  }
  out.wirelength = result.wirelength;
  // Quality base: every net routed alone on the bare grid.
  for (const chip::Net& net : job.netlist.nets) {
    hanan::HananGrid alone = *job.grid;
    for (hanan::Vertex p : net.pins) alone.add_pin(p);
    out.mst_sum += steiner::mst_cost(alone);
  }
  return out;
}

std::vector<Routed> run_jobs(std::vector<Job>& jobs, util::Rng& rng, TimedEngine& engine,
                             double seconds, std::size_t count, Tracer* tracer,
                             Report& report) {
  std::vector<Routed> out;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    if (count > 0 ? i >= count
                  : (elapsed >= seconds && out.size() >= kMinNetlists) ||
                        elapsed >= 3.0 * seconds + 30.0) {
      break;
    }
    if (i >= jobs.size()) jobs.push_back(make_job(rng, kNets));
    out.push_back(route_job(jobs[i], engine, tracer, report));
  }
  return out;
}

}  // namespace

void run_chip_negotiate(const Args& args, Report& report, Tracer* tracer) {
  util::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 0xc41b);
  util::Rng warm_rng(args.seed ^ 0xa11ce);
  std::vector<Job> jobs;
  const Job warm = make_job(warm_rng, 16);

  std::shared_ptr<rl::SteinerSelector> selector;
  std::unique_ptr<core::RlRouter> rl;
  std::unique_ptr<TimedEngine> engine;
  std::vector<double> selector_s, warmup_s;
  const std::vector<double> setup_s = time_setups(tracer ? 1 : kSetupReps, [&] {
    engine.reset();
    rl.reset();
    selector.reset();
    const Clock::time_point t0 = Clock::now();
    selector = core::load_or_train_pretrained(2);
    const Clock::time_point t1 = Clock::now();
    rl = std::make_unique<core::RlRouter>(selector);
    engine = std::make_unique<TimedEngine>(*rl);
    Report warm_report;
    route_job(warm, *engine, nullptr, warm_report);
    engine->call_s.clear();
    selector_s.push_back(seconds_between(t0, t1));
    warmup_s.push_back(seconds_between(t1, Clock::now()));
  });
  std::printf("  model: %s, OARSMTRL_MODEL=%s, weights fnv1a64 %016llx\n",
              model_source().c_str(),
              std::getenv("OARSMTRL_MODEL") ? std::getenv("OARSMTRL_MODEL") : "(unset)",
              (unsigned long long)weights_fnv1a64(*selector));

  const double run_s = tracer ? args.seconds / 2 : args.seconds;
  const std::vector<Routed> runs = run_jobs(jobs, rng, *engine, run_s, 0, nullptr, report);
  const auto summarize = [](const std::vector<Routed>& rs, double& seconds,
                            double& wl, double& mst) {
    seconds = wl = mst = 0.0;
    for (const Routed& r : rs) {
      seconds += r.seconds;
      wl += r.wirelength;
      mst += r.mst_sum;
    }
  };
  double secs = 0, wl = 0, mst = 0;
  summarize(runs, secs, wl, mst);

  if (!tracer) {
    std::vector<double> call_ms;
    for (double s : engine->call_s) call_ms.push_back(s * 1e3);
    if (samples_beyond(call_ms.size(), kTailQ) < kMinTailSamples) {
      report.fail("too few engine calls for p75: " + std::to_string(call_ms.size()));
    }
    std::vector<double> netlist_s;
    for (const Routed& r : runs) netlist_s.push_back(r.seconds);
    report.set("setup_s", median(setup_s), "s");
    report.set("p50_ms", median(call_ms), "ms");
    report.set("p75_ms", quantile(call_ms, kTailQ), "ms");
    report.set("throughput_per_s", double(runs.size()) / secs, "1/s");
    report.set("cost_ratio", mst > 0 ? wl / mst : 0.0, "ratio");
    std::printf("  %zu netlists (%dx%dx%d, %d nets of %d-%d pins, capacity %d): "
                "median %.3f s per netlist, %zu engine calls p50 %.3f ms p75 %.3f ms "
                "(%zu samples beyond), wirelength / sum of per-net mst %.4f\n",
                runs.size(), kDim, kDim, kLayers, kNets, kMinPins, kMaxPins, kCapacity,
                median(netlist_s), call_ms.size(), median(call_ms),
                quantile(call_ms, kTailQ), samples_beyond(call_ms.size(), kTailQ),
                mst > 0 ? wl / mst : 0.0);
    return;
  }

  // Traced run: the same netlists again, with spans and counter deltas.
  engine->call_s.clear();
  engine->select_s = engine->route_s = 0.0;
  const ObsReading before = read_obs();
  const std::vector<Routed> traced =
      run_jobs(jobs, rng, *engine, 0.0, runs.size(), tracer, report);
  const ObsReading after = read_obs();
  engine->tracer = nullptr;
  const Tracer::SelfTimes self = tracer->self_times();
  double tsecs = 0, twl = 0, tmst = 0;
  summarize(traced, tsecs, twl, tmst);
  double engine_s = 0.0, iterations = 0.0;
  std::vector<double> netlist_s;
  for (const Routed& r : traced) {
    engine_s += r.engine_seconds;
    iterations += r.iterations;
    netlist_s.push_back(r.seconds);
  }
  const double n = double(traced.size());
  const double calls = double(engine->call_s.size());

  report.set("setup.selector_s", median(selector_s), "s");
  report.set("setup.warmup_s", median(warmup_s), "s");
  report_trace(report, self, tsecs / secs - 1.0);
  report.set("chip.netlist_s", median(netlist_s), "s");
  report.set("chip.iterations", iterations / n, "count");
  report.set("chip.engine_calls", calls / n, "count");
  report.set("chip.engine_frac", engine_s / tsecs, "frac");
  report.set("chip.self_ms", (tsecs - engine_s) / n * 1e3, "ms");
  report.set("chip.engine_select_ms", engine->select_s / calls * 1e3, "ms");
  report.set("chip.engine_route_ms", engine->route_s / calls * 1e3, "ms");
  report.set("chip.wirelength", twl / n, "cost");
  report.set("hanan.feature_rebuilds_per_call",
             counter_delta(before, after, "oar_nn_feature_cache_rebuilds_total") / calls,
             "count");
  report.set("route.adjacency_rebuilds_per_call",
             counter_delta(before, after, "oar_route_maze_adjacency_rebuilds_total") / calls,
             "count");
  report.set("route.heap_pushes_per_req",
             counter_delta(before, after, "oar_route_maze_heap_pushes_total") / calls,
             "count");

  // Layer probes on the workload's grids, one net at a time.
  std::vector<double> enc_ms, fwd_ms, topk_us, oar_ms, fsp;
  for (const Job& job : jobs) {
    for (std::size_t k = 0; k < job.netlist.size() && enc_ms.size() < 24; k += 10) {
      hanan::HananGrid grid = *job.grid;
      for (hanan::Vertex p : job.netlist.nets[k].pins) grid.add_pin(p);
      const std::uint64_t req = tracer->new_request();
      Span root(tracer, "probe", req);
      Clock::time_point t0 = Clock::now();
      {
        Span sp(tracer, "hanan.encode", req, root.id());
        nn::Tensor x = rl::SteinerSelector::encode(grid);
      }
      enc_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      selector->infer_fsp_into(grid, {}, fsp);
      t0 = Clock::now();
      {
        Span sp(tracer, "nn.forward", req, root.id());
        selector->infer_fsp_into(grid, {}, fsp);
      }
      fwd_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      std::vector<hanan::Vertex> steiner;
      t0 = Clock::now();
      {
        Span sp(tracer, "rl.topk", req, root.id());
        steiner = rl::SteinerSelector::top_k_valid(
            grid, fsp, std::max<std::int32_t>(0, std::int32_t(grid.pins().size()) - 2), {});
      }
      topk_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      t0 = Clock::now();
      {
        Span sp(tracer, "route.oarmst", req, root.id());
        const route::OarmstResult res = route::OarmstRouter(grid).build(grid.pins(), steiner);
        const std::string why = check_tree(res, grid.pins());
        if (!why.empty()) report.fail("probe oarmst tree invalid: " + why);
      }
      oar_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
  }
  report.set("hanan.encode_ms.32x32x4", median(enc_ms), "ms");
  report.set("nn.forward_ms.32x32x4", median(fwd_ms), "ms");
  report.set("rl.topk_us", median(topk_us), "us");
  report.set("route.oarmst_ms.32x32x4", median(oar_ms), "ms");

  mcts_layer_probes(selector, args.seed, *tracer, report);
}

}  // namespace perfbench
