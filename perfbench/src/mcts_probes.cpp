// mcts layer probes, run in chip_negotiate's traced run.
//
// An mcts_search workload (a closed loop of core::Router "rl-mcts"
// requests, 4 search workers, 24x24x6) was built and dropped: its episodes
// are bimodal — most searches never grow the tree, ~15% expand it and take
// 3-15x longer — and its p75 and episodes/s spread 0.30 between ten input
// sets on a shared host, above any bound a gain could be judged against
// (NOTES.md).  The search layer is still measured here, on the same search
// settings: tree-parallel speedup and per-episode search counts through
// core::MctsRouter, the actor and critic calls, and the registry snapshot
// core::Router takes per call.

#include <algorithm>

#include "common.hpp"
#include "core/mcts_router.hpp"
#include "mcts/actor_critic.hpp"

namespace perfbench {

using namespace oar;

namespace {

constexpr std::int32_t kBaseIterations = 32;  // per move, scaled by layout size
constexpr std::int32_t kWorkers = 4;
constexpr std::int32_t kDim = 24, kLayers = 6, kMinPins = 4;
constexpr std::size_t kLayouts = 6;

mcts::CombMctsConfig search_config(std::int32_t workers) {
  mcts::CombMctsConfig cfg;
  cfg.iterations_per_move = kBaseIterations;
  cfg.search_workers = workers;
  return cfg;
}

}  // namespace

void mcts_layer_probes(const std::shared_ptr<rl::SteinerSelector>& selector,
                       std::uint64_t seed, Tracer& tracer, Report& report) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x3c75);
  std::vector<hanan::HananGrid> layouts;
  for (std::size_t i = 0; i < kLayouts; ++i) {
    const std::int32_t pins = kMinPins + std::int32_t(i % 3);  // 4, 5, 6
    layouts.push_back(make_layout(kDim, kDim, kLayers, pins, pins, rng));
  }

  // The same layouts at 1 worker and at 4; search counts from the 4-worker
  // episodes.
  double serial_s = 0.0, parallel_s = 0.0;
  ObsReading before, after;
  for (std::int32_t workers : {1, kWorkers}) {
    core::MctsRouter engine(selector, search_config(workers));
    engine.route(layouts.back());  // warm-up
    if (workers == kWorkers) before = read_obs();
    for (const hanan::HananGrid& grid : layouts) {
      const std::uint64_t req = tracer.new_request();
      Span root(&tracer, "probe", req);
      Span sp(&tracer, "mcts.episode", req, root.id());
      const Clock::time_point t0 = Clock::now();
      const route::OarmstResult res = engine.route(grid);
      (workers == 1 ? serial_s : parallel_s) += seconds_between(t0, Clock::now());
      const std::string why = check_tree(res, grid.pins());
      if (!why.empty()) report.fail("mcts probe tree invalid: " + why);
    }
    if (workers == kWorkers) after = read_obs();
  }
  const auto per_ep = [&](const char* counter) {
    return counter_delta(before, after, counter) / double(kLayouts);
  };
  report.set("mcts.parallel_speedup", parallel_s > 0 ? serial_s / parallel_s : 0.0,
             "ratio");
  report.set("mcts.iterations_per_ep", per_ep("oar_mcts_iterations_total"), "count");
  report.set("mcts.simulations_per_ep", per_ep("oar_mcts_simulations_total"), "count");
  report.set("mcts.expansions_per_ep", per_ep("oar_mcts_expansions_total"), "count");
  report.set("mcts.eval_waits_per_ep", per_ep("oar_mcts_eval_waits_total"), "count");
  report.set("mcts.vloss_reverts_per_ep", per_ep("oar_mcts_vloss_reverts_total"), "count");
  const double batches = counter_delta(before, after, "oar_mcts_eval_batches_total");
  report.set("mcts.eval_batch_mean",
             batches > 0
                 ? counter_delta(before, after, "oar_mcts_eval_requests_total") / batches
                 : 0.0,
             "count");

  // Actor (one forward with the selection as extra pins) and critic
  // (completion + maze-Prim routing).
  std::vector<double> fsp_ms, critic_ms, fsp;
  for (const hanan::HananGrid& grid : layouts) {
    mcts::ActorCritic ac(*selector, grid);
    const std::uint64_t req = tracer.new_request();
    Span root(&tracer, "probe", req);
    ac.fsp_into({}, fsp);  // fills the feature cache
    Clock::time_point t0 = Clock::now();
    {
      Span sp(&tracer, "mcts.fsp", req, root.id());
      ac.fsp_into({}, fsp);
    }
    fsp_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    {
      Span sp(&tracer, "mcts.critic", req, root.id());
      ac.critic_cost({}, std::max<std::int32_t>(0, std::int32_t(grid.pins().size()) - 2),
                     fsp);
    }
    critic_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  report.set("mcts.fsp_ms", median(fsp_ms), "ms");
  report.set("mcts.critic_ms", median(critic_ms), "ms");

  std::vector<double> snap_us;
  for (int i = 0; i < 50; ++i) {
    const Clock::time_point t0 = Clock::now();
    obs::Snapshot snap = obs::MetricsRegistry::instance().snapshot();
    snap_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  report.set("obs.snapshot_us", median(snap_us), "us");
}

}  // namespace perfbench
