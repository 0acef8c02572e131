#include "mcts/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "experience/warm_start.hpp"
#include "hanan/features.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace oar::mcts {

namespace {

struct ParallelObs {
  obs::Counter& episodes;
  obs::Counter& iterations;
  obs::Counter& simulations;
  obs::Counter& expansions;
  obs::Histogram& episode_seconds;
  obs::Counter& parallel_episodes;
  obs::Counter& vloss_reverts;
  obs::Counter& eval_waits;
  obs::Counter& eval_requests;
  obs::Counter& eval_deadline_cancelled;
  obs::Histogram& eval_lock_wait;
};

ParallelObs& parallel_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  // The first five names are shared with the serial CombMcts flush (the
  // registry is get-or-create), so trainer dashboards see one stream of
  // search metrics regardless of which engine produced the episode.
  static ParallelObs o{
      reg.counter("oar_mcts_episodes_total",
                  "Combinatorial MCTS search trees built (CombMcts::run)"),
      reg.counter("oar_mcts_iterations_total", "UCT iterations across all episodes"),
      reg.counter("oar_mcts_simulations_total",
                  "Leaf evaluations (critic or exact) across all episodes"),
      reg.counter("oar_mcts_expansions_total", "Node expansions across all episodes"),
      reg.histogram("oar_mcts_episode_seconds", obs::latency_buckets(),
                    "Wall time per CombMcts episode"),
      reg.counter("oar_mcts_parallel_episodes_total",
                  "Episodes searched by ParallelCombMcts"),
      reg.counter("oar_mcts_vloss_reverts_total",
                  "Virtual losses reverted during backup (== applied when quiescent)"),
      reg.counter("oar_mcts_eval_waits_total",
                  "Descents that waited on another worker's leaf evaluation"),
      reg.counter("oar_mcts_eval_requests_total",
                  "Leaf inferences requested by ParallelCombMcts workers"),
      reg.counter("oar_mcts_eval_deadline_cancelled_total",
                  "Leaf inferences skipped on an expired request deadline"),
      reg.histogram("oar_mcts_eval_lock_wait_seconds", obs::latency_buckets(),
                    "Time a search worker waited for the selector per leaf "
                    "inference"),
  };
  return o;
}

// Same tree statistics as the serial search plus the virtual-loss counter.
// `vloss` counts in-flight descents through this edge; it is stamped during
// selection and reverted during backup, and therefore ZERO whenever the
// tree is quiescent — at which point the (visits, total_value, child) triple
// is exactly what the serial Edge would hold.
struct PEdge {
  Vertex action = hanan::kInvalidVertex;
  double prior = 0.0;
  std::int64_t visits = 0;
  double total_value = 0.0;
  std::int32_t child = -1;  // node index, -1 until materialized
  std::int32_t vloss = 0;   // in-flight descents (virtual loss), >= 0
};

struct PNode {
  std::int32_t parent = -1;
  Vertex action = hanan::kInvalidVertex;  // action leading here
  std::int64_t action_priority = -1;
  std::int32_t level = 0;     // number of selected Steiner points
  std::int32_t flat_run = 0;  // consecutive flat-cost actions
  double cost = -1.0;         // exact raw state cost, -1 until computed
  bool expanded = false;
  bool terminal = false;
  // A worker has claimed this leaf and is evaluating it outside the tree
  // lock; other descents arriving here wait on eval_cv instead of
  // duplicating the (expensive) evaluation.
  bool eval_busy = false;
  std::vector<PEdge> edges;
};

struct Step {
  std::int32_t node;
  std::size_t edge;
};

// Per-worker private state: exact/critic evaluation (router scratch), the
// feature encoder, and reusable buffers.  Nothing here is shared, so the
// only synchronization in the search is the tree mutex + the selector mutex.
struct WorkerCtx {
  ActorCritic ac;
  hanan::FeatureCache fcache;
  std::vector<float> features;   // encoded leaf volume (selector input)
  std::vector<double> fsp;       // selector output, priority order
  std::vector<Vertex> selected;  // leaf state snapshot
  std::vector<Step> path;        // descent path of the current iteration

  WorkerCtx(rl::SteinerSelector& selector, const HananGrid& grid,
            std::size_t n_vertices, std::size_t in_numel)
      : ac(selector, grid) {
    features.resize(in_numel);
    fsp.assign(n_vertices, 0.0);
  }
};

}  // namespace

ParallelCombMcts::ParallelCombMcts(rl::SteinerSelector& selector,
                                   CombMctsConfig config,
                                   const experience::Store* experience)
    : selector_(selector),
      config_([](CombMctsConfig c) {
        c.validate();
        return c;
      }(std::move(config))),
      experience_(experience),
      workers_(config_.search_workers == 0
                   ? std::max<std::int32_t>(
                         1, std::int32_t(std::thread::hardware_concurrency()))
                   : config_.search_workers) {}

CombMctsResult ParallelCombMcts::run(const HananGrid& grid,
                                     const SearchDeadline& deadline) {
  util::Timer timer;
  ParallelObs& o = parallel_obs();
  CombMctsResult result;
  const auto n_vertices = std::size_t(grid.num_vertices());
  result.label.assign(n_vertices, 0.0f);
  result.label_mask.assign(n_vertices, 0.0f);

  const std::int32_t budget =
      std::max<std::int32_t>(0, std::int32_t(grid.pins().size()) - 2);
  const std::size_t in_numel = std::size_t(hanan::kNumFeatureChannels) *
                               std::size_t(grid.h_dim()) *
                               std::size_t(grid.v_dim()) *
                               std::size_t(grid.m_dim());

  std::deque<WorkerCtx> ctxs;  // deque: WorkerCtx is neither movable nor copyable
  for (std::int32_t i = 0; i < workers_; ++i) {
    ctxs.emplace_back(selector_, grid, n_vertices, in_numel);
  }

  // Per-vertex selection statistics (eq. (3)), indexed by priority.
  std::vector<std::int64_t> n_sel(n_vertices, 0), n_opp(n_vertices, 0);

  // deque: stable node references across materialization (no re-fetch
  // dance around push_back like the serial vector-based tree needs).
  std::deque<PNode> nodes;
  nodes.emplace_back();  // root
  nodes[0].cost = ctxs[0].ac.exact_cost({});
  result.initial_cost = nodes[0].cost;
  result.final_cost = nodes[0].cost;
  result.best_cost = nodes[0].cost;

  const double rc0 = std::max(nodes[0].cost, 1e-12);
  if (!std::isfinite(nodes[0].cost)) nodes[0].terminal = true;
  if (budget == 0) nodes[0].terminal = true;

  auto value_of = [&](double cost) {
    return std::isfinite(cost) ? (rc0 - cost) / rc0 : -2.0;
  };

  // --- persistent-experience warm start (DESIGN.md §18) ---
  // Resolved single-threaded before any worker starts; applied at the
  // initial root's expansion commit under the tree lock.  Identical math
  // to the serial CombMcts, so the 1-worker bitwise anchor extends to
  // warm-started runs.
  experience::WarmStart warm;
  std::vector<Vertex> warm_best;  // floor combination, request space
  bool best_is_warm = false;      // the floor currently holds best_cost
  Vertex warm_first = hanan::kInvalidVertex;  // root edge to visit-seed
  double warm_seed_value = 0.0;
  if (config_.warm_start && experience_ != nullptr && !nodes[0].terminal) {
    warm = experience::lookup_warm_start(*experience_, grid);
    result.stats.warm_matches = warm.matches;
    result.stats.warm_started = !warm.empty();
    if (warm.exact && !warm.best.empty() && std::ssize(warm.best) <= budget) {
      const double floor_cost = ctxs[0].ac.exact_cost(warm.best);
      ++result.stats.simulations;
      warm_first = warm.best.front();
      warm_seed_value = value_of(floor_cost);
      if (floor_cost < result.best_cost) {
        result.best_cost = floor_cost;
        warm_best = warm.best;
        best_is_warm = true;
      }
    }
  }

  std::mutex tree_mu;
  std::condition_variable eval_cv;
  std::atomic<std::int32_t> tickets{0};
  std::exception_ptr first_error;
  std::int32_t root = 0;
  // Node achieving best_cost (tree lock).  Its exact cost was computed, so
  // the state it denotes is always a valid routed answer.
  std::int32_t best_node = 0;
  // Anytime bookkeeping: iterations fully completed (any worker), and
  // whether any worker observed the deadline as expired.
  std::atomic<std::int64_t> completed{0};
  std::atomic<bool> deadline_expired{false};

  // State of a node (tree lock must be held): path actions root -> node.
  auto state_of_into = [&](std::int32_t node, std::vector<Vertex>& out) {
    out.clear();
    for (std::int32_t cur = node; cur != 0; cur = nodes[std::size_t(cur)].parent) {
      out.push_back(nodes[std::size_t(cur)].action);
    }
    std::reverse(out.begin(), out.end());
  };

  // Terminal rules on snapshot values (paper Sec. 3.4); returns
  // (terminal, flat_run) exactly as CombMcts::mark_terminal_rules computes
  // them on the node in place.
  auto terminal_rules = [&](std::int32_t level, double cost, double parent_cost,
                            std::int32_t parent_flat_run, bool& terminal,
                            std::int32_t& flat_run) {
    if (level >= budget) terminal = true;
    if (config_.stop_on_cost_increase &&
        cost > parent_cost * (1.0 + config_.flat_eps)) {
      terminal = true;
    }
    if (std::abs(cost - parent_cost) <= parent_cost * config_.flat_eps) {
      flat_run = parent_flat_run + 1;
      if (flat_run >= config_.flat_cost_patience) terminal = true;
    } else {
      flat_run = 0;
    }
  };

  // One UCT iteration: descend under the tree lock, evaluate the leaf
  // outside it, commit + backup under the lock again.  Returns false when
  // the leaf was skipped on an expired deadline (nothing committed).
  auto run_iteration = [&](WorkerCtx& ctx) -> bool {
    std::unique_lock<std::mutex> lock(tree_mu);
    std::int32_t cur = root;
    ctx.path.clear();

    // --- selection ---
    for (;;) {
      PNode& node = nodes[std::size_t(cur)];
      if (node.terminal) break;
      if (!node.expanded) {
        if (node.eval_busy) {
          // Another worker is evaluating this exact leaf: wait for its
          // result rather than duplicating the evaluation, then re-examine
          // (the node may now be expanded — descend into it — or terminal).
          ++result.stats.eval_waits;
          eval_cv.wait(lock, [&] { return !nodes[std::size_t(cur)].eval_busy; });
          continue;
        }
        break;  // fresh leaf: this worker claims it below
      }

      assert(!node.edges.empty());
      // Selection score over EFFECTIVE statistics (visits + vloss,
      // total_value - vloss): each in-flight descent counts as one visit
      // with the worst connected outcome, steering concurrent workers
      // apart.  With vloss == 0 everywhere the expressions below reduce —
      // bitwise, not just mathematically — to the serial CombMcts formulas.
      std::int64_t total_visits = 0;
      for (const PEdge& e : node.edges) total_visits += e.visits + e.vloss;
      const double sqrt_total = std::sqrt(double(total_visits));

      std::size_t best = 0;
      double best_score = -1e300;
      for (std::size_t i = 0; i < node.edges.size(); ++i) {
        const PEdge& e = node.edges[i];
        const std::int64_t n_eff = e.visits + e.vloss;
        double q;
        if (e.vloss == 0) {
          q = e.visits == 0 ? 0.0 : e.total_value / double(e.visits);
        } else {
          q = (e.total_value - double(e.vloss)) / double(n_eff);
        }
        const double u =
            config_.c_puct * e.prior * sqrt_total / (1.0 + double(n_eff));
        double score = q + u;
        if (total_visits == 0) score = e.prior;  // cold node: order by prior
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }

      // eq. (3) bookkeeping: every candidate gets an opportunity, the
      // chosen one a selection.
      for (const PEdge& e : node.edges) {
        ++n_opp[std::size_t(grid.priority_of(e.action))];
      }
      ++n_sel[std::size_t(grid.priority_of(node.edges[best].action))];

      ctx.path.push_back({cur, best});
      PEdge& edge = node.edges[best];
      edge.vloss += 1;
      ++result.stats.vloss_applied;
      if (edge.child < 0) {
        PNode child;
        child.parent = cur;
        child.action = edge.action;
        child.action_priority = grid.priority_of(edge.action);
        child.level = node.level + 1;
        edge.child = std::int32_t(nodes.size());
        nodes.push_back(std::move(child));
        ++result.stats.nodes;
      }
      cur = edge.child;
    }

    auto backup = [&](double value) {
      for (const Step& step : ctx.path) {
        PEdge& e = nodes[std::size_t(step.node)].edges[step.edge];
        e.vloss -= 1;
        ++result.stats.vloss_reverted;
        e.visits += 1;
        e.total_value += value;
      }
    };

    // --- terminal leaf: no evaluation needed, commit under the same lock.
    {
      PNode& leaf = nodes[std::size_t(cur)];
      if (leaf.terminal) {
        backup(value_of(leaf.cost));
        return true;
      }
    }

    // --- claim the leaf and snapshot everything the evaluation reads.
    // Parent cost/flat_run are immutable by now: they were committed when
    // the parent itself was evaluated, strictly before any child existed.
    double leaf_cost, parent_cost = 0.0;
    std::int32_t leaf_level, leaf_flat_run, parent_flat_run = 0;
    std::int64_t leaf_action_priority;
    {
      PNode& leaf = nodes[std::size_t(cur)];
      leaf.eval_busy = true;
      leaf_cost = leaf.cost;
      leaf_level = leaf.level;
      leaf_flat_run = leaf.flat_run;
      leaf_action_priority = leaf.action_priority;
      if (leaf.parent >= 0) {
        const PNode& parent = nodes[std::size_t(leaf.parent)];
        parent_cost = parent.cost;
        parent_flat_run = parent.flat_run;
      }
      state_of_into(cur, ctx.selected);
    }
    lock.unlock();

    // Releases the claim and reverts the stamped virtual losses (no visit,
    // no value) so waiters unblock and the tree stays consistent.
    auto abandon = [&] {
      lock.lock();
      nodes[std::size_t(cur)].eval_busy = false;
      for (const Step& step : ctx.path) {
        PEdge& e = nodes[std::size_t(step.node)].edges[step.edge];
        e.vloss -= 1;
        ++result.stats.vloss_reverted;
      }
      lock.unlock();
      eval_cv.notify_all();
    };

    double value = 0.0;
    double cost = leaf_cost;
    bool terminal = false;
    bool expanded = false;
    std::int32_t flat_run = leaf_flat_run;
    const bool need_cost = leaf_cost < 0.0;
    std::vector<PEdge> new_edges;
    try {
      if (need_cost) {
        cost = ctx.ac.exact_cost(ctx.selected);
        terminal_rules(leaf_level, cost, parent_cost, parent_flat_run, terminal,
                       flat_run);
      }
      if (terminal) {
        value = value_of(cost);
      } else {
        // Expansion: fsp from the selector's single-sample engine (the
        // bitwise serial path) under the selector mutex, then children from
        // the actor policy on worker-private state.  A leaf whose deadline
        // has passed once the worker holds the selector is skipped, not
        // evaluated — except in the run's guaranteed first iteration, so
        // the zero-slack fallback can never be cancelled out from under it.
        ctx.fcache.encode_into(grid, ctx.selected, ctx.features.data());
        const bool cancellable =
            deadline && completed.load(std::memory_order_relaxed) > 0;
        const SearchClock::time_point asked = SearchClock::now();
        o.eval_requests.inc();
        bool expired = false;
        {
          std::lock_guard<std::mutex> infer_lock(selector_mu_);
          const SearchClock::time_point held = SearchClock::now();
          o.eval_lock_wait.observe(
              std::chrono::duration<double>(held - asked).count());
          expired = cancellable && held >= *deadline;
          if (!expired) {
            selector_.infer_fsp_from_features(ctx.features.data(), grid.h_dim(),
                                              grid.v_dim(), grid.m_dim(),
                                              ctx.fsp);
          }
        }
        if (expired) {
          o.eval_deadline_cancelled.inc();
          abandon();
          return false;
        }
        auto policy = ctx.ac.policy(ctx.selected, leaf_action_priority, ctx.fsp);
        if (config_.max_children > 0 &&
            std::ssize(policy) > config_.max_children) {
          std::partial_sort(policy.begin(), policy.begin() + config_.max_children,
                            policy.end(), [](const auto& a, const auto& b) {
                              return a.second > b.second;
                            });
          policy.resize(std::size_t(config_.max_children));
          double total = 0.0;
          for (const auto& [v, p] : policy) total += p;
          if (total > 0.0) {
            for (auto& [v, p] : policy) p /= total;
          }
        }
        if (policy.empty()) {
          terminal = true;
          value = value_of(cost);
        } else {
          const double mix = config_.prior_uniform_mix;
          const double uniform = 1.0 / double(policy.size());
          new_edges.reserve(policy.size());
          for (const auto& [v, p] : policy) {
            PEdge e;
            e.action = v;
            e.prior = (1.0 - mix) * p + mix * uniform;
            new_edges.push_back(e);
          }
          expanded = true;
          const double predicted = config_.use_critic
                                       ? ctx.ac.critic_cost(ctx.selected, budget,
                                                            ctx.fsp)
                                       : cost;
          value = value_of(predicted);
        }
      }
    } catch (...) {
      abandon();
      throw;  // the worker loop surfaces the error
    }

    // --- commit + backup ---
    lock.lock();
    {
      PNode& leaf = nodes[std::size_t(cur)];
      if (need_cost) {
        leaf.cost = cost;
        leaf.flat_run = flat_run;
        if (cost < result.best_cost) {
          result.best_cost = cost;
          best_node = cur;
          best_is_warm = false;
        }
      }
      if (terminal) leaf.terminal = true;
      if (expanded) {
        leaf.edges = std::move(new_edges);
        if (cur == 0 && !warm.empty()) {
          // Warm start at the initial root (expanded exactly once, by the
          // worker that claimed it): blend the experience prior and seed
          // the recorded first action — the serial CombMcts math verbatim.
          if (!warm.prior.empty()) {
            double mass = 0.0;
            for (const PEdge& e : leaf.edges) {
              mass +=
                  double(warm.prior[std::size_t(grid.priority_of(e.action))]);
            }
            if (mass > 0.0) {
              const double lam = config_.warm_start_weight;
              for (PEdge& e : leaf.edges) {
                const double p_exp =
                    double(warm.prior[std::size_t(grid.priority_of(e.action))]) /
                    mass;
                e.prior = (1.0 - lam) * e.prior + lam * p_exp;
              }
            }
          }
          if (warm_first != hanan::kInvalidVertex &&
              config_.warm_start_visits > 0) {
            for (PEdge& e : leaf.edges) {
              if (e.action == warm_first) {
                e.visits += config_.warm_start_visits;
                e.total_value +=
                    double(config_.warm_start_visits) * warm_seed_value;
                break;
              }
            }
          }
        }
        leaf.expanded = true;
        ++result.stats.expansions;
        ++result.stats.simulations;
      }
      leaf.eval_busy = false;
    }
    backup(value);
    lock.unlock();
    eval_cv.notify_all();
    return true;
  };

  auto worker_fn = [&](WorkerCtx& ctx) {
    try {
      for (;;) {
        // Anytime control at iteration granularity.  The completed > 0
        // guard keeps the run's very first iteration alive even under an
        // already-expired deadline (the zero-slack fallback); concurrent
        // workers may each run one such iteration, which only strengthens
        // the fallback.
        if (deadline && completed.load(std::memory_order_relaxed) > 0 &&
            SearchClock::now() >= *deadline) {
          deadline_expired.store(true, std::memory_order_relaxed);
          tickets.store(0, std::memory_order_relaxed);
          break;
        }
        if (tickets.fetch_sub(1, std::memory_order_relaxed) <= 0) break;
        if (!run_iteration(ctx)) {
          // The leaf's deadline expired while this worker waited for the
          // selector; run_iteration reverted the iteration's virtual losses
          // and released the leaf claim.  The aborted iteration is not
          // counted.
          deadline_expired.store(true, std::memory_order_relaxed);
          tickets.store(0, std::memory_order_relaxed);
          break;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(tree_mu);
      if (!first_error) first_error = std::current_exception();
      tickets.store(0, std::memory_order_relaxed);
    }
  };

  // Virtual-loss invariant: between root moves the tree is quiescent, so
  // every stamp must have been reverted.  Violations are real bugs (a lost
  // backup or a leaked claim), never timing noise — fail loudly.
  auto check_vloss_clean = [&] {
    for (const PNode& n : nodes) {
      for (const PEdge& e : n.edges) {
        if (e.vloss != 0) {
          throw std::logic_error(
              "ParallelCombMcts: virtual loss not reverted after move");
        }
      }
    }
    if (result.stats.vloss_applied != result.stats.vloss_reverted) {
      throw std::logic_error(
          "ParallelCombMcts: vloss applied/reverted counters diverged");
    }
  };

  while (!nodes[std::size_t(root)].terminal) {
    // --- alpha UCT iterations from the current root, K workers ---
    tickets.store(config_.iterations_per_move, std::memory_order_relaxed);
    std::vector<std::thread> threads;
    threads.reserve(std::size_t(workers_ - 1));
    for (std::int32_t i = 1; i < workers_; ++i) {
      threads.emplace_back([&, i] { worker_fn(ctxs[std::size_t(i)]); });
    }
    worker_fn(ctxs[0]);  // the caller is worker 0 (K == 1 never spawns)
    for (std::thread& t : threads) t.join();
    if (first_error) std::rethrow_exception(first_error);
    result.stats.iterations = completed.load(std::memory_order_relaxed);
    check_vloss_clean();
    if (deadline_expired.load(std::memory_order_relaxed)) {
      // Best-so-far is already recorded in best_node/best_cost; executing
      // further root moves would spend budget the caller no longer has.
      result.stats.deadline_hit = true;
      break;
    }

    // --- execute the most-visited root action (single-threaded again) ---
    PNode& root_node = nodes[std::size_t(root)];
    if (!root_node.expanded || root_node.edges.empty()) break;
    std::size_t best = 0;
    for (std::size_t i = 1; i < root_node.edges.size(); ++i) {
      if (root_node.edges[i].visits > root_node.edges[best].visits) best = i;
    }
    PEdge& chosen = root_node.edges[best];
    if (chosen.child < 0) break;  // never explored: nothing to execute
    root = chosen.child;
    ++result.stats.executed_moves;

    PNode& new_root = nodes[std::size_t(root)];
    if (new_root.cost < 0.0) {
      state_of_into(root, ctxs[0].selected);
      new_root.cost = ctxs[0].ac.exact_cost(ctxs[0].selected);
      bool terminal = false;
      terminal_rules(new_root.level, new_root.cost,
                     nodes[std::size_t(new_root.parent)].cost,
                     nodes[std::size_t(new_root.parent)].flat_run, terminal,
                     new_root.flat_run);
      if (terminal) new_root.terminal = true;
    }
    if (new_root.cost < result.best_cost) {
      result.best_cost = new_root.cost;
      best_node = root;
      best_is_warm = false;
    }
  }

  state_of_into(root, ctxs[0].selected);
  result.selected = ctxs[0].selected;
  if (best_is_warm) {
    result.best_selected = warm_best;
  } else {
    state_of_into(best_node, ctxs[0].selected);
    result.best_selected = ctxs[0].selected;
  }
  result.final_cost = nodes[std::size_t(root)].cost;

  // eq. (3): L_fsp(v) = n_sel / n_opp, in priority order.
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    const auto p = std::size_t(grid.priority_of(v));
    if (!grid.is_blocked(v) && !grid.is_pin(v)) result.label_mask[p] = 1.0f;
    if (n_opp[p] > 0) {
      result.label[p] = float(double(n_sel[p]) / double(n_opp[p]));
    }
  }
  result.stats.seconds = timer.seconds();

  o.episodes.inc();
  o.parallel_episodes.inc();
  o.iterations.add(std::uint64_t(result.stats.iterations));
  o.simulations.add(std::uint64_t(result.stats.simulations));
  o.expansions.add(std::uint64_t(result.stats.expansions));
  o.vloss_reverts.add(std::uint64_t(result.stats.vloss_reverted));
  o.eval_waits.add(std::uint64_t(result.stats.eval_waits));
  o.episode_seconds.observe(result.stats.seconds);
  return result;
}

}  // namespace oar::mcts
