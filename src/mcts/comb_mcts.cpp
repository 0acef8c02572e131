#include "mcts/comb_mcts.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "experience/warm_start.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace oar::mcts {

namespace {

struct MctsObs {
  obs::Counter& episodes;
  obs::Counter& iterations;
  obs::Counter& simulations;
  obs::Counter& expansions;
  obs::Histogram& episode_seconds;
};

MctsObs& mcts_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static MctsObs o{
      reg.counter("oar_mcts_episodes_total",
                  "Combinatorial MCTS search trees built (CombMcts::run)"),
      reg.counter("oar_mcts_iterations_total", "UCT iterations across all episodes"),
      reg.counter("oar_mcts_simulations_total",
                  "Leaf evaluations (critic or exact) across all episodes"),
      reg.counter("oar_mcts_expansions_total", "Node expansions across all episodes"),
      reg.histogram("oar_mcts_episode_seconds", obs::latency_buckets(),
                    "Wall time per CombMcts episode"),
  };
  return o;
}

struct Edge {
  Vertex action = hanan::kInvalidVertex;
  double prior = 0.0;
  std::int64_t visits = 0;
  double total_value = 0.0;
  std::int32_t child = -1;  // node index, -1 until materialized

  double q() const { return visits == 0 ? 0.0 : total_value / double(visits); }
};

struct Node {
  std::int32_t parent = -1;
  Vertex action = hanan::kInvalidVertex;  // action leading here
  std::int64_t action_priority = -1;
  std::int32_t level = 0;       // number of selected Steiner points
  std::int32_t flat_run = 0;    // consecutive flat-cost actions
  double cost = -1.0;           // exact raw state cost, -1 until computed
  bool expanded = false;
  bool terminal = false;
  std::vector<Edge> edges;
};

}  // namespace

std::int32_t scaled_iterations(std::int32_t base_iterations,
                               const hanan::HananGrid& grid) {
  // Paper reference size: 16 x 16 x 4 = 1024 vertices.
  const double reference = 16.0 * 16.0 * 4.0;
  const double ratio = double(grid.num_vertices()) / reference;
  return std::max<std::int32_t>(
      8, std::int32_t(std::lround(double(base_iterations) * std::max(ratio, 0.05))));
}

void CombMctsConfig::validate() const {
  util::check_field(iterations_per_move >= 1, "CombMctsConfig",
                    "iterations_per_move", "be >= 1", iterations_per_move);
  util::check_field(c_puct >= 0.0, "CombMctsConfig", "c_puct",
                    "be non-negative", c_puct);
  util::check_field(flat_cost_patience >= 0, "CombMctsConfig",
                    "flat_cost_patience", "be >= 0", flat_cost_patience);
  util::check_field(flat_eps >= 0.0, "CombMctsConfig", "flat_eps",
                    "be non-negative", flat_eps);
  util::check_field(max_children >= 0, "CombMctsConfig", "max_children",
                    "be >= 0 (0 = all valid children)", max_children);
  util::check_field(prior_uniform_mix >= 0.0 && prior_uniform_mix <= 1.0,
                    "CombMctsConfig", "prior_uniform_mix", "be in [0, 1]",
                    prior_uniform_mix);
  util::check_field(search_workers >= 0, "CombMctsConfig", "search_workers",
                    "be >= 0 (0 = hardware concurrency, 1 = serial)",
                    search_workers);
  util::check_field(warm_start_weight >= 0.0 && warm_start_weight <= 1.0,
                    "CombMctsConfig", "warm_start_weight", "be in [0, 1]",
                    warm_start_weight);
  util::check_field(warm_start_visits >= 0, "CombMctsConfig",
                    "warm_start_visits", "be >= 0", warm_start_visits);
}

CombMcts::CombMcts(rl::SteinerSelector& selector, CombMctsConfig config,
                   const experience::Store* experience)
    : selector_(selector), config_(config), experience_(experience) {
  config_.validate();
}

CombMctsResult CombMcts::run(const HananGrid& grid,
                             const SearchDeadline& deadline) {
  util::Timer timer;
  CombMctsResult result;
  const auto n_vertices = std::size_t(grid.num_vertices());
  result.label.assign(n_vertices, 0.0f);
  result.label_mask.assign(n_vertices, 0.0f);

  ActorCritic ac(selector_, grid);
  const std::int32_t budget = std::max<std::int32_t>(0, std::int32_t(grid.pins().size()) - 2);

  // Per-vertex selection statistics (eq. (3)), indexed by priority.
  std::vector<std::int64_t> n_sel(n_vertices, 0), n_opp(n_vertices, 0);

  std::vector<Node> nodes;
  nodes.reserve(1024);
  nodes.emplace_back();  // root
  nodes[0].cost = ac.exact_cost({});
  result.initial_cost = nodes[0].cost;
  result.final_cost = nodes[0].cost;
  result.best_cost = nodes[0].cost;
  // Node achieving best_cost.  Every candidate has had its exact routing
  // cost computed, so the state it denotes is always a valid routed answer.
  std::int32_t best_node = 0;

  const double rc0 = std::max(nodes[0].cost, 1e-12);
  if (!std::isfinite(nodes[0].cost)) {
    // Pins themselves are unroutable: no Steiner selection can help, and
    // every value below would be NaN.  Report the degenerate episode.
    nodes[0].terminal = true;
  }

  // Normalized state value.  Disconnected states (cost == +inf, see
  // OarmstResult::cost) map to a finite penalty well below any reachable
  // connected value — the cost-increase terminal rule ends episodes long
  // before cost reaches 3*rc0 — so UCT's running means stay finite instead
  // of absorbing -inf into whole subtrees.
  auto value_of = [&](double cost) {
    return std::isfinite(cost) ? (rc0 - cost) / rc0 : -2.0;
  };

  // State of a node: Steiner points along the path from the root.
  auto state_of = [&](std::int32_t node) {
    std::vector<Vertex> selected;
    for (std::int32_t cur = node; cur != 0; cur = nodes[std::size_t(cur)].parent) {
      selected.push_back(nodes[std::size_t(cur)].action);
    }
    std::reverse(selected.begin(), selected.end());
    return selected;
  };

  auto mark_terminal_rules = [&](Node& node, const Node& parent) {
    if (node.level >= budget) node.terminal = true;
    const double parent_cost = parent.cost;
    if (config_.stop_on_cost_increase &&
        node.cost > parent_cost * (1.0 + config_.flat_eps)) {
      node.terminal = true;
    }
    if (std::abs(node.cost - parent_cost) <= parent_cost * config_.flat_eps) {
      node.flat_run = parent.flat_run + 1;
      if (node.flat_run >= config_.flat_cost_patience) node.terminal = true;
    } else {
      node.flat_run = 0;
    }
  };

  if (budget == 0) nodes[0].terminal = true;

  // --- persistent-experience warm start (DESIGN.md §18) ---
  // Resolved once, before the first iteration.  With warm_start off, no
  // store attached, or no applicable experience, `warm` stays empty and
  // every warm branch below is dead — the search is bitwise the cold
  // search.
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
      // Re-evaluate the recorded combination under THIS search's exact
      // cost model and adopt it as the best-so-far floor: a replayed
      // layout can then never finish worse than its recorded episode.
      const double floor_cost = ac.exact_cost(warm.best);
      ++result.stats.simulations;
      warm_first = warm.best.front();  // priority-sorted: the first action
      warm_seed_value = value_of(floor_cost);
      if (floor_cost < result.best_cost) {
        result.best_cost = floor_cost;
        warm_best = warm.best;
        best_is_warm = true;
      }
    }
  }

  // fsp buffer reused across every expansion: with the selector in
  // inference mode the whole evaluate step is then allocation-free.
  std::vector<double> fsp(std::size_t(n_vertices), 0.0);

  std::int32_t root = 0;
  while (!nodes[std::size_t(root)].terminal) {
    // --- alpha UCT iterations from the current root ---
    for (std::int32_t iter = 0; iter < config_.iterations_per_move; ++iter) {
      // Anytime control: checked at iteration granularity, but the very
      // first iteration of the run always executes so a zero-slack request
      // still gets one evaluated expansion (the one-iteration fallback).
      if (deadline && result.stats.iterations > 0 &&
          SearchClock::now() >= *deadline) {
        result.stats.deadline_hit = true;
        break;
      }
      ++result.stats.iterations;
      std::int32_t cur = root;

      // Selection: descend through expanded, non-terminal nodes.
      struct Step {
        std::int32_t node;
        std::size_t edge;
      };
      std::vector<Step> path;
      while (nodes[std::size_t(cur)].expanded && !nodes[std::size_t(cur)].terminal) {
        Node& node = nodes[std::size_t(cur)];
        assert(!node.edges.empty());
        std::int64_t total_visits = 0;
        for (const Edge& e : node.edges) total_visits += e.visits;
        const double sqrt_total = std::sqrt(double(total_visits));

        std::size_t best = 0;
        double best_score = -1e300;
        for (std::size_t i = 0; i < node.edges.size(); ++i) {
          const Edge& e = node.edges[i];
          const double u =
              config_.c_puct * e.prior * sqrt_total / (1.0 + double(e.visits));
          double score = e.q() + u;
          if (total_visits == 0) score = e.prior;  // cold node: order by prior
          if (score > best_score) {
            best_score = score;
            best = i;
          }
        }

        // eq. (3) bookkeeping: every candidate gets an opportunity, the
        // chosen one a selection.
        for (const Edge& e : node.edges) {
          ++n_opp[std::size_t(grid.priority_of(e.action))];
        }
        ++n_sel[std::size_t(grid.priority_of(node.edges[best].action))];

        path.push_back({cur, best});
        Edge& edge = node.edges[best];
        if (edge.child < 0) {
          // Materialize the child node.
          Node child;
          child.parent = cur;
          child.action = edge.action;
          child.action_priority = grid.priority_of(edge.action);
          child.level = node.level + 1;
          edge.child = std::int32_t(nodes.size());
          nodes.push_back(child);
          ++result.stats.nodes;
          // NOTE: `node` and `edge` references are invalidated by push_back.
        }
        cur = nodes[std::size_t(path.back().node)].edges[path.back().edge].child;
      }

      // Leaf evaluation.
      Node& leaf = nodes[std::size_t(cur)];
      const std::vector<Vertex> selected = state_of(cur);

      if (leaf.cost < 0.0) {
        leaf.cost = ac.exact_cost(selected);
        mark_terminal_rules(leaf, nodes[std::size_t(leaf.parent)]);
        if (leaf.cost < result.best_cost) {
          result.best_cost = leaf.cost;
          best_node = cur;
          best_is_warm = false;
        }
      }

      double value;
      if (leaf.terminal) {
        value = value_of(leaf.cost);
      } else if (!leaf.expanded) {
        // Expansion: children from the actor policy.
        ac.fsp_into(selected, fsp);
        auto policy = ac.policy(selected, leaf.action_priority, fsp);
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
          leaf.terminal = true;
          value = value_of(leaf.cost);
        } else {
          const double mix = config_.prior_uniform_mix;
          const double uniform = 1.0 / double(policy.size());
          leaf.edges.reserve(policy.size());
          for (const auto& [v, p] : policy) {
            Edge e;
            e.action = v;
            e.prior = (1.0 - mix) * p + mix * uniform;
            leaf.edges.push_back(e);
          }
          if (cur == 0 && !warm.empty()) {
            // Warm start at the initial root: blend the experience prior
            // (renormalized over the actual child set) into the expansion
            // priors, P' = (1-λ)·P_search + λ·P_exp, then seed synthetic
            // visits on the recorded first action of an exact match so UCT
            // resumes from the recorded trajectory's statistics.
            if (!warm.prior.empty()) {
              double mass = 0.0;
              for (const Edge& e : leaf.edges) {
                mass +=
                    double(warm.prior[std::size_t(grid.priority_of(e.action))]);
              }
              if (mass > 0.0) {
                const double lam = config_.warm_start_weight;
                for (Edge& e : leaf.edges) {
                  const double p_exp =
                      double(warm.prior[std::size_t(grid.priority_of(e.action))]) /
                      mass;
                  e.prior = (1.0 - lam) * e.prior + lam * p_exp;
                }
              }
            }
            if (warm_first != hanan::kInvalidVertex &&
                config_.warm_start_visits > 0) {
              for (Edge& e : leaf.edges) {
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

          // Simulation: critic completion (or exact state cost in
          // curriculum mode).
          ++result.stats.simulations;
          const double predicted = config_.use_critic
                                       ? ac.critic_cost(selected, budget, fsp)
                                       : leaf.cost;
          value = value_of(predicted);
        }
      } else {
        value = value_of(leaf.cost);  // terminal reached via descent
      }

      // Backpropagation.
      for (const Step& step : path) {
        Edge& e = nodes[std::size_t(step.node)].edges[step.edge];
        e.visits += 1;
        e.total_value += value;
      }
    }

    // A hit deadline ends the whole search: best_selected already denotes
    // the best fully-evaluated state, so executing further moves (and the
    // exact_cost call that entails) would only spend budget we do not have.
    if (result.stats.deadline_hit) break;

    // --- execute the most-visited root action ---
    Node& root_node = nodes[std::size_t(root)];
    if (!root_node.expanded || root_node.edges.empty()) break;
    std::size_t best = 0;
    for (std::size_t i = 1; i < root_node.edges.size(); ++i) {
      if (root_node.edges[i].visits > root_node.edges[best].visits) best = i;
    }
#ifdef OAR_MCTS_DEBUG
    {
      std::vector<std::size_t> order(root_node.edges.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return root_node.edges[a].visits > root_node.edges[b].visits;
      });
      std::fprintf(stderr, "[mcts] root cost=%.0f children=%zu:", root_node.cost,
                   root_node.edges.size());
      for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i) {
        const Edge& e = root_node.edges[order[i]];
        const double child_cost =
            e.child >= 0 ? nodes[std::size_t(e.child)].cost : -1.0;
        std::fprintf(stderr, "  [N=%lld Q=%.4f P=%.5f cost=%.0f]",
                     (long long)e.visits, e.q(), e.prior, child_cost);
      }
      std::fprintf(stderr, "\n");
    }
#endif
    Edge& chosen = root_node.edges[best];
    if (chosen.child < 0) break;  // never explored: nothing to execute
    root = chosen.child;
    ++result.stats.executed_moves;

    Node& new_root = nodes[std::size_t(root)];
    if (new_root.cost < 0.0) {
      new_root.cost = ac.exact_cost(state_of(root));
      mark_terminal_rules(new_root, nodes[std::size_t(new_root.parent)]);
    }
    if (new_root.cost < result.best_cost) {
      result.best_cost = new_root.cost;
      best_node = root;
      best_is_warm = false;
    }
  }

  result.selected = state_of(root);
  result.best_selected = best_is_warm ? warm_best : state_of(best_node);
  result.final_cost = nodes[std::size_t(root)].cost;

  // eq. (3): L_fsp(v) = n_sel / n_opp, in priority order.  The mask marks
  // vertices that are legal Steiner locations (not pins / obstacles).
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    const auto p = std::size_t(grid.priority_of(v));
    if (!grid.is_blocked(v) && !grid.is_pin(v)) result.label_mask[p] = 1.0f;
    if (n_opp[p] > 0) {
      result.label[p] = float(double(n_sel[p]) / double(n_opp[p]));
    }
  }
  result.stats.seconds = timer.seconds();

  // One flush per episode: the search's per-iteration counters stay plain
  // struct fields and only land in the global registry here.
  MctsObs& o = mcts_obs();
  o.episodes.inc();
  o.iterations.add(std::uint64_t(result.stats.iterations));
  o.simulations.add(std::uint64_t(result.stats.simulations));
  o.expansions.add(std::uint64_t(result.stats.expansions));
  o.episode_seconds.observe(result.stats.seconds);
  return result;
}

}  // namespace oar::mcts
