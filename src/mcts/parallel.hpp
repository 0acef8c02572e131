#pragma once

// Tree-parallel combinatorial MCTS (DESIGN.md §15).
//
// ParallelCombMcts runs the exact search of CombMcts (same UCT math, same
// eq.-(3) label bookkeeping, same terminal rules) with K workers descending
// ONE shared tree concurrently:
//
//   * Virtual loss: each descent stamps an integer virtual loss on every
//     edge it traverses (one pessimistic phantom visit: effective visits
//     n+vl, effective value sum W-vl) and reverts it during backup.
//     Concurrent workers therefore spread over different subtrees instead
//     of piling onto the current argmax.  The bookkeeping is kept as a
//     separate per-edge counter — never folded into visits/value — so a
//     fully reverted tree is BITWISE the tree the serial search builds,
//     and with a single worker (virtual losses never observed non-zero)
//     every selection computes the serial floating-point expressions
//     verbatim: `search_workers = 1` is bitwise-identical to CombMcts.
//   * Leaf inference runs on the worker itself: it encodes the state's
//     feature volume with its private hanan::FeatureCache, then runs the
//     selector's single-sample forward under the search's selector mutex
//     (the selector's inference arena is single-threaded by contract), so
//     every fsp is bitwise the serial selector's.  Exact state costs and
//     critic completions (maze/OARMST work) stay on the worker's own
//     ActorCritic + RouterScratch, outside every lock.
//   * Tree mutations (selection bookkeeping, expansion commit, backup) are
//     serialized by one tree mutex; evaluations — ~all of the wall time —
//     run outside it.  A worker reaching a leaf that another worker is
//     already evaluating waits for that result instead of duplicating the
//     evaluation (stats.eval_waits counts these).
//
// After every root move the search self-checks the virtual-loss invariant
// (every edge back to zero, applied == reverted) and throws on violation.
//
// Labels: at K > 1 the iteration *interleaving* depends on thread timing,
// so n_sel/n_opp — and therefore L_fsp — are distribution-equivalent to
// the serial labels, not bitwise-equal (tests/test_mcts_parallel.cpp gates
// the equivalence; DESIGN.md §15 explains why this is inherent).

#include <cstdint>
#include <mutex>

#include "mcts/comb_mcts.hpp"

namespace oar::mcts {

class ParallelCombMcts {
 public:
  /// Uses CombMctsConfig's search_workers knob.  The selector must
  /// outlive the search and, while run() executes, is used only under the
  /// search's selector mutex — the caller must not run its own forwards on
  /// it concurrently.  `experience` (optional, must outlive the search)
  /// feeds the warm-start lookup, consulted only when config.warm_start is
  /// on — the same root seeding as the serial CombMcts, applied under the
  /// tree lock at the initial root's expansion commit.
  ParallelCombMcts(rl::SteinerSelector& selector, CombMctsConfig config = {},
                   const experience::Store* experience = nullptr);

  /// Same contract as CombMcts::run, including the anytime mode: with a
  /// `deadline`, workers stop claiming iterations once it has passed (the
  /// first iteration of the run is always executed — the zero-slack
  /// fallback), a leaf whose deadline has expired by the time its worker
  /// holds the selector is skipped instead of evaluated (its virtual
  /// losses reverted), and the result's best_selected is the best
  /// fully-evaluated state.  A run whose deadline never fires is bitwise
  /// identical to the unbounded run at search_workers == 1.  May be called
  /// repeatedly.
  CombMctsResult run(const HananGrid& grid,
                     const SearchDeadline& deadline = std::nullopt);

  /// Resolved worker count (search_workers == 0 -> hardware concurrency).
  std::int32_t workers() const { return workers_; }

 private:
  rl::SteinerSelector& selector_;
  std::mutex selector_mu_;  // serializes run()'s forwards on selector_
  CombMctsConfig config_;
  const experience::Store* experience_;
  std::int32_t workers_;
};

}  // namespace oar::mcts
