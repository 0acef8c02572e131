#pragma once

// Inference-mode workspace arena for the single-sample U-Net fast path
// (DESIGN.md §11).
//
// Every `UNet3d::forward` in training mode heap-allocates each intermediate
// activation and retains inputs for backward; the MCTS hot loop calls it
// thousands of times per episode and never backprops.  An InferenceScratch
// owns (a) a pool of activation tensors handed out in pass order via
// push()/rewind() — ping-pong buffers sized to the layer high-water mark —
// and (b) the named flat workspaces of the tiled convolution kernels
// (transposed weights, im2col panel, GEMM product panel, accumulator
// block).  Everything is grow-only, so after one warmed-up pass of a given
// layout size a full inference forward performs zero heap allocations
// (asserted by tests/test_inference.cpp via an operator-new counting hook
// and the grow_events() counter below).
//
// Threading contract (mirrors route::RouterScratch): an InferenceScratch is
// NOT thread safe and must not be shared between concurrently running
// forwards.  Each UNet3d owns one, so one selector == one arena: the
// trainer clone pool holds per-worker selectors, serve::RouterService runs
// every forward on its batcher thread, and mcts::ParallelCombMcts runs its
// workers' forwards under one selector mutex.  Standalone eval-mode layer
// forwards fall back to local_inference_scratch(), one per thread.
//
// Within one forward, every layer splits across the process-wide inference
// team (util/team.hpp, DESIGN.md §11): the forward's own thread plus up to
// hardware_concurrency - 1 helpers write disjoint slices of the arena's
// tensors, and a kernel that needs a workspace per part sizes it from
// ForkJoinTeam::parts_for and hands each part its own slice.  Only the
// calling thread ever push()es, rewinds or grows the arena.  The split
// never changes per-element arithmetic, so a forward is bitwise the same
// whether the team runs it or it runs inline (on a ThreadPool worker,
// while another forward holds the team, or below the work threshold).
//
// Lifetime contract: tensors returned by push() stay valid until the slot
// is handed out again after a rewind().  UNet3d::infer never rewinds — the
// caller rewinds first, optionally push()es the input tensor, then runs
// infer, so arena-resident inputs survive the pass.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace oar::nn {

class InferenceScratch {
 public:
  InferenceScratch() = default;
  InferenceScratch(const InferenceScratch&) = delete;
  InferenceScratch& operator=(const InferenceScratch&) = delete;

  /// Next pooled activation tensor, re-dimensioned to `shape`; contents are
  /// unspecified.  Slots are unique_ptr-backed so the returned reference
  /// stays stable across later push() calls.
  Tensor& push(const std::vector<std::int32_t>& shape);
  /// Braced-shape variant; preferred in the hot loop because it never
  /// materializes a std::vector for the shape argument.
  Tensor& push(std::initializer_list<std::int32_t> shape);

  /// Hand all slots back without releasing memory.
  void rewind() { used_ = 0; }
  std::size_t used() const { return used_; }

  // Named kernel workspaces, grow-only.  wt: (K, OC)-transposed conv
  // weights; col/prod/acc: im2col panel, GEMM output panel, register block.
  float* wt(std::size_t n) { return ensure(wt_, n); }
  float* col(std::size_t n) { return ensure(col_, n); }
  float* prod(std::size_t n) { return ensure(prod_, n); }
  float* acc(std::size_t n) { return ensure(acc_, n); }

  /// Number of capacity-growth events (new slot, or any slot/workspace
  /// outgrowing its storage).  A warmed-up arena must hold this constant —
  /// the allocation-freeness hook used by tests and benchmarks.
  std::uint64_t grow_events() const { return grow_events_; }

 private:
  Tensor& next_slot();
  float* ensure(std::vector<float>& v, std::size_t n);

  std::vector<std::unique_ptr<Tensor>> slots_;
  std::size_t used_ = 0;
  std::vector<float> wt_;
  std::vector<float> col_;
  std::vector<float> prod_;
  std::vector<float> acc_;
  std::uint64_t grow_events_ = 0;
};

/// Per-thread fallback arena for inference-mode layer forwards that run
/// outside a UNet3d (which owns its own scratch).
InferenceScratch& local_inference_scratch();

}  // namespace oar::nn
