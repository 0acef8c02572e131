#pragma once

// Module protocol for the manual-backprop DL library.
//
// Modules process ONE sample at a time (no batch axis) on the training
// path; batching is done by the trainer, which runs forward/backward per
// sample and accumulates parameter gradients before an optimizer step.
// This matches the paper's same-size batches while keeping every layer's
// backward simple and easy to verify with finite differences.  A module
// caches whatever it needs in forward(); backward(grad_out) must be called
// after the matching forward.
//
// Inference has one engine for every batch size: set_training(false)
// switches forward() itself onto the single-sample inference engine
// (DESIGN.md §11) — register-tiled kernels from conv3d_batch.cpp,
// temporaries from an InferenceScratch arena, and NO activation retention —
// so backward() must not be called until set_training(true) has been
// restored and a fresh training forward has run.  Layers assert training()
// at the top of backward() to fail fast on stale caches.  Callers with N
// same-shape samples (the serving batcher, the MCTS eval server, dataset
// evaluation) run N arena passes; there is no stacked (N, ...) forward, so
// every sample's output is bitwise independent of the batch it rode in.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace oar::nn {

/// Learnable tensor plus its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

/// dst.grad += src.grad, element-wise over two parameter lists of the same
/// architecture.  One reduction step of the data-parallel trainer: each
/// worker replica accumulates gradients locally, then replicas are merged
/// pairwise (tree reduction) into the master parameter list.
inline void accumulate_gradients(const std::vector<Parameter*>& dst,
                                 const std::vector<Parameter*>& src) {
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    assert(dst[i]->grad.shape() == src[i]->grad.shape());
    dst[i]->grad += src[i]->grad;
  }
}

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the output and caches activations needed for backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Appends raw pointers to this module's (and submodules') parameters.
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }

  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  std::int64_t num_parameters() {
    std::int64_t n = 0;
    for (Parameter* p : parameters()) n += p->value.numel();
    return n;
  }

  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.zero();
  }

  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

 protected:
  bool training_ = true;
};

}  // namespace oar::nn
