#pragma once

// Micro-batched Steiner-point inference for the serving layer.  The batch
// is a scheduling unit only: every grid runs the selector's single-sample
// engine (SteinerSelector::infer_fsp_into — the fp32 arena path or the
// int8 engine, whichever the selector has active), so each fsp is bitwise
// identical to a lone infer_fsp on the same grid, whatever batch it landed
// in.

#include <vector>

#include "rl/selector.hpp"
#include "util/thread_pool.hpp"

namespace oar::serve {

using hanan::HananGrid;

/// fsp (sigmoid probabilities in priority order) for every grid, in input
/// order.  The selector owns one inference arena, so the grids run one
/// after another on the calling thread; `pool` is accepted for callers
/// that hand over their routing pool and is not used.
std::vector<std::vector<double>> batched_fsp(rl::SteinerSelector& selector,
                                             const std::vector<const HananGrid*>& grids,
                                             util::ThreadPool* pool = nullptr);

}  // namespace oar::serve
