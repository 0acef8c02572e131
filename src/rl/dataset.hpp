#pragma once

// Training samples and the size-bucketed dataset (paper Fig. 9): every
// batch contains samples of one layout size only; an epoch walks all
// batches of all sizes.

#include <map>
#include <tuple>
#include <vector>

#include "hanan/hanan_grid.hpp"
#include "util/rng.hpp"

namespace oar::rl {

using hanan::HananGrid;
using hanan::Vertex;

/// One supervised sample for the Steiner-point selector.
struct TrainingSample {
  HananGrid grid;
  /// Already-selected Steiner points encoded as pins (sequential agents;
  /// empty for combinatorial samples, whose input is the initial layout).
  std::vector<Vertex> extra_pins;
  /// Target L_fsp (or visit distribution) per vertex, priority order.
  std::vector<float> label;
  /// BCE weight per vertex (0 on pins/obstacles), priority order.
  std::vector<float> mask;
};

class Dataset {
 public:
  void add(TrainingSample sample);
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  void clear();

  /// Shuffled same-size batches covering every sample once (one epoch).
  /// Each batch is a list of indices into samples().
  std::vector<std::vector<std::size_t>> epoch_batches(std::size_t batch_size,
                                                      util::Rng& rng) const;

  /// Deterministic (unshuffled) same-size batches covering every sample
  /// once, in size-bucket then insertion order.  Used by evaluation paths
  /// (e.g. dataset_loss) that must not consume RNG state.
  std::vector<std::vector<std::size_t>> ordered_batches(std::size_t batch_size) const;

  const TrainingSample& sample(std::size_t i) const { return samples_[i]; }

  /// Number of distinct layout sizes present.
  std::size_t num_sizes() const { return by_size_.size(); }

 private:
  using SizeKey = std::tuple<std::int32_t, std::int32_t, std::int32_t>;
  std::vector<TrainingSample> samples_;
  std::map<SizeKey, std::vector<std::size_t>> by_size_;
};

}  // namespace oar::rl
