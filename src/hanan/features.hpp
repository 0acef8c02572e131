#pragma once

// Input feature encoding of a Hanan-grid layout (paper Fig. 3).
//
// Every vertex gets 7 channels:
//   0: is a pin (previously selected Steiner points are passed in as extra
//      pins by the MCTS, matching the paper's "treated as normal pins")
//   1: is an obstacle
//   2: routing cost to the vertex immediately to the right (+x)
//   3: routing cost to the left (-x)
//   4: routing cost upstairs (+y)
//   5: routing cost downstairs (-y)
//   6: via cost
// The five cost channels are normalized by the maximum cost value of the
// layout so they lie in [0, 1]; a direction with no usable edge encodes 0.

#include <cstdint>
#include <vector>

#include "hanan/hanan_grid.hpp"

namespace oar::hanan {

inline constexpr std::int32_t kNumFeatureChannels = 7;

/// Dense C x H x V x M float volume, m fastest-varying:
/// data[((c*H + h)*V + v)*M + m].
struct FeatureVolume {
  std::int32_t c = 0, h = 0, v = 0, m = 0;
  std::vector<float> data;

  std::size_t offset(std::int32_t ci, std::int32_t hi, std::int32_t vi,
                     std::int32_t mi) const {
    return std::size_t(((std::int64_t(ci) * h + hi) * v + vi) * m + mi);
  }
  float at(std::int32_t ci, std::int32_t hi, std::int32_t vi, std::int32_t mi) const {
    return data[offset(ci, hi, vi, mi)];
  }
  float& at(std::int32_t ci, std::int32_t hi, std::int32_t vi, std::int32_t mi) {
    return data[offset(ci, hi, vi, mi)];
  }
};

/// Encode `grid` into the 7-channel feature volume.  `extra_pins` are
/// additional vertices (selected Steiner points) encoded as pins.
FeatureVolume encode_features(const HananGrid& grid,
                              const std::vector<Vertex>& extra_pins = {});

/// Encode directly into caller-provided storage of kNumFeatureChannels *
/// H * V * M floats (zero-filled first).  Lets the selector and the
/// serving layer write features straight into a network input tensor with
/// no intermediate FeatureVolume copy.
void encode_features_into(const HananGrid& grid,
                          const std::vector<Vertex>& extra_pins, float* out);

/// Incremental feature encoding for the MCTS hot loop.
///
/// Within one episode every state shares the same grid and differs only in
/// its selected Steiner points, which touch channel 0 (pins) alone — yet
/// the selector used to re-run the full 7-channel encode_features per
/// state.  FeatureCache keeps the base (no extra pins) volume for the last
/// grid seen, keyed on (grid address, HananGrid::revision()): the revision
/// stamp comes from a global counter bumped on construction, every
/// topology mutation and every edge-cost overlay write, so two different
/// grids can never collide on the key even if one is destroyed and another
/// reuses its address.  The features ignore the overlay, so an overlay
/// write (full-chip negotiation) costs a full re-encode although the base
/// volume is unchanged.  encode_into
/// copies the cached base and patches the extra-pin voxels into the copy,
/// which leaves the cache itself clean by construction (equivalent to
/// patching and un-patching in place, without the hazard).
class FeatureCache {
 public:
  FeatureCache() = default;
  FeatureCache(const FeatureCache&) = delete;
  FeatureCache& operator=(const FeatureCache&) = delete;
  FeatureCache(FeatureCache&&) = default;
  FeatureCache& operator=(FeatureCache&&) = default;

  /// Equivalent to encode_features_into(grid, extra_pins, out), but only
  /// the extra-pin deltas are recomputed while (address, revision) match
  /// the cached base volume.
  void encode_into(const HananGrid& grid, const std::vector<Vertex>& extra_pins,
                   float* out);

  /// Full base re-encodes performed so far (diagnostic/test hook: one per
  /// distinct (grid, revision) actually seen).
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  const HananGrid* grid_ = nullptr;
  std::uint64_t revision_ = 0;
  FeatureVolume base_;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace oar::hanan
