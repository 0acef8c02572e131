#pragma once

// Per-channel int8 quantized inference for UNet3d (DESIGN.md §17).
//
// Scheme
//   * Activations: every conv input in this network is non-negative
//     (encoded features live in [0,1]; every other conv consumes a
//     post-ReLU tensor), so activations quantize to uint8 in [0, 127]
//     with a per-channel scale a[c]: q = clamp(rint(x * 127/max[c]), 0, 127).
//     The 7-bit ceiling is what makes the AVX2 maddubs path exact
//     (see simd.hpp).
//   * Weights: the per-input-channel activation scales are folded into
//     the next conv's weights before quantization (w~[oc,ic,·] =
//     a[ic] * w[oc,ic,·]), then each output channel is quantized
//     symmetrically to int8 with its own scale sw[oc].  A raw int32
//     accumulator therefore dequantizes with one fused multiply:
//     x = acc * sw[oc] + bias[oc].
//   * GroupNorm computes per-sample statistics at runtime, so it cannot
//     be folded; instead dequantize + GroupNorm (+ residual add) + ReLU +
//     requantize run fused in shared scalar code.  Confining every float
//     rounding decision to that shared code is what reduces cross-level
//     bit-exactness to the exact integer GEMM contract in simd.hpp.
//
// Incremental first layer (the NNUE accumulator idea)
//   Between consecutive critic calls only a handful of pin voxels change
//   (channel 0 flips 0 -> 1).  QuantizedUNet3d exposes the first-layer
//   state (quantized input + conv1/projection int32 accumulators) plus
//   per-tap delta columns so a caller that caches the base state can
//   patch O(pins * 27 * OC) accumulator entries and resume the forward,
//   bitwise identical to a from-scratch run.  The grid-keyed cache lives
//   in rl::SteinerSelector (nn stays hanan-free).

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/quant/simd.hpp"
#include "nn/unet3d.hpp"

namespace oar::nn {

/// Inference-path configuration (selector / eval-server / serving).
struct InferConfig {
  enum class Precision : std::int32_t { kFp32 = 0, kInt8 = 1 };

  Precision precision = Precision::kFp32;
  /// Accuracy gate (rl::evaluate_int8_gate): minimum top-k selection
  /// agreement with fp32 and maximum int8/fp32 route-cost ratio.
  double int8_min_agreement = 0.6;
  double int8_max_cost_ratio = 1.02;
  /// On gate failure, drop back to fp32 instead of erroring.
  bool int8_fallback_to_fp32 = true;

  void validate() const;
};

namespace quant {

inline std::int32_t ceil4(std::int32_t c) { return (c + 3) & ~3; }

/// Quantize a single non-negative activation with inverse scale 127/max.
inline std::uint8_t quantize_u8(float x, float inv_scale) {
  const float r = x * inv_scale;
  if (r <= 0.0f) return 0;
  if (r >= 127.0f) return 127;
  return std::uint8_t(std::int32_t(__builtin_rintf(r)));
}

inline float dequantize_u8(std::uint8_t q, float scale) {
  return float(q) * scale;
}

/// One packed conv: int8 weights in the simd.hpp layout, per-output-channel
/// dequant scale (input activation scales already folded in) and float bias.
struct QuantConv {
  std::int32_t in_c = 0;
  std::int32_t out_c = 0;
  std::int32_t kernel = 1;  // 1 or 3
  std::int32_t icp = 0;     // ceil4(in_c): activation channel stride
  std::vector<std::int8_t> w;
  std::vector<float> scale;  // [out_c]  x = acc * scale + bias
  std::vector<float> bias;   // [out_c]
};

struct QuantNorm {
  std::vector<float> gamma, beta;
  std::int32_t groups = 1;
  float eps = 1e-5f;
};

/// Residual block: conv1 -> GN+ReLU -> requant(mid) -> conv2 ->
/// GN + skip + ReLU -> requant(out).  Skip is either the 1x1 projection
/// accumulator or the identity input dequantized with in_scale.
struct QuantBlock {
  QuantConv conv1, conv2;
  QuantConv proj;  // valid iff has_proj
  bool has_proj = false;
  QuantNorm n1, n2;
  std::vector<float> in_scale;   // input point scales (identity-skip dequant)
  std::vector<float> mid_inv;    // [out_c] requant: q = rint(x * mid_inv)
  std::vector<float> out_inv;    // [out_c]
  std::vector<float> out_scale;  // [out_c] 1 / out_inv (next layer's input)
};

/// Frozen int8 weight pack + forward engine for one UNet3d.  Built by
/// QuantCalibrator::finish(); immutable after that except for grow-only
/// scratch.  Not thread-safe (one per selector, like InferenceScratch).
class QuantizedUNet3d {
 public:
  const UNet3dConfig& config() const { return cfg_; }
  /// Dispatch level the engine bound at construction.
  simd::Level level() const { return level_; }

  /// Full forward from a channel-major (C, H, V, M) float feature volume:
  /// quantize -> int8 U-Net -> float logits -> sigmoid into `out` (resized
  /// to H*V*M).  Bitwise identical across dispatch levels.
  void infer_fsp_from_features(const float* features, std::int32_t H,
                               std::int32_t V, std::int32_t M,
                               std::vector<double>& out);

  // --- first-layer primitives (incremental accumulator) -----------------
  std::int32_t input_icp() const { return ceil4(cfg_.in_channels); }
  std::int32_t first_layer_oc() const;
  bool first_layer_has_proj() const;

  /// Quantize the input volume into NHWC uint8 `q` (caller-sized
  /// H*V*M * input_icp(); padding lanes are zeroed).
  void quantize_input(const float* features, std::int32_t H, std::int32_t V,
                      std::int32_t M, std::uint8_t* q);

  /// Run the first-layer convolutions on a quantized input.  `accp` must
  /// be non-null iff first_layer_has_proj().
  void first_layer_acc(const std::uint8_t* q, std::int32_t H, std::int32_t V,
                       std::int32_t M, std::int32_t* acc1,
                       std::int32_t* accp);

  /// Resume the forward from (possibly patched) first-layer state.  A null
  /// acc1 (and accp) is computed from `q` on the fly.  Bitwise identical
  /// to infer_fsp_from_features on the same input.
  void infer_from_first_layer(const std::uint8_t* q, const std::int32_t* acc1,
                              const std::int32_t* accp, std::int32_t H,
                              std::int32_t V, std::int32_t M,
                              std::vector<double>& out);

  /// Quantized value of a 1.0 pin activation on channel `c` (what a pin
  /// flip writes into the input volume).
  std::uint8_t quantized_one(std::int32_t c) const;
  /// Accumulator delta of one pin flip (0 -> quantized_one(0)) for conv1:
  /// [27 * first_layer_oc()], indexed [tap * OC + oc] — the output voxel
  /// for tap (k0,k1,k2) is (pin + 1 - k) per axis.
  const std::vector<std::int32_t>& pin_delta() const { return pin_dcol_; }
  /// Same for the first-layer 1x1 projection: [first_layer_oc()].
  const std::vector<std::int32_t>& pin_delta_proj() const {
    return pin_dcol_proj_;
  }

  /// Scratch reallocation count (tests assert it stops growing once warm).
  std::uint64_t scratch_grow_events() const { return grow_events_; }

 private:
  friend class QuantCalibrator;
  QuantizedUNet3d() = default;

  void run_block(const QuantBlock& b, const std::uint8_t* in, std::int32_t d0,
                 std::int32_t d1, std::int32_t d2, const std::int32_t* acc1_pre,
                 const std::int32_t* accp_pre, std::uint8_t* out);
  /// The residual term requant_norm adds before the final ReLU,
  /// dequantized where it is read: a 1x1 projection accumulator
  /// (x = acc * scale + bias, OC values per voxel) or the identity block
  /// input (x = q * scale, `q_stride` bytes per voxel).  Neither set means
  /// no skip (the norm1 position).
  struct Skip {
    const std::int32_t* acc = nullptr;
    const std::uint8_t* q = nullptr;
    std::int32_t q_stride = 0;
    const float* scale = nullptr;
    const float* bias = nullptr;
  };
  void requant_norm(const std::int32_t* acc, const QuantConv& conv,
                    const QuantNorm& n, const Skip& skip, std::int64_t S,
                    const std::vector<float>& inv_out, std::uint8_t* out);
  template <typename T>
  T* grown(std::vector<T>& v, std::size_t n);

  UNet3dConfig cfg_;
  simd::Level level_ = simd::Level::kScalar;
  simd::Kernels kernels_{nullptr, nullptr};

  std::vector<float> in_scale_, in_inv_;  // [in_channels]
  std::vector<QuantBlock> enc_, dec_;     // dec_ deepest-first
  QuantBlock bottleneck_;
  QuantConv head_;
  std::uint8_t q_pin_ = 0;
  std::vector<std::int32_t> pin_dcol_, pin_dcol_proj_;

  // Grow-only scratch (zero allocations once warm).
  std::vector<std::int32_t> acc_a_, acc_b_, acc_p_;
  std::vector<std::uint8_t> qin_, mid_, cat_, bott_, ping_, pong_;
  std::vector<std::vector<std::uint8_t>> skip_, down_;
  std::vector<float> logits_, mu_c_, inv_c_, coef_rep_;
  std::vector<double> sum_, sumsq_;
  std::vector<std::int64_t> moment_s_;        // [parts * OC] partial sums
  std::vector<unsigned __int128> moment_q_;  // [parts * OC] partial squares
  std::uint64_t grow_events_ = 0;
};

/// Records per-channel activation maxima over representative inputs by
/// replaying the fp32 inference path, then emits the int8 pack.
class QuantCalibrator {
 public:
  /// `net` must be in inference mode; only read, never mutated.
  explicit QuantCalibrator(const UNet3d& net);
  ~QuantCalibrator();

  /// Observe one channel-major (C, H, V, M) feature volume.
  void observe(const float* features, std::int32_t H, std::int32_t V,
               std::int32_t M);
  std::int64_t samples() const { return samples_; }

  /// Fold scales, quantize weights, bind the dispatch kernels.  Throws
  /// std::logic_error when no samples were observed.
  std::unique_ptr<QuantizedUNet3d> finish() const;

 private:
  struct BlockMax {
    std::vector<float> mid, out;
  };
  void observe_block(const ResidualBlock3d& blk, BlockMax& m, const float* in,
                     std::int32_t d0, std::int32_t d1, std::int32_t d2,
                     std::vector<float>& out);

  const UNet3d& net_;
  std::vector<float> in_max_;
  std::vector<BlockMax> enc_max_, dec_max_;
  BlockMax bot_max_;
  std::int64_t samples_ = 0;

  // fp32 replay buffers (grow-only).
  mutable InferenceScratch scratch_;
  std::vector<float> t1_, t2_, proj_, cat_, up_, cur_;
  std::vector<std::vector<float>> skip_;
};

// --- oar_nn_quant_* metrics hooks (usable from rl/mcts/serve) -----------
void note_fp32_forward();
void note_int8_gate_failure();
void note_accumulator_hit();
void note_accumulator_rebuild();

}  // namespace quant
}  // namespace oar::nn
