#pragma once

// Runtime CPU dispatch for the int8 inference kernels (DESIGN.md §17).
//
// The quantized U-Net forward reduces to two integer convolution
// primitives over channel-interleaved (NHWC, "voxel-major") uint8
// activations:
//
//   conv3_nhwc — 3x3x3, stride 1, symmetric zero padding ("same" size)
//   conv1_nhwc — 1x1x1 (residual projections and the logit head)
//
// Kernel contract (what makes every level bit-exact):
//   * Activations are uint8 in [0, 127] (quantization clamps to 7 bits).
//     Weights are int8 in [-128, 127].  A `_mm256_maddubs_epi16` pair sum
//     is therefore bounded by 2 * 127 * 128 = 32512 < 32767 — the u8*s8
//     multiply-add NEVER saturates, so the AVX2 path is exact integer
//     arithmetic, and int32 accumulation is associative.  Every level
//     (scalar reference, AVX2 maddubs, AVX-512VL VNNI dpbusd, NEON)
//     computes the same int32 accumulators bit for bit; all float
//     rounding (dequantize / GroupNorm / requantize) happens once, in
//     shared scalar code in quantize.cpp.
//   * The activation channel stride ICp is the channel count padded up to
//     a multiple of 4.  Weight packs zero the padding lanes, so padding
//     bytes may hold anything (0 * x == 0 exactly).
//   * Weight pack layout, conv3: w[((tap*G + g)*OC + oc)*4 + j] where
//     tap = (k0*3 + k1)*3 + k2, G = ICp/4, g = ic/4, j = ic%4.  conv1 is
//     the tap == 0 slice of the same layout.  The 4-byte (oc, g) groups
//     line up with one dpbusd lane / one maddubs+madd pair.
//   * Output accumulators are voxel-major: acc[voxel*OC + oc].
//
// Dispatch: dispatch() picks the best supported level once per process —
// NEON on aarch64, else AVX-512VL+VNNI, else AVX2, else scalar — and logs
// the choice.  OARSMTRL_FORCE_SCALAR=1 forces the scalar reference (the CI
// force-scalar lane); OARSMTRL_SIMD=scalar|avx2|vnni|neon requests a
// specific level and falls back to the best supported one if unavailable.
// kernels_for() exposes every supported level so the test battery can run
// each vector kernel against the scalar reference in one process.

#include <cstdint>

namespace oar::nn::simd {

enum class Level : std::int32_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx2Vnni = 2,  // 256-bit _mm256_dpbusd_epi32 (AVX-512VL + AVX-512VNNI)
  kNeon = 3,
};

struct Kernels {
  /// 3x3x3 "same" convolution over an NHWC uint8 volume (D0, D1, D2, ICp)
  /// into voxel-major int32 accumulators acc[(D0*D1*D2) * OC], for output
  /// rows o0 in [o0_begin, o0_end) only: `acc` is the whole volume's base
  /// and no other row is written.  Row ranges are how the inference team
  /// splits one convolution; every voxel's sum is the same exact integer
  /// whatever the range.
  void (*conv3_nhwc)(const std::uint8_t* act, std::int32_t D0, std::int32_t D1,
                     std::int32_t D2, std::int32_t ICp, const std::int8_t* wp,
                     std::int32_t OC, std::int32_t o0_begin,
                     std::int32_t o0_end, std::int32_t* acc);
  /// 1x1x1 convolution: S voxels of ICp channels -> acc[S * OC].
  void (*conv1_nhwc)(const std::uint8_t* act, std::int64_t S, std::int32_t ICp,
                     const std::int8_t* wp, std::int32_t OC, std::int32_t* acc);
};

/// Human-readable level name ("scalar", "avx2", "avx2+vnni", "neon").
const char* level_name(Level level);

/// Compile-time + runtime support check for `level` on this machine.
bool level_supported(Level level);

/// Kernel table for `level`, or nullptr when unsupported — the test
/// battery iterates all levels and compares each against kScalar.
const Kernels* kernels_for(Level level);

/// The level the process dispatched to (chosen once, env honored).
Level dispatch_level();

/// True when OARSMTRL_FORCE_SCALAR pinned the dispatcher to the scalar
/// reference (recorded in bench machine blocks).
bool force_scalar_active();

/// Kernel table of dispatch_level(); never null (scalar always exists).
const Kernels& dispatch();

/// Pure selection policy, exposed for unit tests: `force_scalar_env` /
/// `simd_env` are the raw OARSMTRL_FORCE_SCALAR / OARSMTRL_SIMD values
/// (nullptr when unset); the has_* flags describe the machine.  An
/// unsupported OARSMTRL_SIMD request falls back to the best level.
Level choose_level(const char* force_scalar_env, const char* simd_env,
                   bool has_avx2, bool has_vnni, bool has_neon);

}  // namespace oar::nn::simd
