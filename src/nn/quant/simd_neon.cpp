// NEON kernels for the int8 NHWC convolution primitives (contract in
// simd.hpp).  aarch64 only: NEON is baseline there, so runtime detection is
// trivial; with the v8.2 dot-product extension (__ARM_FEATURE_DOTPROD) the
// inner step is one sdot per (group, 4 output channels), otherwise a
// widening vmull_s8 / pairwise-add-long sequence.  Activations are <= 127,
// so reinterpreting them as int8 for sdot/vmull_s8 is value-preserving and
// every product fits int16 — exact integer arithmetic, bit-identical to the
// scalar reference.

#include "nn/quant/simd.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstring>

namespace oar::nn::simd {
namespace {

// acc4 lanes = 4 consecutive output channels.  a16 holds the broadcast
// 4-byte activation group repeated 4x; w16 the 4 channels' 4-byte weight
// blocks.
inline int32x4_t dp_neon(int32x4_t acc4, int8x16_t a16, int8x16_t w16) {
#if defined(__ARM_FEATURE_DOTPROD)
  return vdotq_s32(acc4, a16, w16);
#else
  // vmull low/high: 8 int16 products each (two channels' 4-products).
  // vpaddlq_s16 folds product pairs into int32 lanes; vpaddq_s32 folds the
  // remaining pairs so lane i is channel i's full 4-dot.
  const int16x8_t lo = vmull_s8(vget_low_s8(a16), vget_low_s8(w16));
  const int16x8_t hi = vmull_s8(vget_high_s8(a16), vget_high_s8(w16));
  const int32x4_t s = vpaddq_s32(vpaddlq_s16(lo), vpaddlq_s16(hi));
  return vaddq_s32(acc4, s);
#endif
}

inline int8x16_t broadcast_group_neon(const std::uint8_t* p) {
  std::uint32_t bits;
  std::memcpy(&bits, p, 4);
  return vreinterpretq_s8_u32(vdupq_n_u32(bits));
}

// One voxel's accumulation over the valid taps, vector over OC in blocks
// of 4 with a scalar tail.
inline void conv3_voxel_neon(const std::uint8_t* act, std::int32_t D1,
                             std::int32_t D2, std::int32_t ICp,
                             const std::int8_t* wp, std::int32_t OC,
                             std::int32_t o0, std::int32_t o1, std::int32_t o2,
                             std::int32_t k0_lo, std::int32_t k0_hi,
                             std::int32_t k1_lo, std::int32_t k1_hi,
                             std::int32_t k2_lo, std::int32_t k2_hi,
                             std::int32_t* out) {
  const std::int32_t G = ICp / 4;
  std::int32_t oc = 0;
  for (; oc + 4 <= OC; oc += 4) {
    int32x4_t acc4 = vdupq_n_s32(0);
    for (std::int32_t k0 = k0_lo; k0 <= k0_hi; ++k0) {
      for (std::int32_t k1 = k1_lo; k1 <= k1_hi; ++k1) {
        const std::uint8_t* arow =
            act + ((std::int64_t(o0 + k0 - 1) * D1 + (o1 + k1 - 1)) * D2 +
                   (o2 - 1)) *
                      ICp;
        for (std::int32_t k2 = k2_lo; k2 <= k2_hi; ++k2) {
          const std::uint8_t* a = arow + std::int64_t(k2) * ICp;
          const std::int8_t* w =
              wp + (std::int64_t((k0 * 3 + k1) * 3 + k2) * G * OC + oc) * 4;
          for (std::int32_t g = 0; g < G; ++g, w += std::int64_t(OC) * 4) {
            acc4 = dp_neon(acc4, broadcast_group_neon(a + 4 * g),
                           vld1q_s8(w));
          }
        }
      }
    }
    vst1q_s32(out + oc, acc4);
  }
  for (; oc < OC; ++oc) {
    std::int32_t s = 0;
    for (std::int32_t k0 = k0_lo; k0 <= k0_hi; ++k0) {
      for (std::int32_t k1 = k1_lo; k1 <= k1_hi; ++k1) {
        const std::uint8_t* arow =
            act + ((std::int64_t(o0 + k0 - 1) * D1 + (o1 + k1 - 1)) * D2 +
                   (o2 - 1)) *
                      ICp;
        for (std::int32_t k2 = k2_lo; k2 <= k2_hi; ++k2) {
          const std::uint8_t* a = arow + std::int64_t(k2) * ICp;
          const std::int8_t* w =
              wp + (std::int64_t((k0 * 3 + k1) * 3 + k2) * G * OC + oc) * 4;
          for (std::int32_t g = 0; g < G; ++g) {
            const std::uint8_t* ag = a + 4 * g;
            const std::int8_t* wo = w + std::int64_t(g) * OC * 4;
            s += std::int32_t(ag[0]) * wo[0] + std::int32_t(ag[1]) * wo[1] +
                 std::int32_t(ag[2]) * wo[2] + std::int32_t(ag[3]) * wo[3];
          }
        }
      }
    }
    out[oc] = s;
  }
}

void conv3_nhwc_neon(const std::uint8_t* act, std::int32_t D0, std::int32_t D1,
                     std::int32_t D2, std::int32_t ICp, const std::int8_t* wp,
                     std::int32_t OC, std::int32_t o0_begin,
                     std::int32_t o0_end, std::int32_t* acc) {
  std::int32_t* out = acc + std::int64_t(o0_begin) * D1 * D2 * OC;
  for (std::int32_t o0 = o0_begin; o0 < o0_end; ++o0) {
    const std::int32_t k0_lo = o0 > 0 ? 0 : 1;
    const std::int32_t k0_hi = o0 + 1 < D0 ? 2 : 1;
    for (std::int32_t o1 = 0; o1 < D1; ++o1) {
      const std::int32_t k1_lo = o1 > 0 ? 0 : 1;
      const std::int32_t k1_hi = o1 + 1 < D1 ? 2 : 1;
      for (std::int32_t o2 = 0; o2 < D2; ++o2, out += OC) {
        conv3_voxel_neon(act, D1, D2, ICp, wp, OC, o0, o1, o2, k0_lo, k0_hi,
                         k1_lo, k1_hi, o2 > 0 ? 0 : 1, o2 + 1 < D2 ? 2 : 1,
                         out);
      }
    }
  }
}

void conv1_nhwc_neon(const std::uint8_t* act, std::int64_t S, std::int32_t ICp,
                     const std::int8_t* wp, std::int32_t OC,
                     std::int32_t* acc) {
  const std::int32_t G = ICp / 4;
  for (std::int64_t v = 0; v < S; ++v) {
    const std::uint8_t* a = act + v * ICp;
    std::int32_t* out = acc + v * OC;
    std::int32_t oc = 0;
    for (; oc + 4 <= OC; oc += 4) {
      int32x4_t acc4 = vdupq_n_s32(0);
      const std::int8_t* w = wp + std::int64_t(oc) * 4;
      for (std::int32_t g = 0; g < G; ++g, w += std::int64_t(OC) * 4) {
        acc4 = dp_neon(acc4, broadcast_group_neon(a + 4 * g), vld1q_s8(w));
      }
      vst1q_s32(out + oc, acc4);
    }
    for (; oc < OC; ++oc) {
      std::int32_t s = 0;
      for (std::int32_t g = 0; g < G; ++g) {
        const std::uint8_t* ag = a + 4 * g;
        const std::int8_t* wo = wp + (std::int64_t(g) * OC + oc) * 4;
        s += std::int32_t(ag[0]) * wo[0] + std::int32_t(ag[1]) * wo[1] +
             std::int32_t(ag[2]) * wo[2] + std::int32_t(ag[3]) * wo[3];
      }
      out[oc] = s;
    }
  }
}

constexpr Kernels kNeonKernels{conv3_nhwc_neon, conv1_nhwc_neon};

}  // namespace

namespace detail {
const Kernels* neon_kernels() { return &kNeonKernels; }
}  // namespace detail

}  // namespace oar::nn::simd

#else  // !aarch64

namespace oar::nn::simd::detail {
const Kernels* neon_kernels() { return nullptr; }
}  // namespace oar::nn::simd::detail

#endif
