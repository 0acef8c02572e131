#include "nn/quant/simd.hpp"

#include <cstdlib>
#include <cstring>

#include "util/logging.hpp"

namespace oar::nn::simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels.  Every vector level must reproduce these int32
// accumulators bit for bit (integer arithmetic only — see simd.hpp).
// ---------------------------------------------------------------------------

namespace {

void conv3_nhwc_scalar(const std::uint8_t* act, std::int32_t D0, std::int32_t D1,
                       std::int32_t D2, std::int32_t ICp, const std::int8_t* wp,
                       std::int32_t OC, std::int32_t o0_begin,
                       std::int32_t o0_end, std::int32_t* acc) {
  const std::int32_t G = ICp / 4;
  std::int32_t* out = acc + std::int64_t(o0_begin) * D1 * D2 * OC;
  for (std::int32_t o0 = o0_begin; o0 < o0_end; ++o0) {
    for (std::int32_t o1 = 0; o1 < D1; ++o1) {
      for (std::int32_t o2 = 0; o2 < D2; ++o2, out += OC) {
        for (std::int32_t oc = 0; oc < OC; ++oc) out[oc] = 0;
        for (std::int32_t k0 = 0; k0 < 3; ++k0) {
          const std::int32_t z0 = o0 + k0 - 1;
          if (z0 < 0 || z0 >= D0) continue;
          for (std::int32_t k1 = 0; k1 < 3; ++k1) {
            const std::int32_t z1 = o1 + k1 - 1;
            if (z1 < 0 || z1 >= D1) continue;
            for (std::int32_t k2 = 0; k2 < 3; ++k2) {
              const std::int32_t z2 = o2 + k2 - 1;
              if (z2 < 0 || z2 >= D2) continue;
              const std::uint8_t* a =
                  act + (std::int64_t(z0) * D1 + z1) * D2 * ICp +
                  std::int64_t(z2) * ICp;
              const std::int32_t tap = (k0 * 3 + k1) * 3 + k2;
              const std::int8_t* w =
                  wp + std::int64_t(tap) * G * OC * 4;
              for (std::int32_t g = 0; g < G; ++g) {
                const std::uint8_t* ag = a + 4 * g;
                const std::int8_t* wg = w + std::int64_t(g) * OC * 4;
                for (std::int32_t oc = 0; oc < OC; ++oc) {
                  const std::int8_t* wo = wg + oc * 4;
                  out[oc] += std::int32_t(ag[0]) * wo[0] +
                             std::int32_t(ag[1]) * wo[1] +
                             std::int32_t(ag[2]) * wo[2] +
                             std::int32_t(ag[3]) * wo[3];
                }
              }
            }
          }
        }
      }
    }
  }
}

void conv1_nhwc_scalar(const std::uint8_t* act, std::int64_t S, std::int32_t ICp,
                       const std::int8_t* wp, std::int32_t OC,
                       std::int32_t* acc) {
  const std::int32_t G = ICp / 4;
  for (std::int64_t v = 0; v < S; ++v) {
    const std::uint8_t* a = act + v * ICp;
    std::int32_t* out = acc + v * OC;
    for (std::int32_t oc = 0; oc < OC; ++oc) out[oc] = 0;
    for (std::int32_t g = 0; g < G; ++g) {
      const std::uint8_t* ag = a + 4 * g;
      const std::int8_t* wg = wp + std::int64_t(g) * OC * 4;
      for (std::int32_t oc = 0; oc < OC; ++oc) {
        const std::int8_t* wo = wg + oc * 4;
        out[oc] += std::int32_t(ag[0]) * wo[0] + std::int32_t(ag[1]) * wo[1] +
                   std::int32_t(ag[2]) * wo[2] + std::int32_t(ag[3]) * wo[3];
      }
    }
  }
}

constexpr Kernels kScalarKernels{conv3_nhwc_scalar, conv1_nhwc_scalar};

}  // namespace

// Vector kernel tables, defined in simd_x86.cpp / simd_neon.cpp.  Null on
// platforms where the TU compiles empty.
namespace detail {
const Kernels* avx2_kernels();      // simd_x86.cpp
const Kernels* avx2_vnni_kernels();  // simd_x86.cpp
const Kernels* neon_kernels();       // simd_neon.cpp
}  // namespace detail

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
    case Level::kAvx2Vnni: return "avx2+vnni";
    case Level::kNeon: return "neon";
  }
  return "unknown";
}

const Kernels* kernels_for(Level level) {
  switch (level) {
    case Level::kScalar: return &kScalarKernels;
    case Level::kAvx2: return detail::avx2_kernels();
    case Level::kAvx2Vnni: return detail::avx2_vnni_kernels();
    case Level::kNeon: return detail::neon_kernels();
  }
  return nullptr;
}

bool level_supported(Level level) { return kernels_for(level) != nullptr; }

namespace {

bool env_truthy(const char* v) {
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

Level best_level(bool has_avx2, bool has_vnni, bool has_neon) {
  if (has_neon) return Level::kNeon;
  if (has_vnni) return Level::kAvx2Vnni;
  if (has_avx2) return Level::kAvx2;
  return Level::kScalar;
}

struct Chosen {
  Level level = Level::kScalar;
  bool forced_scalar = false;
};

Chosen choose_once() {
  Chosen c;
  const bool has_avx2 = level_supported(Level::kAvx2);
  const bool has_vnni = level_supported(Level::kAvx2Vnni);
  const bool has_neon = level_supported(Level::kNeon);
  const char* force = std::getenv("OARSMTRL_FORCE_SCALAR");
  c.forced_scalar = env_truthy(force);
  c.level = choose_level(force, std::getenv("OARSMTRL_SIMD"), has_avx2,
                         has_vnni, has_neon);
  util::log_info("nn::simd dispatch: ", level_name(c.level),
                 c.forced_scalar ? " (OARSMTRL_FORCE_SCALAR)" : "");
  return c;
}

const Chosen& chosen() {
  static const Chosen c = choose_once();
  return c;
}

}  // namespace

Level choose_level(const char* force_scalar_env, const char* simd_env,
                   bool has_avx2, bool has_vnni, bool has_neon) {
  if (env_truthy(force_scalar_env)) return Level::kScalar;
  if (simd_env != nullptr && simd_env[0] != '\0') {
    if (std::strcmp(simd_env, "scalar") == 0) return Level::kScalar;
    if (std::strcmp(simd_env, "avx2") == 0 && has_avx2) return Level::kAvx2;
    if (std::strcmp(simd_env, "vnni") == 0 && has_vnni) return Level::kAvx2Vnni;
    if (std::strcmp(simd_env, "neon") == 0 && has_neon) return Level::kNeon;
    // Unknown or unsupported request: fall through to the best level.
  }
  return best_level(has_avx2, has_vnni, has_neon);
}

Level dispatch_level() { return chosen().level; }

bool force_scalar_active() { return chosen().forced_scalar; }

const Kernels& dispatch() { return *kernels_for(dispatch_level()); }

}  // namespace oar::nn::simd
