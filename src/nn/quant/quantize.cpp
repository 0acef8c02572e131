#include "nn/quant/quantize.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "nn/activations.hpp"
#include "obs/metrics.hpp"
#include "util/team.hpp"
#include "util/validate.hpp"

namespace oar::nn {

void InferConfig::validate() const {
  util::check_field(precision == Precision::kFp32 || precision == Precision::kInt8,
                    "InferConfig", "precision", "be fp32 or int8",
                    std::int32_t(precision));
  util::check_field(int8_min_agreement >= 0.0 && int8_min_agreement <= 1.0,
                    "InferConfig", "int8_min_agreement", "be in [0, 1]",
                    int8_min_agreement);
  util::check_field(int8_max_cost_ratio >= 1.0, "InferConfig",
                    "int8_max_cost_ratio", "be >= 1", int8_max_cost_ratio);
}

namespace quant {

// ---------------------------------------------------------------------------
// Metrics (next to the feature-cache metrics; same registry idiom).
// ---------------------------------------------------------------------------

namespace {

struct QuantObs {
  obs::Counter& int8_forwards;
  obs::Counter& fp32_forwards;
  obs::Counter& values;
  obs::Counter& clipped;
  obs::Counter& accum_hits;
  obs::Counter& accum_rebuilds;
  obs::Counter& gate_failures;
  obs::Counter& calibrations;
  obs::Gauge& dispatch_level;
};

QuantObs& quant_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static QuantObs o{
      reg.counter("oar_nn_quant_int8_forwards_total",
                  "U-Net forwards served by the int8 engine"),
      reg.counter("oar_nn_quant_fp32_forwards_total",
                  "U-Net forwards served by the fp32 fast path"),
      reg.counter("oar_nn_quant_values_total",
                  "Activations quantized to uint8 (requant + input)"),
      reg.counter("oar_nn_quant_clipped_total",
                  "Quantized activations clipped at 127 (exceeded the "
                  "calibration range)"),
      reg.counter("oar_nn_quant_accum_hits_total",
                  "Critic calls served by patching the cached first-layer "
                  "accumulator"),
      reg.counter("oar_nn_quant_accum_rebuilds_total",
                  "First-layer accumulator rebuilds (grid address or "
                  "revision changed)"),
      reg.counter("oar_nn_quant_gate_failures_total",
                  "int8 accuracy-gate failures (engine fell back to fp32)"),
      reg.counter("oar_nn_quant_calibrations_total",
                  "QuantizedUNet3d packs emitted by QuantCalibrator"),
      reg.gauge("oar_nn_quant_dispatch_level",
                "nn::simd dispatch level (0 scalar, 1 avx2, 2 avx2+vnni, "
                "3 neon)"),
  };
  // Recording the gauge forces the dispatcher to choose (and log) its
  // level once at first quant activity.  Must use `o`, not quant_obs():
  // re-entering while this static's init guard is held would self-deadlock.
  static const bool init = [] {
    o.dispatch_level.set(double(simd::dispatch_level()));
    return true;
  }();
  (void)init;
  return o;
}

/// scale = max/127 (dequant step), inv = 127/max (quant step).  A channel
/// that never activated calibrates to (0, 0): it quantizes to 0 and folds
/// to all-zero weights, so it contributes exactly nothing downstream.
void scale_from_max(float mx, float& scale, float& inv) {
  if (mx > 0.0f) {
    scale = mx / 127.0f;
    inv = 127.0f / mx;
  } else {
    scale = 0.0f;
    inv = 0.0f;
  }
}

// --- uint8 NHWC pool / upsample+concat (index mapping mirrors pool3d.cpp;
// max / nearest both commute with the monotone per-channel quantizer, so
// running them on quantized bytes is exact).

void pool_nhwc(const std::uint8_t* in, std::int32_t Cp, std::int32_t D0,
               std::int32_t D1, std::int32_t D2, std::uint8_t* out) {
  const std::int32_t O0 = (D0 + 1) / 2, O1 = (D1 + 1) / 2, O2 = (D2 + 1) / 2;
  const std::int64_t row = std::int64_t(O1) * O2 * Cp;  // bytes per o0 row
  // Output rows o0 split across the inference team.
  util::team_for(O0, O0 * row * 2, [&](std::int64_t b, std::int64_t e) {
    std::uint8_t* ov = out + b * row;
    for (std::int32_t o0 = std::int32_t(b); o0 < std::int32_t(e); ++o0) {
      for (std::int32_t o1 = 0; o1 < O1; ++o1) {
        for (std::int32_t o2 = 0; o2 < O2; ++o2, ov += Cp) {
          std::memset(ov, 0, std::size_t(Cp));
          for (std::int32_t z0 = o0 * 2; z0 < std::min(D0, o0 * 2 + 2); ++z0) {
            for (std::int32_t z1 = o1 * 2; z1 < std::min(D1, o1 * 2 + 2);
                 ++z1) {
              for (std::int32_t z2 = o2 * 2; z2 < std::min(D2, o2 * 2 + 2);
                   ++z2) {
                const std::uint8_t* iv =
                    in + ((std::int64_t(z0) * D1 + z1) * D2 + z2) * Cp;
                for (std::int32_t c = 0; c < Cp; ++c) {
                  ov[c] = std::max(ov[c], iv[c]);
                }
              }
            }
          }
        }
      }
    }
  });
}

/// Nearest-upsample `prev` (C1 real channels, stride ceil4(C1)) from
/// (s0,s1,s2) to (t0,t1,t2) into the first C1 channels of `cat`
/// (stride icp_cat), append the skip's C2 channels, zero the padding.
void upsample_concat_nhwc(const std::uint8_t* prev, std::int32_t C1,
                          std::int32_t s0, std::int32_t s1, std::int32_t s2,
                          const std::uint8_t* skip, std::int32_t C2,
                          std::int32_t t0, std::int32_t t1, std::int32_t t2,
                          std::uint8_t* cat) {
  const std::int32_t c1p = ceil4(C1), c2p = ceil4(C2);
  const std::int32_t icp_cat = ceil4(C1 + C2);
  const std::int32_t pad = icp_cat - C1 - C2;
  const std::int64_t row = std::int64_t(t1) * t2;  // voxels per o0 row
  // Output rows o0 split across the inference team.
  util::team_for(t0, t0 * row * icp_cat / 2, [&](std::int64_t b, std::int64_t e) {
    std::uint8_t* ov = cat + b * row * icp_cat;
    std::int64_t voxel = b * row;
    for (std::int32_t o0 = std::int32_t(b); o0 < std::int32_t(e); ++o0) {
      const std::int32_t z0 =
          std::min(s0 - 1, std::int32_t(std::int64_t(o0) * s0 / t0));
      for (std::int32_t o1 = 0; o1 < t1; ++o1) {
        const std::int32_t z1 =
            std::min(s1 - 1, std::int32_t(std::int64_t(o1) * s1 / t1));
        for (std::int32_t o2 = 0; o2 < t2; ++o2, ov += icp_cat, ++voxel) {
          const std::int32_t z2 =
              std::min(s2 - 1, std::int32_t(std::int64_t(o2) * s2 / t2));
          const std::uint8_t* uv =
              prev + ((std::int64_t(z0) * s1 + z1) * s2 + z2) * c1p;
          std::memcpy(ov, uv, std::size_t(C1));
          std::memcpy(ov + C1, skip + voxel * c2p, std::size_t(C2));
          if (pad > 0) std::memset(ov + C1 + C2, 0, std::size_t(pad));
        }
      }
    }
  });
}

/// 2^20: >= 128, so clipped values stay clipped through the int conversion.
constexpr float kRequantGuard = 1048576.0f;

/// Which residual term requant_spans adds (QuantizedUNet3d::Skip).
enum class SkipKind { kNone, kProj, kIdentity };

/// requant_norm's pass 2 over elements [i0, i1) of the accumulator, in
/// spans of L values that start on voxel boundaries (coefficient j faces
/// channel j % OC); returns the clip count.  The skip term is dequantized
/// in place — projection accumulator `pa` or identity input `pq`, with
/// per-channel tables Ps / Pb tiled like A / B — in the same two float
/// operations a separate dequantization pass would spend, so fusing it
/// saves a pass over memory without moving a bit.  Every step stays
/// branch-free in a form GCC's vectorizer accepts: max/min instead of
/// if-clamps, round-half-up via truncate(r + 0.5) (rintf and the
/// magic-constant trick both block vectorization), and the clip test in
/// the integer domain (a float compare feeding an integer reduction does
/// too).  The float min at
/// kRequantGuard bounds the int conversion away from overflow without
/// disturbing the t > 127 test.  The __restrict parameters let the
/// compiler vectorize across channels (the u8 output store would otherwise
/// be assumed to alias the coefficient tables, forcing per-value reloads;
/// captured lambda variables lose that guarantee, hence a function).  This
/// pass is portable scalar C++ compiled once and shared by every dispatch
/// level, so the rounding choice cannot break cross-level bit-exactness.
template <SkipKind kKind>
std::uint64_t requant_spans(const std::int32_t* __restrict ap,
                            const std::int32_t* __restrict pa,
                            const std::uint8_t* __restrict pq,
                            const float* __restrict Ar,
                            const float* __restrict Br,
                            const float* __restrict Ir,
                            const float* __restrict Ps,
                            const float* __restrict Pb, std::int64_t L,
                            std::int64_t i0, std::int64_t i1,
                            std::uint8_t* __restrict op) {
  std::uint64_t clip = 0;
  for (std::int64_t i = i0; i < i1; i += L) {
    const std::int64_t n = std::min(L, i1 - i);
    std::int32_t cl = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      float y = float(ap[i + j]) * Ar[j] + Br[j];
      if constexpr (kKind == SkipKind::kProj) {
        y += float(pa[i + j]) * Ps[j] + Pb[j];
      } else if constexpr (kKind == SkipKind::kIdentity) {
        y += float(pq[i + j]) * Ps[j];
      }
      y = std::max(0.0f, y);
      const float r = std::min(y * Ir[j], kRequantGuard);
      const std::int32_t t = std::int32_t(r + 0.5f);
      cl += std::int32_t(t > 127);
      op[i + j] = std::uint8_t(std::min(t, 127));
    }
    clip += std::uint64_t(cl);
  }
  return clip;
}

/// conv3_nhwc with its output rows split across the inference team.
void conv3_team(const simd::Kernels& k, const std::uint8_t* act,
                std::int32_t D0, std::int32_t D1, std::int32_t D2,
                std::int32_t ICp, const std::int8_t* wp, std::int32_t OC,
                std::int32_t* acc) {
  // ~32 int8 multiply-adds per ns on the vector levels.
  const std::int64_t work = std::int64_t(D0) * D1 * D2 * ICp * OC * 27 / 32;
  util::team_for(D0, work, [&](std::int64_t b, std::int64_t e) {
    k.conv3_nhwc(act, D0, D1, D2, ICp, wp, OC, std::int32_t(b),
                 std::int32_t(e), acc);
  });
}

/// conv1_nhwc with its voxels split across the inference team.
void conv1_team(const simd::Kernels& k, const std::uint8_t* act,
                std::int64_t S, std::int32_t ICp, const std::int8_t* wp,
                std::int32_t OC, std::int32_t* acc) {
  util::team_for(S, S * ICp * OC / 32, [&](std::int64_t b, std::int64_t e) {
    k.conv1_nhwc(act + b * ICp, e - b, ICp, wp, OC, acc + b * OC);
  });
}

/// Exact integer moments of channels [c0, c0 + W) over voxels [vb, ve):
/// s = sum(acc), q = sum(acc^2).  Integer sums are associative, so any
/// split of the voxels gives the same totals.  Squares accumulate in
/// uint64 over blocks of `block` voxels — short enough that a block cannot
/// overflow — and each block folds into a 128-bit total.  W fixed-size
/// local accumulators stay in registers across the spatial scan (the
/// heap-pointer form pays a store-forward round trip per value because the
/// output could alias `acc`).
template <std::int32_t W>
void channel_moments(const std::int32_t* acc, std::int32_t OC,
                     std::int64_t vb, std::int64_t ve, std::int64_t block,
                     std::int32_t c0, std::int64_t* s_out,
                     unsigned __int128* q_out) {
  std::int64_t s[W] = {};
  unsigned __int128 q[W] = {};
  for (std::int64_t b = vb; b < ve; b += block) {
    const std::int64_t e = std::min(ve, b + block);
    std::uint64_t z[W] = {};
    const std::int32_t* av = acc + b * OC + c0;
    for (std::int64_t v = b; v < e; ++v, av += OC) {
      for (std::int32_t j = 0; j < W; ++j) {
        const std::int64_t d = av[j];
        s[j] += d;
        z[j] += std::uint64_t(d * d);
      }
    }
    for (std::int32_t j = 0; j < W; ++j) q[j] += z[j];
  }
  for (std::int32_t j = 0; j < W; ++j) {
    s_out[c0 + j] = s[j];
    q_out[c0 + j] = q[j];
  }
}

/// channel_moments over every channel, in tiles of at most 8.
void channel_moments_all(const std::int32_t* acc, std::int32_t OC,
                         std::int64_t vb, std::int64_t ve, std::int64_t block,
                         std::int64_t* s, unsigned __int128* q) {
  std::int32_t c = 0;
  for (; c + 8 <= OC; c += 8) {
    channel_moments<8>(acc, OC, vb, ve, block, c, s, q);
  }
  switch (OC - c) {
    case 7: channel_moments<7>(acc, OC, vb, ve, block, c, s, q); break;
    case 6: channel_moments<6>(acc, OC, vb, ve, block, c, s, q); break;
    case 5: channel_moments<5>(acc, OC, vb, ve, block, c, s, q); break;
    case 4: channel_moments<4>(acc, OC, vb, ve, block, c, s, q); break;
    case 3: channel_moments<3>(acc, OC, vb, ve, block, c, s, q); break;
    case 2: channel_moments<2>(acc, OC, vb, ve, block, c, s, q); break;
    case 1: channel_moments<1>(acc, OC, vb, ve, block, c, s, q); break;
    default: break;
  }
}

}  // namespace

void note_fp32_forward() { quant_obs().fp32_forwards.inc(); }
void note_int8_gate_failure() { quant_obs().gate_failures.inc(); }
void note_accumulator_hit() { quant_obs().accum_hits.inc(); }
void note_accumulator_rebuild() { quant_obs().accum_rebuilds.inc(); }

// ---------------------------------------------------------------------------
// QuantizedUNet3d — the forward engine.
// ---------------------------------------------------------------------------

template <typename T>
T* QuantizedUNet3d::grown(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) {
    ++grow_events_;
    v.resize(n);
  }
  return v.data();
}

std::int32_t QuantizedUNet3d::first_layer_oc() const {
  return enc_[0].conv1.out_c;
}

bool QuantizedUNet3d::first_layer_has_proj() const { return enc_[0].has_proj; }

std::uint8_t QuantizedUNet3d::quantized_one(std::int32_t c) const {
  return quantize_u8(1.0f, in_inv_[std::size_t(c)]);
}

void QuantizedUNet3d::quantize_input(const float* features, std::int32_t H,
                                     std::int32_t V, std::int32_t M,
                                     std::uint8_t* q) {
  const std::int32_t C = cfg_.in_channels, Cp = input_icp();
  const std::int64_t S = std::int64_t(H) * V * M;
  std::atomic<std::uint64_t> clip{0};
  util::team_for(S, S * Cp * 2, [&](std::int64_t b, std::int64_t e) {
    std::uint64_t part_clip = 0;
    for (std::int64_t v = b; v < e; ++v) {
      std::uint8_t* qv = q + v * Cp;
      for (std::int32_t c = 0; c < C; ++c) {
        const float r =
            features[std::int64_t(c) * S + v] * in_inv_[std::size_t(c)];
        if (r > 127.0f) {
          qv[c] = 127;
          ++part_clip;
        } else if (r <= 0.0f) {
          qv[c] = 0;
        } else {
          qv[c] = std::uint8_t(std::int32_t(std::rint(r)));
        }
      }
      for (std::int32_t c = C; c < Cp; ++c) qv[c] = 0;
    }
    clip.fetch_add(part_clip, std::memory_order_relaxed);
  });
  auto& o = quant_obs();
  o.values.add(std::uint64_t(S) * std::uint64_t(C));
  if (clip.load() > 0) o.clipped.add(clip.load());
}

void QuantizedUNet3d::first_layer_acc(const std::uint8_t* q, std::int32_t H,
                                      std::int32_t V, std::int32_t M,
                                      std::int32_t* acc1, std::int32_t* accp) {
  const QuantBlock& b = enc_[0];
  conv3_team(kernels_, q, H, V, M, b.conv1.icp, b.conv1.w.data(),
             b.conv1.out_c, acc1);
  if (b.has_proj) {
    assert(accp != nullptr);
    conv1_team(kernels_, q, std::int64_t(H) * V * M, b.proj.icp,
               b.proj.w.data(), b.proj.out_c, accp);
  }
}

void QuantizedUNet3d::requant_norm(const std::int32_t* acc,
                                   const QuantConv& conv, const QuantNorm& n,
                                   const Skip& skip, std::int64_t S,
                                   const std::vector<float>& inv_out,
                                   std::uint8_t* out) {
  const std::int32_t OC = conv.out_c, OCp = ceil4(OC);
  double* sum = grown(sum_, std::size_t(OC));
  double* sq = grown(sumsq_, std::size_t(OC));

  // Pass 1: per-channel moments of the RAW accumulator, summed exactly in
  // integers so that the voxels can be split across the inference team
  // in any parts with the same result.  The dequantized moments follow in
  // closed form: x = a*acc + b gives sum(x) = a*S1 + b*n and sum(x^2) =
  // a^2*SS + 2ab*S1 + b^2*n.  S1 and SS convert to double once; that
  // equals a sequential double sum of the same values whenever every
  // partial sum stays below 2^53, where such a sum is exact too.
  //
  // The kernel contract bounds every accumulator by k^3 * ICp * 127 * 128
  // (u8 activations <= 127, s8 weights >= -128), which sizes the uint64
  // square blocks.
  const std::uint64_t dmax = std::uint64_t(conv.kernel) * conv.kernel *
                             conv.kernel * std::uint64_t(conv.icp) * 127u *
                             128u;
  const std::uint64_t block_cap =
      dmax >= (std::uint64_t(1) << 32) ? 1 : ~std::uint64_t(0) / (dmax * dmax);
  const std::int64_t block = std::int64_t(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(std::uint64_t(S), block_cap)));
  const std::int32_t parts = util::ForkJoinTeam::instance().parts_for(
      S * OC * 2, S);
  std::int64_t* ps = grown(moment_s_, std::size_t(parts) * std::size_t(OC));
  unsigned __int128* pq =
      grown(moment_q_, std::size_t(parts) * std::size_t(OC));
  // A region the team runs inline fills only part 0's slots; the others
  // must add nothing.
  std::fill(ps, ps + std::int64_t(parts) * OC, std::int64_t(0));
  std::fill(pq, pq + std::int64_t(parts) * OC, 0);
  util::team_run(parts, [&](std::int32_t part, std::int32_t parts_run) {
    const auto [vb, ve] = util::part_range(S, part, parts_run);
    channel_moments_all(acc, OC, vb, ve, block, ps + part * OC,
                        pq + part * OC);
  });
  for (std::int32_t c = 0; c < OC; ++c) {
    std::int64_t s1 = 0;
    unsigned __int128 ss = 0;
    for (std::int32_t p = 0; p < parts; ++p) {
      s1 += ps[p * OC + c];
      ss += pq[p * OC + c];
    }
    sum[c] = double(s1);
    sq[c] = double(ss);
  }

  const std::int32_t cpg = OC / n.groups;
  // Per-channel fused coefficients: y = gamma*((x - mu)*inv) + beta with
  // x = a*acc + b folds to y = acc*A + B, A = gamma*inv*a,
  // B = gamma*inv*(b - mu) + beta.
  float* A_c = grown(mu_c_, std::size_t(OC));
  float* B_c = grown(inv_c_, std::size_t(OC));
  for (std::int32_t g = 0; g < n.groups; ++g) {
    double s = 0.0, ss = 0.0;
    for (std::int32_t c = g * cpg; c < (g + 1) * cpg; ++c) {
      const double a = double(conv.scale[std::size_t(c)]);
      const double b = double(conv.bias[std::size_t(c)]);
      s += a * sum[c] + b * double(S);
      ss += a * a * sq[c] + 2.0 * a * b * sum[c] + b * b * double(S);
    }
    const double cnt = double(cpg) * double(S);
    const double mu = s / cnt;
    const double var = std::max(0.0, ss / cnt - mu * mu);
    const float muf = float(mu);
    const float invf = float(1.0 / std::sqrt(var + double(n.eps)));
    for (std::int32_t c = g * cpg; c < (g + 1) * cpg; ++c) {
      const float gi = n.gamma[std::size_t(c)] * invf;
      A_c[c] = gi * conv.scale[std::size_t(c)];
      B_c[c] = gi * (conv.bias[std::size_t(c)] - muf) + n.beta[std::size_t(c)];
    }
  }

  // Pass 2: one fused affine + skip + ReLU + requantize per value
  // (requant_spans; the padded fallback below uses the same formula).
  std::atomic<std::uint64_t> clip{0};
  const std::int32_t* __restrict ap = acc;
  std::uint8_t* __restrict op = out;
  if (OCp == OC) {
    // Every real layer lands here (channel counts are multiples of 4, so
    // the NHWC row has no padding and output index == accumulator index).
    // The voxel loop flattens into spans of R whole voxels over coefficient
    // tables pre-tiled R times, giving the vectorizer one long contiguous
    // loop instead of S tiny OC-trip loops whose prologue/alias checks
    // dominate.  Spans start on voxel boundaries, so coefficient j always
    // faces channel j % OC.
    const std::int32_t R = (128 + OC - 1) / OC;
    const std::int64_t L = std::int64_t(OC) * R;
    float* __restrict Ar = grown(coef_rep_, std::size_t(5 * L));
    float* __restrict Br = Ar + L;
    float* __restrict Ir = Ar + 2 * L;
    float* __restrict Ps = Ar + 3 * L;
    float* __restrict Pb = Ar + 4 * L;
    const std::size_t row = std::size_t(OC) * 4;
    for (std::int32_t r = 0; r < R; ++r) {
      const std::int64_t o = std::int64_t(r) * OC;
      std::memcpy(Ar + o, A_c, row);
      std::memcpy(Br + o, B_c, row);
      std::memcpy(Ir + o, inv_out.data(), row);
      if (skip.scale != nullptr) std::memcpy(Ps + o, skip.scale, row);
      if (skip.bias != nullptr) std::memcpy(Pb + o, skip.bias, row);
    }
    // Identity skips read the block input at its own voxel stride, which
    // equals OC here (in_c == out_c, a multiple of 4).
    assert(skip.q == nullptr || skip.q_stride == OC);
    // Whole spans are split across the inference team, so every part
    // starts on a voxel boundary too.
    const std::int64_t N = S * OC;
    const std::int64_t spans = (N + L - 1) / L;
    util::team_for(spans, N, [&](std::int64_t sb, std::int64_t se) {
      const std::int64_t b = sb * L, e = std::min(N, se * L);
      const std::uint64_t cl =
          skip.acc != nullptr
              ? requant_spans<SkipKind::kProj>(ap, skip.acc, nullptr, Ar, Br,
                                               Ir, Ps, Pb, L, b, e, op)
          : skip.q != nullptr
              ? requant_spans<SkipKind::kIdentity>(ap, nullptr, skip.q, Ar, Br,
                                                   Ir, Ps, Pb, L, b, e, op)
              : requant_spans<SkipKind::kNone>(ap, nullptr, nullptr, Ar, Br,
                                               Ir, Ps, Pb, L, b, e, op);
      clip.fetch_add(cl, std::memory_order_relaxed);
    });
  } else {
    // Padded fallback (OC not a multiple of 4): per-voxel loops with an
    // explicit zeroed tail.  Same elementwise formula, same results.
    const float* __restrict Af = A_c;
    const float* __restrict Bf = B_c;
    const float* __restrict iv = inv_out.data();
    util::team_for(S, S * OC, [&](std::int64_t b, std::int64_t e) {
      std::uint64_t part_clip = 0;
      for (std::int64_t v = b; v < e; ++v) {
        const std::int32_t* av = ap + v * OC;
        std::uint8_t* ov = op + v * OCp;
        std::int32_t cl = 0;
        for (std::int32_t c = 0; c < OC; ++c) {
          float s = 0.0f;
          if (skip.acc != nullptr) {
            s = float(skip.acc[v * OC + c]) * skip.scale[c] + skip.bias[c];
          } else if (skip.q != nullptr) {
            s = float(skip.q[v * skip.q_stride + c]) * skip.scale[c];
          }
          const float y = std::max(0.0f, float(av[c]) * Af[c] + Bf[c] + s);
          const float r = std::min(y * iv[c], kRequantGuard);
          const std::int32_t t = std::int32_t(r + 0.5f);
          cl += std::int32_t(t > 127);
          ov[c] = std::uint8_t(std::min(t, 127));
        }
        for (std::int32_t c = OC; c < OCp; ++c) ov[c] = 0;
        part_clip += std::uint64_t(cl);
      }
      clip.fetch_add(part_clip, std::memory_order_relaxed);
    });
  }
  auto& o = quant_obs();
  o.values.add(std::uint64_t(S) * std::uint64_t(OC));
  if (clip.load() > 0) o.clipped.add(clip.load());
}

void QuantizedUNet3d::run_block(const QuantBlock& b, const std::uint8_t* in,
                                std::int32_t d0, std::int32_t d1,
                                std::int32_t d2, const std::int32_t* acc1_pre,
                                const std::int32_t* accp_pre,
                                std::uint8_t* out) {
  const std::int64_t S = std::int64_t(d0) * d1 * d2;
  const std::int32_t OC = b.conv1.out_c;

  const std::int32_t* acc1 = acc1_pre;
  if (acc1 == nullptr) {
    std::int32_t* a = grown(acc_a_, std::size_t(S) * std::size_t(OC));
    conv3_team(kernels_, in, d0, d1, d2, b.conv1.icp, b.conv1.w.data(), OC, a);
    acc1 = a;
  }

  std::uint8_t* mid = grown(mid_, std::size_t(S) * std::size_t(ceil4(OC)));
  requant_norm(acc1, b.conv1, b.n1, Skip{}, S, b.mid_inv, mid);

  std::int32_t* acc2 = grown(acc_b_, std::size_t(S) * std::size_t(OC));
  conv3_team(kernels_, mid, d0, d1, d2, ceil4(OC), b.conv2.w.data(), OC, acc2);

  Skip skip;
  if (b.has_proj) {
    const std::int32_t* accp = accp_pre;
    if (accp == nullptr) {
      std::int32_t* a = grown(acc_p_, std::size_t(S) * std::size_t(OC));
      conv1_team(kernels_, in, S, b.proj.icp, b.proj.w.data(), OC, a);
      accp = a;
    }
    skip.acc = accp;
    skip.scale = b.proj.scale.data();
    skip.bias = b.proj.bias.data();
  } else {
    // Identity skip: the block input itself (in_c == out_c here).
    skip.q = in;
    skip.q_stride = b.conv1.icp;
    skip.scale = b.in_scale.data();
  }
  requant_norm(acc2, b.conv2, b.n2, skip, S, b.out_inv, out);
}

void QuantizedUNet3d::infer_from_first_layer(const std::uint8_t* q,
                                             const std::int32_t* acc1,
                                             const std::int32_t* accp,
                                             std::int32_t H, std::int32_t V,
                                             std::int32_t M,
                                             std::vector<double>& out) {
  const std::int32_t depth = std::int32_t(enc_.size());
  assert(depth <= 12);
  std::int32_t dims[13][3];
  dims[0][0] = H;
  dims[0][1] = V;
  dims[0][2] = M;
  for (std::int32_t l = 1; l <= depth; ++l) {
    for (int a = 0; a < 3; ++a) dims[l][a] = (dims[l - 1][a] + 1) / 2;
  }

  const std::uint8_t* cur = q;
  for (std::int32_t l = 0; l < depth; ++l) {
    const std::int64_t S = std::int64_t(dims[l][0]) * dims[l][1] * dims[l][2];
    const std::int32_t OC = enc_[std::size_t(l)].conv2.out_c;
    std::uint8_t* so = grown(skip_[std::size_t(l)],
                             std::size_t(S) * std::size_t(ceil4(OC)));
    run_block(enc_[std::size_t(l)], cur, dims[l][0], dims[l][1], dims[l][2],
              l == 0 ? acc1 : nullptr, l == 0 ? accp : nullptr, so);
    const std::int64_t Sn =
        std::int64_t(dims[l + 1][0]) * dims[l + 1][1] * dims[l + 1][2];
    std::uint8_t* dn = grown(down_[std::size_t(l)],
                             std::size_t(Sn) * std::size_t(ceil4(OC)));
    pool_nhwc(so, ceil4(OC), dims[l][0], dims[l][1], dims[l][2], dn);
    cur = dn;
  }

  {
    const std::int64_t S =
        std::int64_t(dims[depth][0]) * dims[depth][1] * dims[depth][2];
    const std::int32_t OC = bottleneck_.conv2.out_c;
    std::uint8_t* bo = grown(bott_, std::size_t(S) * std::size_t(ceil4(OC)));
    run_block(bottleneck_, cur, dims[depth][0], dims[depth][1], dims[depth][2],
              nullptr, nullptr, bo);
    cur = bo;
  }

  std::int32_t prev_c = bottleneck_.conv2.out_c;
  const std::int32_t* prev_dims = dims[depth];
  for (std::int32_t i = 0; i < depth; ++i) {
    const std::int32_t lvl = depth - 1 - i;
    const QuantBlock& dblk = dec_[std::size_t(i)];
    const std::int32_t C2 = enc_[std::size_t(lvl)].conv2.out_c;
    const std::int32_t* t = dims[lvl];
    const std::int64_t St = std::int64_t(t[0]) * t[1] * t[2];
    const std::int32_t icp_cat = ceil4(prev_c + C2);
    assert(icp_cat == dblk.conv1.icp);
    std::uint8_t* catb =
        grown(cat_, std::size_t(St) * std::size_t(icp_cat));
    upsample_concat_nhwc(cur, prev_c, prev_dims[0], prev_dims[1], prev_dims[2],
                         skip_[std::size_t(lvl)].data(), C2, t[0], t[1], t[2],
                         catb);
    const std::int32_t OC = dblk.conv2.out_c;
    std::uint8_t* ob = grown(i % 2 != 0 ? pong_ : ping_,
                             std::size_t(St) * std::size_t(ceil4(OC)));
    run_block(dblk, catb, t[0], t[1], t[2], nullptr, nullptr, ob);
    cur = ob;
    prev_c = OC;
    prev_dims = t;
  }

  // 1x1 head -> float logits -> sigmoid.
  assert(head_.out_c == 1);
  const std::int64_t S = std::int64_t(H) * V * M;
  std::int32_t* ha = grown(acc_a_, std::size_t(S));
  float* lg = grown(logits_, std::size_t(S));
  util::team_for(S, S * head_.icp, [&](std::int64_t vb, std::int64_t ve) {
    kernels_.conv1_nhwc(cur + vb * head_.icp, ve - vb, head_.icp,
                        head_.w.data(), 1, ha + vb);
    for (std::int64_t v = vb; v < ve; ++v) {
      lg[v] = float(ha[v]) * head_.scale[0] + head_.bias[0];
    }
  });
  out.resize(std::size_t(S));
  sigmoid_into(lg, S, out.data());
  quant_obs().int8_forwards.inc();
}

void QuantizedUNet3d::infer_fsp_from_features(const float* features,
                                              std::int32_t H, std::int32_t V,
                                              std::int32_t M,
                                              std::vector<double>& out) {
  const std::int64_t S = std::int64_t(H) * V * M;
  std::uint8_t* q =
      grown(qin_, std::size_t(S) * std::size_t(input_icp()));
  quantize_input(features, H, V, M, q);
  infer_from_first_layer(q, nullptr, nullptr, H, V, M, out);
}

// ---------------------------------------------------------------------------
// QuantCalibrator — fp32 replay + per-channel maxima + weight folding.
// ---------------------------------------------------------------------------

namespace {

void update_channel_max(const float* x, std::int32_t C, std::int64_t S,
                        std::vector<float>& mx) {
  for (std::int32_t c = 0; c < C; ++c) {
    float m = mx[std::size_t(c)];
    const float* xc = x + std::int64_t(c) * S;
    for (std::int64_t v = 0; v < S; ++v) m = std::max(m, xc[v]);
    mx[std::size_t(c)] = m;
  }
}

/// Channel-major ceil-mode 2x max pool (mirrors MaxPool3d::infer_into).
void pool_cm(const float* in, std::int32_t C, std::int32_t D0, std::int32_t D1,
             std::int32_t D2, float* out) {
  const std::int32_t O0 = (D0 + 1) / 2, O1 = (D1 + 1) / 2, O2 = (D2 + 1) / 2;
  std::int64_t oi = 0;
  for (std::int32_t c = 0; c < C; ++c) {
    const std::int64_t cbase = std::int64_t(c) * D0 * D1 * D2;
    for (std::int32_t o0 = 0; o0 < O0; ++o0) {
      for (std::int32_t o1 = 0; o1 < O1; ++o1) {
        for (std::int32_t o2 = 0; o2 < O2; ++o2, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int32_t z0 = o0 * 2; z0 < std::min(D0, o0 * 2 + 2); ++z0) {
            for (std::int32_t z1 = o1 * 2; z1 < std::min(D1, o1 * 2 + 2);
                 ++z1) {
              for (std::int32_t z2 = o2 * 2; z2 < std::min(D2, o2 * 2 + 2);
                   ++z2) {
                best = std::max(
                    best, in[cbase + (std::int64_t(z0) * D1 + z1) * D2 + z2]);
              }
            }
          }
          out[oi] = best;
        }
      }
    }
  }
}

/// Channel-major nearest upsample (mirrors UpsampleNearest3d::infer_into).
void upsample_cm(const float* in, std::int32_t C, std::int32_t D0,
                 std::int32_t D1, std::int32_t D2, std::int32_t t0,
                 std::int32_t t1, std::int32_t t2, float* out) {
  std::int64_t oi = 0;
  for (std::int32_t c = 0; c < C; ++c) {
    const std::int64_t cbase = std::int64_t(c) * D0 * D1 * D2;
    for (std::int32_t o0 = 0; o0 < t0; ++o0) {
      const std::int32_t z0 =
          std::min(D0 - 1, std::int32_t(std::int64_t(o0) * D0 / t0));
      for (std::int32_t o1 = 0; o1 < t1; ++o1) {
        const std::int32_t z1 =
            std::min(D1 - 1, std::int32_t(std::int64_t(o1) * D1 / t1));
        for (std::int32_t o2 = 0; o2 < t2; ++o2, ++oi) {
          const std::int32_t z2 =
              std::min(D2 - 1, std::int32_t(std::int64_t(o2) * D2 / t2));
          out[oi] = in[cbase + (std::int64_t(z0) * D1 + z1) * D2 + z2];
        }
      }
    }
  }
}

QuantNorm pack_norm(const GroupNorm& gn) {
  QuantNorm n;
  const std::int32_t C = gn.num_channels();
  n.gamma.assign(gn.gamma().value.data(), gn.gamma().value.data() + C);
  n.beta.assign(gn.beta().value.data(), gn.beta().value.data() + C);
  n.groups = gn.num_groups();
  n.eps = gn.eps();
  return n;
}

/// Fold per-input-channel activation scales into the weights, then quantize
/// each output channel symmetrically to int8 in the simd.hpp pack layout.
QuantConv pack_conv(const Conv3d& conv, const std::vector<float>& in_scales) {
  QuantConv qc;
  qc.in_c = conv.in_channels();
  qc.out_c = conv.out_channels();
  qc.kernel = conv.kernel();
  qc.icp = ceil4(qc.in_c);
  assert(std::int32_t(in_scales.size()) == qc.in_c);
  const std::int32_t IC = qc.in_c, OC = qc.out_c, K = qc.kernel;
  const std::int32_t taps = K * K * K, G = qc.icp / 4;
  const float* w = conv.weight().value.data();  // (OC, IC, K, K, K)
  const float* b = conv.bias().value.data();
  qc.scale.resize(std::size_t(OC));
  qc.bias.assign(b, b + OC);
  qc.w.assign(std::size_t(taps) * G * OC * 4, 0);
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    float mx = 0.0f;
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      const float a = in_scales[std::size_t(ic)];
      const float* wk = w + (std::int64_t(oc) * IC + ic) * taps;
      for (std::int32_t t = 0; t < taps; ++t) {
        mx = std::max(mx, std::fabs(wk[t] * a));
      }
    }
    const float sw = mx > 0.0f ? mx / 127.0f : 1.0f;
    qc.scale[std::size_t(oc)] = sw;
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      const float a = in_scales[std::size_t(ic)];
      const float* wk = w + (std::int64_t(oc) * IC + ic) * taps;
      for (std::int32_t t = 0; t < taps; ++t) {
        const std::int32_t qv = std::int32_t(std::rint(wk[t] * a / sw));
        qc.w[((std::int64_t(t) * G + ic / 4) * OC + oc) * 4 + ic % 4] =
            std::int8_t(std::clamp(qv, -127, 127));
      }
    }
  }
  return qc;
}

QuantBlock pack_block(const ResidualBlock3d& blk,
                      const std::vector<float>& mid_max,
                      const std::vector<float>& out_max,
                      const std::vector<float>& in_scales) {
  QuantBlock b;
  b.in_scale = in_scales;
  b.conv1 = pack_conv(blk.conv1(), in_scales);
  b.n1 = pack_norm(blk.norm1());
  const std::int32_t OC = blk.out_channels();
  std::vector<float> mid_scale(std::size_t(OC), 0.0f);
  b.mid_inv.resize(std::size_t(OC));
  for (std::int32_t c = 0; c < OC; ++c) {
    scale_from_max(mid_max[std::size_t(c)], mid_scale[std::size_t(c)],
                   b.mid_inv[std::size_t(c)]);
  }
  b.conv2 = pack_conv(blk.conv2(), mid_scale);
  b.n2 = pack_norm(blk.norm2());
  b.out_inv.resize(std::size_t(OC));
  b.out_scale.resize(std::size_t(OC));
  for (std::int32_t c = 0; c < OC; ++c) {
    scale_from_max(out_max[std::size_t(c)], b.out_scale[std::size_t(c)],
                   b.out_inv[std::size_t(c)]);
  }
  if (blk.projection() != nullptr) {
    b.proj = pack_conv(*blk.projection(), in_scales);
    b.has_proj = true;
  }
  return b;
}

}  // namespace

QuantCalibrator::QuantCalibrator(const UNet3d& net) : net_(net) {
  const std::int32_t depth = net_.depth();
  in_max_.assign(std::size_t(net_.config().in_channels), 0.0f);
  auto init_max = [](const ResidualBlock3d& b, BlockMax& m) {
    m.mid.assign(std::size_t(b.out_channels()), 0.0f);
    m.out.assign(std::size_t(b.out_channels()), 0.0f);
  };
  enc_max_.resize(std::size_t(depth));
  dec_max_.resize(std::size_t(depth));
  skip_.resize(std::size_t(depth));
  for (std::int32_t l = 0; l < depth; ++l) {
    init_max(net_.encoder(l), enc_max_[std::size_t(l)]);
    init_max(net_.decoder_block(l), dec_max_[std::size_t(l)]);
  }
  init_max(net_.bottleneck_block(), bot_max_);
}

QuantCalibrator::~QuantCalibrator() = default;

void QuantCalibrator::observe_block(const ResidualBlock3d& blk, BlockMax& m,
                                    const float* in, std::int32_t d0,
                                    std::int32_t d1, std::int32_t d2,
                                    std::vector<float>& out) {
  const std::int64_t S = std::int64_t(d0) * d1 * d2;
  const std::int32_t OC = blk.out_channels();
  t1_.resize(std::size_t(S) * std::size_t(OC));
  blk.conv1().infer_into(in, d0, d1, d2, scratch_, t1_.data());
  blk.norm1().infer_relu_inplace(t1_.data(), S);
  update_channel_max(t1_.data(), OC, S, m.mid);
  t2_.resize(std::size_t(S) * std::size_t(OC));
  blk.conv2().infer_into(t1_.data(), d0, d1, d2, scratch_, t2_.data());
  const float* skip = in;
  if (blk.projection() != nullptr) {
    proj_.resize(std::size_t(S) * std::size_t(OC));
    blk.projection()->infer_into(in, d0, d1, d2, scratch_, proj_.data());
    skip = proj_.data();
  }
  blk.norm2().infer_add_relu_inplace(t2_.data(), skip, S);
  update_channel_max(t2_.data(), OC, S, m.out);
  out.resize(std::size_t(S) * std::size_t(OC));
  std::copy(t2_.begin(), t2_.begin() + std::int64_t(out.size()), out.begin());
}

void QuantCalibrator::observe(const float* features, std::int32_t H,
                              std::int32_t V, std::int32_t M) {
  const std::int32_t depth = net_.depth();
  const std::int32_t C = net_.config().in_channels;
  assert(depth <= 12);
  std::int32_t dims[13][3];
  dims[0][0] = H;
  dims[0][1] = V;
  dims[0][2] = M;
  for (std::int32_t l = 1; l <= depth; ++l) {
    for (int a = 0; a < 3; ++a) dims[l][a] = (dims[l - 1][a] + 1) / 2;
  }
  update_channel_max(features, C, std::int64_t(H) * V * M, in_max_);

  const float* cur = features;
  for (std::int32_t l = 0; l < depth; ++l) {
    observe_block(net_.encoder(l), enc_max_[std::size_t(l)], cur, dims[l][0],
                  dims[l][1], dims[l][2], skip_[std::size_t(l)]);
    const std::int32_t OC = net_.encoder(l).out_channels();
    const std::int64_t Sn =
        std::int64_t(dims[l + 1][0]) * dims[l + 1][1] * dims[l + 1][2];
    cur_.resize(std::size_t(Sn) * std::size_t(OC));
    pool_cm(skip_[std::size_t(l)].data(), OC, dims[l][0], dims[l][1],
            dims[l][2], cur_.data());
    cur = cur_.data();
  }

  observe_block(net_.bottleneck_block(), bot_max_, cur, dims[depth][0],
                dims[depth][1], dims[depth][2], up_);
  const float* prev = up_.data();
  std::int32_t prev_c = net_.bottleneck_block().out_channels();
  const std::int32_t* prev_dims = dims[depth];

  for (std::int32_t i = 0; i < depth; ++i) {
    const std::int32_t lvl = depth - 1 - i;
    const std::int32_t C2 = net_.encoder(lvl).out_channels();
    const std::int32_t* t = dims[lvl];
    const std::int64_t St = std::int64_t(t[0]) * t[1] * t[2];
    cat_.resize(std::size_t(St) * std::size_t(prev_c + C2));
    upsample_cm(prev, prev_c, prev_dims[0], prev_dims[1], prev_dims[2], t[0],
                t[1], t[2], cat_.data());
    std::copy(skip_[std::size_t(lvl)].begin(),
              skip_[std::size_t(lvl)].begin() + St * C2,
              cat_.begin() + St * prev_c);
    observe_block(net_.decoder_block(i), dec_max_[std::size_t(i)], cat_.data(),
                  t[0], t[1], t[2], up_);
    prev = up_.data();
    prev_c = net_.decoder_block(i).out_channels();
    prev_dims = t;
  }
  ++samples_;
}

std::unique_ptr<QuantizedUNet3d> QuantCalibrator::finish() const {
  if (samples_ == 0) {
    throw std::logic_error(
        "QuantCalibrator::finish: no calibration samples observed");
  }
  std::unique_ptr<QuantizedUNet3d> p(new QuantizedUNet3d());
  p->cfg_ = net_.config();
  const std::int32_t depth = net_.depth();
  const std::int32_t C = p->cfg_.in_channels;
  p->in_scale_.resize(std::size_t(C));
  p->in_inv_.resize(std::size_t(C));
  for (std::int32_t c = 0; c < C; ++c) {
    scale_from_max(in_max_[std::size_t(c)], p->in_scale_[std::size_t(c)],
                   p->in_inv_[std::size_t(c)]);
  }

  std::vector<float> cur_scales = p->in_scale_;
  p->enc_.resize(std::size_t(depth));
  for (std::int32_t l = 0; l < depth; ++l) {
    p->enc_[std::size_t(l)] =
        pack_block(net_.encoder(l), enc_max_[std::size_t(l)].mid,
                   enc_max_[std::size_t(l)].out, cur_scales);
    cur_scales = p->enc_[std::size_t(l)].out_scale;
  }
  p->bottleneck_ = pack_block(net_.bottleneck_block(), bot_max_.mid,
                              bot_max_.out, cur_scales);
  cur_scales = p->bottleneck_.out_scale;
  p->dec_.resize(std::size_t(depth));
  for (std::int32_t i = 0; i < depth; ++i) {
    const std::int32_t lvl = depth - 1 - i;
    std::vector<float> cat_scales = cur_scales;  // [upsampled ; skip]
    const auto& skip_scales = p->enc_[std::size_t(lvl)].out_scale;
    cat_scales.insert(cat_scales.end(), skip_scales.begin(),
                      skip_scales.end());
    p->dec_[std::size_t(i)] =
        pack_block(net_.decoder_block(i), dec_max_[std::size_t(i)].mid,
                   dec_max_[std::size_t(i)].out, cat_scales);
    cur_scales = p->dec_[std::size_t(i)].out_scale;
  }
  p->head_ = pack_conv(net_.head_conv(), cur_scales);

  // Pin-flip delta columns: one pin write sets input channel 0 to 1.0, so
  // the conv1 accumulator at output voxel (pin + 1 - k) changes by
  // q_pin * w(tap, ic=0, oc).
  p->q_pin_ = quantize_u8(1.0f, p->in_inv_[0]);
  const QuantConv& c1 = p->enc_[0].conv1;
  const std::int32_t G = c1.icp / 4, OC0 = c1.out_c;
  p->pin_dcol_.assign(std::size_t(27) * std::size_t(OC0), 0);
  for (std::int32_t tap = 0; tap < 27; ++tap) {
    for (std::int32_t oc = 0; oc < OC0; ++oc) {
      p->pin_dcol_[std::size_t(tap) * OC0 + oc] =
          std::int32_t(p->q_pin_) *
          c1.w[std::size_t((std::int64_t(tap) * G + 0) * OC0 + oc) * 4 + 0];
    }
  }
  if (p->enc_[0].has_proj) {
    const QuantConv& pr = p->enc_[0].proj;
    p->pin_dcol_proj_.assign(std::size_t(pr.out_c), 0);
    for (std::int32_t oc = 0; oc < pr.out_c; ++oc) {
      p->pin_dcol_proj_[std::size_t(oc)] =
          std::int32_t(p->q_pin_) * pr.w[std::size_t(oc) * 4 + 0];
    }
  }

  p->level_ = simd::dispatch_level();
  p->kernels_ = simd::dispatch();
  p->skip_.resize(std::size_t(depth));
  p->down_.resize(std::size_t(depth));
  quant_obs().calibrations.inc();
  return p;
}

}  // namespace quant
}  // namespace oar::nn
