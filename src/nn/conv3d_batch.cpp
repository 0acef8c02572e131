#include <algorithm>

#include "nn/conv3d.hpp"
#include "nn/inference.hpp"
#include "util/team.hpp"

// Inference-engine convolution kernels (DESIGN.md §11).  Kept in their own
// translation unit so the build can compile just this file with wider
// vector flags (see src/nn/CMakeLists.txt), FMA contraction included; the
// training kernels in conv3d.cpp promise the scalar loops' bits and are
// built without contraction (DESIGN.md §19).
//
// For the 3x3x3 same-pad layers at the channel counts the U-Net
// instantiates we run a direct convolution along the innermost (layer)
// axis: a register tile of TILE output voxels x OC accumulators, both
// template constants, so the accumulators stay in registers and the
// per-weight axpy fully unrolls.  This beats im2col here because routing
// volumes are shallow (M ~ 2..12): the contiguous runs im2col copies are
// only M long, so patch assembly costs as much as the GEMM it feeds.  Every
// other kernel size and channel count falls back to an im2col +
// register-blocked GEMM that handles any shape.
//
// Every kernel splits across the inference team (util/team.hpp) along an
// axis whose elements it computes independently — output rows o0 for the
// line kernel, row blocks for im2col, voxel ranges for the pointwise mix —
// so each output element sees the same arithmetic for any part count and a
// team forward is bitwise equal to a serial one.

namespace oar::nn {

namespace {

/// Longest run of layer-axis outputs one register tile covers.  Lines up to
/// this long are one full-line tile; longer ones are cut into segments.
constexpr std::int32_t kMaxLineTile = 8;

/// 3x3x3 same-pad convolution of TILE consecutive outputs of one layer-axis
/// line: out voxels (:, o0, o1, t..t+TILE) of a line D2 long.  Weights
/// arrive transposed as wt(kk, oc) with kk = (ic, k0, k1, k2).  Inside the
/// segment every k2 tap has compile-time j bounds; the only halo checks sit
/// at the two segment ends — `lo`: the input voxel t-1 exists, `hi`: the
/// input voxel t+TILE exists — and both are false for a full-line tile
/// (t = 0, TILE = D2), whose call sites pass them as constants so the
/// checks fold away.  Each output element accumulates in (ic, k0, k1, k2)
/// order, the order of the training forward.
///
/// The scalar variant keeps a[TILE][OC] on the stack; it serves the
/// channel counts too wide for one vector per output voxel.
template <std::int32_t OC, std::int32_t TILE>
inline void conv_line3(const float* in_sample_ptr, const float* wt,
                       const float* bias, float* out_line, std::int32_t IC,
                       std::int32_t D0, std::int32_t D1, std::int32_t D2,
                       std::int32_t o0, std::int32_t o1, std::int32_t t,
                       bool lo, bool hi, std::int64_t out_chan) {
  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;

  float a[TILE][OC];
  for (std::int32_t j = 0; j < TILE; ++j) {
    for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] = bias[oc];
  }

  const float* wk = wt;
  for (std::int32_t ic = 0; ic < IC; ++ic) {
    const float* ichan = in_sample_ptr + ic * in_chan;
    for (std::int32_t k0 = 0; k0 < 3; ++k0) {
      const std::int32_t z0 = o0 + k0 - 1;
      for (std::int32_t k1 = 0; k1 < 3; ++k1, wk += 3 * OC) {
        const std::int32_t z1 = o1 + k1 - 1;
        if (z0 < 0 || z0 >= D0 || z1 < 0 || z1 >= D1) continue;
        const float* L =
            ichan + std::int64_t(z0) * in_plane + std::int64_t(z1) * D2 + t;
        const float* __restrict__ w0 = wk;            // k2 = 0: z2 = j - 1
        const float* __restrict__ w1 = wk + OC;       // k2 = 1: z2 = j
        const float* __restrict__ w2 = wk + 2 * OC;   // k2 = 2: z2 = j + 1
        if (lo) {
          const float s = L[-1];
          for (std::int32_t oc = 0; oc < OC; ++oc) a[0][oc] += s * w0[oc];
        }
        for (std::int32_t j = 1; j < TILE; ++j) {
          const float s = L[j - 1];
          for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] += s * w0[oc];
        }
        for (std::int32_t j = 0; j < TILE; ++j) {
          const float s = L[j];
          for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] += s * w1[oc];
        }
        for (std::int32_t j = 0; j < TILE - 1; ++j) {
          const float s = L[j + 1];
          for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] += s * w2[oc];
        }
        if (hi) {
          const float s = L[TILE];
          for (std::int32_t oc = 0; oc < OC; ++oc) a[TILE - 1][oc] += s * w2[oc];
        }
      }
    }
  }

  for (std::int32_t oc = 0; oc < OC; ++oc) {
    float* orow = out_line + oc * out_chan;
    for (std::int32_t j = 0; j < TILE; ++j) orow[j] = a[j][oc];
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define OAR_CONV_VEC_EXT 1
/// conv_line3 with the accumulators held in native vector registers.  The
/// scalar variant above keeps a[TILE][OC] on the stack and the compiler
/// never proves it can stay in registers across the boundary-guarded tap
/// loop, so every tap pays a store-to-load round trip per accumulator —
/// measured at ~4 GFLOP/s for OC = 8 versus ~45 GFLOP/s here.  One vector
/// of OC lanes per output voxel only makes sense for narrow OC (8 or 16);
/// wider channel counts would spill the TILE accumulators right back to the
/// stack.  The per-element accumulation order is identical to conv_line3,
/// so the two kernels agree bit-for-bit under this file's FP flags.
template <std::int32_t OC, std::int32_t TILE>
inline void conv_line3_vec(const float* in_sample_ptr, const float* wt,
                           const float* bias, float* out_line, std::int32_t IC,
                           std::int32_t D0, std::int32_t D1, std::int32_t D2,
                           std::int32_t o0, std::int32_t o1, std::int32_t t,
                           bool lo, bool hi, std::int64_t out_chan) {
  typedef float Vec __attribute__((vector_size(OC * sizeof(float))));
  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;

  Vec b;
  __builtin_memcpy(&b, bias, sizeof(b));
  Vec a[TILE];
  for (std::int32_t j = 0; j < TILE; ++j) a[j] = b;

  const float* wk = wt;
  for (std::int32_t ic = 0; ic < IC; ++ic) {
    const float* ichan = in_sample_ptr + ic * in_chan;
    for (std::int32_t k0 = 0; k0 < 3; ++k0) {
      const std::int32_t z0 = o0 + k0 - 1;
      for (std::int32_t k1 = 0; k1 < 3; ++k1, wk += 3 * OC) {
        const std::int32_t z1 = o1 + k1 - 1;
        if (z0 < 0 || z0 >= D0 || z1 < 0 || z1 >= D1) continue;
        const float* L =
            ichan + std::int64_t(z0) * in_plane + std::int64_t(z1) * D2 + t;
        Vec w0, w1, w2;  // k2 = 0/1/2 taps: z2 = j - 1 / j / j + 1
        __builtin_memcpy(&w0, wk, sizeof(w0));
        __builtin_memcpy(&w1, wk + OC, sizeof(w1));
        __builtin_memcpy(&w2, wk + 2 * OC, sizeof(w2));
        if (lo) a[0] += L[-1] * w0;
        for (std::int32_t j = 1; j < TILE; ++j) a[j] += L[j - 1] * w0;
        for (std::int32_t j = 0; j < TILE; ++j) a[j] += L[j] * w1;
        for (std::int32_t j = 0; j < TILE - 1; ++j) a[j] += L[j + 1] * w2;
        if (hi) a[TILE - 1] += L[TILE] * w2;
      }
    }
  }

  for (std::int32_t oc = 0; oc < OC; ++oc) {
    float* orow = out_line + oc * out_chan;
    for (std::int32_t j = 0; j < TILE; ++j) orow[j] = a[j][oc];
  }
}
#endif  // OAR_CONV_VEC_EXT

/// conv_line3 entry point: picks the vector-register accumulator build for
/// the narrow channel counts it pays off on, the portable scalar tile
/// otherwise.
template <std::int32_t OC, std::int32_t TILE>
inline void conv_line3_dispatch(const float* in_sample_ptr, const float* wt,
                                const float* bias, float* out_line,
                                std::int32_t IC, std::int32_t D0,
                                std::int32_t D1, std::int32_t D2,
                                std::int32_t o0, std::int32_t o1,
                                std::int32_t t, bool lo, bool hi,
                                std::int64_t out_chan) {
#ifdef OAR_CONV_VEC_EXT
  if constexpr (OC == 8 || OC == 16) {
    conv_line3_vec<OC, TILE>(in_sample_ptr, wt, bias, out_line, IC, D0, D1, D2,
                             o0, o1, t, lo, hi, out_chan);
    return;
  }
#endif
  conv_line3<OC, TILE>(in_sample_ptr, wt, bias, out_line, IC, D0, D1, D2, o0,
                       o1, t, lo, hi, out_chan);
}

/// Outputs t..t+TILE of every line in output rows [o0_begin, o0_end).
/// When the segment is the whole line (t = 0, TILE = D2) the halo flags are
/// passed as constants so the kernel compiles without any halo check.
template <std::int32_t OC, std::int32_t TILE>
void conv_lines3(const float* in, const float* wt, const float* bias,
                 float* out, std::int32_t IC, std::int32_t D0, std::int32_t D1,
                 std::int32_t D2, std::int32_t t, std::int32_t o0_begin,
                 std::int32_t o0_end) {
  const std::int64_t out_plane = std::int64_t(D1) * D2;
  const std::int64_t out_chan = std::int64_t(D0) * out_plane;
  const bool lo = t > 0;
  const bool hi = t + TILE < D2;
  for (std::int32_t o0 = o0_begin; o0 < o0_end; ++o0) {
    for (std::int32_t o1 = 0; o1 < D1; ++o1) {
      float* oline =
          out + std::int64_t(o0) * out_plane + std::int64_t(o1) * D2 + t;
      if (!lo && !hi) {
        conv_line3_dispatch<OC, TILE>(in, wt, bias, oline, IC, D0, D1, D2, o0,
                                      o1, t, false, false, out_chan);
      } else {
        conv_line3_dispatch<OC, TILE>(in, wt, bias, oline, IC, D0, D1, D2, o0,
                                      o1, t, lo, hi, out_chan);
      }
    }
  }
}

/// One segment of `len` (1..kMaxLineTile) outputs starting at t on every
/// line of rows [b, e), with `len` lifted to a template constant.
template <std::int32_t OC>
void conv_segment3(const float* in, const float* wt, const float* bias,
                   float* out, std::int32_t IC, std::int32_t D0,
                   std::int32_t D1, std::int32_t D2, std::int32_t t,
                   std::int32_t len, std::int32_t b, std::int32_t e) {
  static_assert(kMaxLineTile == 8, "one entry per segment length");
  static constexpr decltype(&conv_lines3<OC, 1>) kLines[] = {
      conv_lines3<OC, 1>, conv_lines3<OC, 2>, conv_lines3<OC, 3>,
      conv_lines3<OC, 4>, conv_lines3<OC, 5>, conv_lines3<OC, 6>,
      conv_lines3<OC, 7>, conv_lines3<OC, 8>};
  kLines[len - 1](in, wt, bias, out, IC, D0, D1, D2, t, b, e);
}

/// 3x3x3 same-pad convolution of one (IC, D0, D1, D2) sample for any layer
/// count D2 >= 1: each line runs as segments of at most kMaxLineTile
/// outputs — one full-line tile when D2 <= kMaxLineTile.  Output rows o0
/// are split across the team.
template <std::int32_t OC>
void direct_conv3(const float* in, const float* wt, const float* bias,
                  float* out, std::int32_t IC, std::int32_t D0, std::int32_t D1,
                  std::int32_t D2) {
  // ~16 vectorized multiply-adds per ns.
  const std::int64_t work = std::int64_t(D0) * D1 * D2 * OC * IC * 27 / 16;
  util::team_for(D0, work, [&](std::int64_t b, std::int64_t e) {
    for (std::int32_t t = 0; t < D2; t += kMaxLineTile) {
      conv_segment3<OC>(in, wt, bias, out, IC, D0, D1, D2, t,
                        std::min(kMaxLineTile, D2 - t), std::int32_t(b),
                        std::int32_t(e));
    }
  });
}

/// 1x1x1 convolution: a per-voxel channel mix.  The spatial axis is
/// contiguous, so an axpy per (oc, ic) pair vectorizes without any patch
/// assembly.  Handles the output head and every residual projection; voxel
/// ranges are split across the team.
void pointwise_conv(const float* in, const float* w, const float* bias,
                    float* out, std::int32_t IC, std::int32_t OC,
                    std::int64_t spatial) {
  const std::int64_t work = spatial * OC * (IC + 1) / 8;
  util::team_for(spatial, work, [&](std::int64_t b, std::int64_t e) {
    for (std::int32_t oc = 0; oc < OC; ++oc) {
      float* __restrict__ orow = out + oc * spatial;
      const float bv = bias[oc];
      for (std::int64_t i = b; i < e; ++i) orow[i] = bv;
      for (std::int32_t ic = 0; ic < IC; ++ic) {
        const float s = w[std::int64_t(oc) * IC + ic];
        if (s == 0.0f) continue;
        const float* __restrict__ irow = in + ic * spatial;
        for (std::int64_t i = b; i < e; ++i) orow[i] += s * irow[i];
      }
    }
  });
}

constexpr std::int64_t kRowBlock = 128;

/// im2col + 4-row register-blocked GEMM fallback for any output-channel
/// count: out(r, oc) = bias(oc) + sum_k col(r, k) * wt(k, oc).  `acc` is a
/// caller-provided 4*OC workspace so the inner loop stays allocation-free.
void gemm_block_generic(const float* col, std::int64_t rows, std::int64_t K,
                        std::int32_t OC, const float* wt, const float* bias,
                        float* out, float* acc) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    float* __restrict__ a0 = acc;
    float* __restrict__ a1 = a0 + OC;
    float* __restrict__ a2 = a1 + OC;
    float* __restrict__ a3 = a2 + OC;
    for (std::int32_t oc = 0; oc < OC; ++oc) {
      a0[oc] = a1[oc] = a2[oc] = a3[oc] = bias[oc];
    }
    const float* c0 = col + r * K;
    const float* c1 = c0 + K;
    const float* c2 = c1 + K;
    const float* c3 = c2 + K;
    for (std::int64_t kk = 0; kk < K; ++kk) {
      const float s0 = c0[kk], s1 = c1[kk], s2 = c2[kk], s3 = c3[kk];
      if (s0 == 0.0f && s1 == 0.0f && s2 == 0.0f && s3 == 0.0f) continue;
      const float* __restrict__ w = wt + std::size_t(kk) * OC;
      for (std::int32_t oc = 0; oc < OC; ++oc) {
        a0[oc] += s0 * w[oc];
        a1[oc] += s1 * w[oc];
        a2[oc] += s2 * w[oc];
        a3[oc] += s3 * w[oc];
      }
    }
    float* o = out + r * OC;
    std::copy(a0, a0 + OC, o);
    std::copy(a1, a1 + OC, o + OC);
    std::copy(a2, a2 + OC, o + 2 * OC);
    std::copy(a3, a3 + OC, o + 3 * OC);
  }
  for (; r < rows; ++r) {
    float* __restrict__ a = acc;
    for (std::int32_t oc = 0; oc < OC; ++oc) a[oc] = bias[oc];
    const float* c0 = col + r * K;
    for (std::int64_t kk = 0; kk < K; ++kk) {
      const float s = c0[kk];
      if (s == 0.0f) continue;
      const float* __restrict__ w = wt + std::size_t(kk) * OC;
      for (std::int32_t oc = 0; oc < OC; ++oc) a[oc] += s * w[oc];
    }
    std::copy(a, a + OC, out + r * OC);
  }
}

/// One im2col + GEMM row block: output voxels [r0, r0 + rblk) of every
/// channel, through the caller's col / prod / acc workspaces.
void im2col_block(const float* in, const float* wt, const float* bias,
                  float* out, std::int32_t IC, std::int32_t D0,
                  std::int32_t D1, std::int32_t D2, std::int32_t kernel,
                  std::int32_t pad, std::int32_t O1, std::int32_t O2,
                  std::int32_t OC, std::int64_t out_chan, std::int64_t r0,
                  std::int64_t rblk, float* col, float* prod, float* acc) {
  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;
  const std::int64_t k3 = std::int64_t(kernel) * kernel * kernel;
  const std::int64_t K = std::int64_t(IC) * k3;

  // im2col: one row per output voxel; padding stays zero.
  std::fill(col, col + rblk * K, 0.0f);
  for (std::int64_t r = 0; r < rblk; ++r) {
    const std::int64_t s = r0 + r;
    const std::int32_t o0 = std::int32_t(s / (std::int64_t(O1) * O2));
    const std::int32_t o1 = std::int32_t((s / O2) % O1);
    const std::int32_t o2 = std::int32_t(s % O2);
    float* crow = col + r * K;
    const std::int32_t k2_lo = std::max(0, pad - o2);
    const std::int32_t k2_hi = std::min(kernel, D2 + pad - o2);
    if (k2_lo >= k2_hi) continue;
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      const float* ichan = in + ic * in_chan;
      float* cchan = crow + ic * k3;
      for (std::int32_t k0 = 0; k0 < kernel; ++k0) {
        const std::int32_t z0 = o0 + k0 - pad;
        if (z0 < 0 || z0 >= D0) continue;
        for (std::int32_t k1 = 0; k1 < kernel; ++k1) {
          const std::int32_t z1 = o1 + k1 - pad;
          if (z1 < 0 || z1 >= D1) continue;
          float* cdst = cchan + (std::int64_t(k0) * kernel + k1) * kernel + k2_lo;
          const float* isrc = ichan + std::int64_t(z0) * in_plane +
                              std::int64_t(z1) * D2 + (o2 + k2_lo - pad);
          std::copy(isrc, isrc + (k2_hi - k2_lo), cdst);
        }
      }
    }
  }

  gemm_block_generic(col, rblk, K, OC, wt, bias, prod, acc);

  // Scatter (row, oc) back to the channel-major output layout.
  for (std::int64_t r = 0; r < rblk; ++r) {
    float* obase = out + r0 + r;
    const float* p = prod + r * OC;
    for (std::int32_t oc = 0; oc < OC; ++oc) {
      obase[std::int64_t(oc) * out_chan] = p[oc];
    }
  }
}

/// im2col + GEMM over row blocks of kRowBlock output voxels, the blocks
/// split across the team; each part gets its own slice of the im2col /
/// product / register-block workspaces.
void im2col_conv(const float* in, const float* wt, const float* bias, float* out,
                 std::int32_t IC, std::int32_t D0, std::int32_t D1,
                 std::int32_t D2, std::int32_t kernel, std::int32_t pad,
                 std::int32_t O0, std::int32_t O1, std::int32_t O2,
                 std::int32_t OC, InferenceScratch& ws) {
  const std::int64_t out_chan = std::int64_t(O0) * O1 * O2;
  const std::int64_t K = std::int64_t(IC) * kernel * kernel * kernel;
  const std::int64_t blocks = (out_chan + kRowBlock - 1) / kRowBlock;
  const std::int32_t parts = util::ForkJoinTeam::instance().parts_for(
      out_chan * K * OC / 8, blocks);
  const std::size_t col_n = std::size_t(kRowBlock) * std::size_t(K);
  const std::size_t prod_n = std::size_t(kRowBlock) * std::size_t(OC);
  const std::size_t acc_n = std::size_t(OC) * 4;
  float* col = ws.col(col_n * std::size_t(parts));
  float* prod = ws.prod(prod_n * std::size_t(parts));
  float* acc = ws.acc(acc_n * std::size_t(parts));

  util::team_run(parts, [&](std::int32_t part, std::int32_t parts_run) {
    const auto [b, e] = util::part_range(blocks, part, parts_run);
    for (std::int64_t blk = b; blk < e; ++blk) {
      const std::int64_t r0 = blk * kRowBlock;
      im2col_block(in, wt, bias, out, IC, D0, D1, D2, kernel, pad, O1, O2, OC,
                   out_chan, r0, std::min(kRowBlock, out_chan - r0),
                   col + col_n * std::size_t(part),
                   prod + prod_n * std::size_t(part),
                   acc + acc_n * std::size_t(part));
    }
  });
}

}  // namespace

/// Transpose the weights to (K, OC) in the workspace, then run the
/// register-tiled line kernel for 3x3x3 same-pad layers at the known
/// channel counts, the pointwise kernel for 1x1x1, and the im2col
/// fallback for everything else.  The kk = (ic, k0, k1, k2) accumulation
/// order matches the training forward, keeping the two paths numerically
/// aligned up to flag-dependent FP contraction in this translation unit.
void Conv3d::infer_into(const float* in, std::int32_t D0, std::int32_t D1,
                        std::int32_t D2, InferenceScratch& scratch,
                        float* out) const {
  const std::int32_t O0 = D0 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O1 = D1 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O2 = D2 + 2 * padding_ - kernel_ + 1;
  assert(O0 > 0 && O1 > 0 && O2 > 0);
  const std::int32_t IC = in_channels_, OC = out_channels_;
  const float* w = weight_.value.data();
  const float* bias = bias_.value.data();

  if (kernel_ == 1 && padding_ == 0) {
    pointwise_conv(in, w, bias, out, IC, OC, std::int64_t(O0) * O1 * O2);
    return;
  }

  const std::int64_t K = std::int64_t(IC) * kernel_ * kernel_ * kernel_;
  float* wt = scratch.wt(std::size_t(K) * std::size_t(OC));
  util::team_for(K, K * OC, [&](std::int64_t b, std::int64_t e) {
    for (std::int32_t oc = 0; oc < OC; ++oc) {
      for (std::int64_t kk = b; kk < e; ++kk) {
        wt[std::size_t(kk) * std::size_t(OC) + std::size_t(oc)] = w[oc * K + kk];
      }
    }
  });

  if (kernel_ == 3 && padding_ == 1) {
    switch (OC) {
      case 1: direct_conv3<1>(in, wt, bias, out, IC, D0, D1, D2); return;
      case 8: direct_conv3<8>(in, wt, bias, out, IC, D0, D1, D2); return;
      case 16: direct_conv3<16>(in, wt, bias, out, IC, D0, D1, D2); return;
      case 32: direct_conv3<32>(in, wt, bias, out, IC, D0, D1, D2); return;
      case 64: direct_conv3<64>(in, wt, bias, out, IC, D0, D1, D2); return;
      default: break;
    }
  }
  im2col_conv(in, wt, bias, out, IC, D0, D1, D2, kernel_, padding_, O0, O1, O2,
              OC, scratch);
}

}  // namespace oar::nn
