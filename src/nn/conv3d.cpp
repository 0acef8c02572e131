#include "nn/conv3d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "nn/inference.hpp"

// Training-mode convolution kernels (DESIGN.md §19).  Every output element
// is summed in exactly the order of the textbook loops, so training is
// bitwise reproducible whatever the vector width of the build:
//
//   forward      out[oc, o]  = bias[oc], then + w * x over (ic, k0, k1, k2)
//   input grad   gin[ic, z]  = +0,       then + w * g over (oc, k0, k1, k2)
//   weight grad  gw[oc,ic,k] += float(double sum over o in (o0, o1, o2) order)
//   bias grad    gb[oc]      += float(double sum over o in (o0, o1, o2) order)
//
// Speed comes from vectorizing across independent sums, never within one.
// The forward and the input gradient run every (channel, tap) term over a
// zero-padded volume walked as one long flattened line: with the output
// laid out on the padded row and plane strides, a tap is a constant shift,
// so each term is a float multiply-add over whole vectors of outputs, and
// each input vector loaded feeds a block of output channels.  The padded
// frame's extra outputs (past a row's end) are computed and dropped.  A
// term that reads the zero padding adds w * 0 = ±0, which leaves any sum
// that did not start at -0.0 unchanged — these sums start at the bias or
// at +0.0, and an IEEE round-to-nearest sum that did not start at -0.0
// never becomes -0.0.  (A bias of exactly -0.0 whose output sums to zero
// may therefore come out +0.0: the sign of a zero, never a value.)
//
// The weight gradient runs each (ic, tap) as a double dot product over the
// valid outputs, vectorized across output channels: a product of two
// floats is exact in double, so its sum order is the only thing to keep
// and the multiply-add may be fused.
//
// This file is compiled with -ffp-contract=off (src/nn/CMakeLists.txt):
// contracting the float forward's `acc + w * x` into an FMA would skip the
// product's rounding and change the bits.

namespace oar::nn {

namespace {

#if defined(__AVX512F__)
constexpr std::int32_t kLanes = 16;  // floats per vector register
constexpr std::int32_t kMaxRows = 8;  // output channels per line block
#else
constexpr std::int32_t kLanes = 8;
constexpr std::int32_t kMaxRows = 4;
#endif
constexpr std::int32_t kUnroll = 3;  // vectors per channel per line chunk
constexpr std::int64_t kChunk = std::int64_t(kLanes) * kUnroll;

typedef float VecF __attribute__((vector_size(kLanes * sizeof(float))));
typedef double VecD __attribute__((vector_size(8 * sizeof(double))));
typedef float VecF8 __attribute__((vector_size(8 * sizeof(float))));

// Broadcasts.  v - 0 is v for every v, -0.0 included (v + 0 is not), and
// compiles to a single broadcast.
inline VecF splat(float v) { return v - VecF{}; }
inline VecD splat(double v) { return v - VecD{}; }

std::int64_t round_up(std::int64_t n, std::int64_t m) { return (n + m - 1) / m * m; }

/// a * b + c where a * b is exact (a product of two floats, in double):
/// fusing cannot change the result, so the FMA unit may do it.
inline VecD mul_add_exact(VecD a, VecD b, VecD c) {
#if defined(__AVX512F__)
  return VecD(_mm512_fmadd_pd(__m512d(a), __m512d(b), __m512d(c)));
#else
  return a * b + c;
#endif
}

/// One channel of a (D0, D1, D2) volume zero-padded by g on every side,
/// with neighbouring rows and planes sharing their padding: g zero columns
/// close each row, g zero rows close each plane, and g zero planes (plus
/// the first plane's leading rows and columns) come before the data.  Any
/// tap (j0, j1, j2) with |j| <= g is then the constant shift
/// j0 * S1 + j1 * S2 + j2, and reads of a position outside the volume land
/// on a zero.  Sharing the padding keeps the dropped outputs of a
/// flattened line at (D1 + g)(D2 + g) / (D1 D2) - 1 per valid one: 0.63 at
/// 12x12x2, where a separate pad per side would cost 1.33.
struct Frame {
  std::int64_t S2, S1, lead, chan;  // row stride, plane stride, zeros before (0,0,0), channel size

  Frame(std::int32_t D0, std::int32_t D1, std::int32_t D2, std::int32_t g)
      : S2(D2 + g), S1((D1 + g) * S2), lead(g * (S1 + S2 + 1)), chan(lead + (D0 + g) * S1) {}

  std::int64_t shift(std::int64_t j0, std::int64_t j1, std::int64_t j2) const {
    return j0 * S1 + j1 * S2 + j2;
  }
  /// Length of the flattened line from (0, 0, 0) to (O0-1, O1-1, O2-1).
  std::int64_t line(std::int32_t O0, std::int32_t O1, std::int32_t O2) const {
    return (O0 - 1) * S1 + (O1 - 1) * S2 + O2;
  }

  /// Writes the dense (C, D0, D1, D2) volume `src` into `out` in this
  /// frame, C channels back to back, with `slack` zeros after the last one
  /// so a line rounded up to whole chunks never reads past the buffer.
  template <typename T>
  void fill(const float* src, std::int32_t C, std::int32_t D0, std::int32_t D1,
            std::int32_t D2, std::int64_t slack, std::vector<T>& out) const {
    out.assign(std::size_t(C * chan + slack), T(0));
    for (std::int32_t c = 0; c < C; ++c) {
      for (std::int32_t d0 = 0; d0 < D0; ++d0) {
        for (std::int32_t d1 = 0; d1 < D1; ++d1) {
          const float* s = src + ((std::int64_t(c) * D0 + d0) * D1 + d1) * D2;
          T* d = out.data() + c * chan + lead + d0 * S1 + d1 * S2;
          for (std::int32_t d2 = 0; d2 < D2; ++d2) d[d2] = T(s[d2]);
        }
      }
    }
  }

  /// Copies outputs (C, O0, O1, O2) out of a line buffer laid out on this
  /// frame's strides, one line of length n per channel.
  void compact(const float* line, std::int64_t n, std::int32_t C, std::int32_t O0,
               std::int32_t O1, std::int32_t O2, float* dst) const {
    for (std::int32_t c = 0; c < C; ++c) {
      for (std::int32_t o0 = 0; o0 < O0; ++o0) {
        for (std::int32_t o1 = 0; o1 < O1; ++o1) {
          const float* s = line + c * n + o0 * S1 + o1 * S2;
          dst = std::copy(s, s + O2, dst);
        }
      }
    }
  }
};

/// The terms of one block of R output rows: entry e reads the source at
/// offset off[e] (plus the line position) and weighs it by w[e * R + r]
/// for row r.  Entries are in summation order.
struct Terms {
  std::vector<std::int64_t> off;
  std::vector<float> w;
};

/// out[r * ostride + q] = start, then + w[e*R + r] * src[off[e] + q] for
/// every entry e in order, for q in [0, n), n a multiple of kChunk.  The
/// start is out[r * ostride + q] itself when `carry` (a sum continued from
/// an earlier call: a float store and reload is exact), else init[r], or
/// +0.0 when `init` is null.
template <std::int32_t R>
void line_block(const float* src, const Terms& terms, const float* init,
                bool carry, float* out, std::int64_t ostride, std::int64_t n) {
  const std::size_t entries = terms.off.size();
  const std::int64_t* off = terms.off.data();
  const float* w = terms.w.data();
  for (std::int64_t q = 0; q < n; q += kChunk) {
    VecF acc[R][kUnroll];
    for (std::int32_t r = 0; r < R; ++r) {
      const VecF a = splat(init ? init[r] : 0.0f);
      for (std::int32_t u = 0; u < kUnroll; ++u) {
        if (carry) {
          std::memcpy(&acc[r][u], out + r * ostride + q + u * kLanes, sizeof(VecF));
        } else {
          acc[r][u] = a;
        }
      }
    }
    for (std::size_t e = 0; e < entries; ++e) {
      const float* s = src + off[e] + q;
      VecF x[kUnroll];
      for (std::int32_t u = 0; u < kUnroll; ++u) {
        std::memcpy(&x[u], s + u * kLanes, sizeof(VecF));
      }
      const float* we = w + e * R;
      for (std::int32_t r = 0; r < R; ++r) {
        const VecF wv = splat(we[r]);
        for (std::int32_t u = 0; u < kUnroll; ++u) acc[r][u] += wv * x[u];
      }
    }
    for (std::int32_t r = 0; r < R; ++r) {
      for (std::int32_t u = 0; u < kUnroll; ++u) {
        std::memcpy(out + r * ostride + q + u * kLanes, &acc[r][u], sizeof(VecF));
      }
    }
  }
}

/// Entries per channel group of a grouped line convolution.
constexpr std::size_t kGroupTerms = 96;

/// One line convolution of the dense (channels, D0, D1, D2) volume `in`
/// into the dense (rows, O0, O1, O2) volume `dst`: row r = init[r] (or
/// +0.0 when `init` is null) plus, over channels c and taps k in order,
/// weight(r, c, k) times channel c shifted by shift[k] in `frame`.  Rows
/// run in blocks of kMaxRows, then narrower blocks for the remainder, each
/// computed on the frame's strides and compacted into `dst`; a term whose
/// weights are all exactly zero for the block is skipped.
///
/// The source is framed a few channels at a time when every row fits one
/// line buffer, with the sums carried in the buffer from group to group,
/// so the padded copy stays small; otherwise every block needs every
/// channel and the whole source is framed once.
template <typename Weight>
void line_conv(const float* in, std::int32_t channels, std::int32_t D0,
               std::int32_t D1, std::int32_t D2, const Frame& frame,
               const std::vector<std::int64_t>& shift, std::int32_t rows,
               const float* init, Weight&& weight, std::int32_t O0,
               std::int32_t O1, std::int32_t O2, float* dst) {
  const std::int64_t n = round_up(frame.line(O0, O1, O2), kChunk);
  const std::int64_t in_chan = std::int64_t(D0) * D1 * D2;
  const std::int64_t out_chan = std::int64_t(O0) * O1 * O2;
  const bool grouped = rows <= kMaxRows;
  const std::int32_t group =
      grouped ? std::int32_t(std::max<std::size_t>(1, kGroupTerms / shift.size()))
              : channels;
  std::vector<float> line(std::size_t(std::min(rows, kMaxRows) * n));
  std::vector<float> src;
  Terms terms;
  terms.off.reserve(std::size_t(group) * shift.size());
  terms.w.reserve(std::size_t(group) * shift.size() * std::min(rows, kMaxRows));
  for (std::int32_t c0 = 0; c0 < channels; c0 += group) {
    const std::int32_t cg = std::min(group, channels - c0);
    frame.fill(in + c0 * in_chan, cg, D0, D1, D2, kChunk, src);
    std::int32_t row = 0;
    const auto run = [&](auto rows_c) {
      constexpr std::int32_t R = decltype(rows_c)::value;
      for (; rows - row >= R; row += R) {
        terms.off.clear();
        terms.w.clear();
        for (std::int32_t c = 0; c < cg; ++c) {
          for (std::size_t k = 0; k < shift.size(); ++k) {
            float wr[R];
            bool any = false;
            for (std::int32_t r = 0; r < R; ++r) {
              wr[r] = weight(row + r, c0 + c, k);
              any |= wr[r] != 0.0f;
            }
            if (!any) continue;
            terms.off.push_back(frame.lead + c * frame.chan + shift[k]);
            terms.w.insert(terms.w.end(), wr, wr + R);
          }
        }
        float* block = line.data() + (grouped ? row * n : 0);
        line_block<R>(src.data(), terms, init ? init + row : nullptr, c0 > 0,
                      block, n, n);
        if (!grouped) frame.compact(block, n, R, O0, O1, O2, dst + row * out_chan);
      }
    };
    run(std::integral_constant<std::int32_t, kMaxRows>{});
    if constexpr (kMaxRows > 4) run(std::integral_constant<std::int32_t, 4>{});
    run(std::integral_constant<std::int32_t, 2>{});
    run(std::integral_constant<std::int32_t, 1>{});
  }
  if (grouped) frame.compact(line.data(), n, rows, O0, O1, O2, dst);
}

/// The K^3 tap shifts of a frame in (k0, k1, k2) order, tap k reading at
/// offset sign * (k - p) on every axis.
std::vector<std::int64_t> tap_shifts(const Frame& f, std::int32_t K,
                                     std::int32_t p, std::int32_t sign) {
  std::vector<std::int64_t> out;
  for (std::int32_t k0 = 0; k0 < K; ++k0) {
    for (std::int32_t k1 = 0; k1 < K; ++k1) {
      for (std::int32_t k2 = 0; k2 < K; ++k2) {
        out.push_back(f.shift(sign * (k0 - p), sign * (k1 - p), sign * (k2 - p)));
      }
    }
  }
  return out;
}

/// Weight-gradient tile: for up to kTile (ic, tap) entries, the double sums
/// over the valid outputs, in (o0, o1, o2) order, of go(o, oc) * in(ic, o
/// + tap) for 8 output channels at once.  `goT` holds the output gradient
/// voxel-major with the channel axis padded to `ocp` (a multiple of 8);
/// `in` holds the input channels the entries read, in double, in frame
/// layout; entry t reads it at off[t] plus the output's frame position.
constexpr std::int32_t kTile = 9;

template <std::int32_t T>
void wgrad_tile(const float* goT, std::int64_t ocp, const double* in,
                const std::int64_t* off, const Frame& frame, std::int32_t O0,
                std::int32_t O1, std::int32_t O2, VecD* acc) {
  VecD a[T];
  for (std::int32_t t = 0; t < T; ++t) a[t] = splat(0.0);
  const float* g = goT;
  for (std::int32_t o0 = 0; o0 < O0; ++o0) {
    for (std::int32_t o1 = 0; o1 < O1; ++o1) {
      const double* row = in + o0 * frame.S1 + o1 * frame.S2;
      for (std::int32_t o2 = 0; o2 < O2; ++o2, g += ocp) {
        VecF8 gf;
        std::memcpy(&gf, g, sizeof(VecF8));
        const VecD gv = __builtin_convertvector(gf, VecD);
        for (std::int32_t t = 0; t < T; ++t) {
          a[t] = mul_add_exact(gv, splat(row[off[t] + o2]), a[t]);
        }
      }
    }
  }
  for (std::int32_t t = 0; t < T; ++t) acc[t] = a[t];
}

static_assert(kTile == 9, "one entry per tile width");
constexpr decltype(&wgrad_tile<1>) kWgradTiles[] = {
    wgrad_tile<1>, wgrad_tile<2>, wgrad_tile<3>, wgrad_tile<4>, wgrad_tile<5>,
    wgrad_tile<6>, wgrad_tile<7>, wgrad_tile<8>, wgrad_tile<9>};

}  // namespace

Conv3d::Conv3d(std::int32_t in_channels, std::int32_t out_channels,
               std::int32_t kernel, util::Rng& rng, std::int32_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      padding_(padding < 0 ? kernel / 2 : padding) {
  assert(kernel % 2 == 1);
  const float stddev =
      std::sqrt(2.0f / (float(in_channels) * float(kernel) * float(kernel) * float(kernel)));
  weight_ = Parameter(
      "conv.weight",
      Tensor::randn({out_channels, in_channels, kernel, kernel, kernel}, rng, stddev));
  bias_ = Parameter("conv.bias", Tensor({out_channels}));
}

void Conv3d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

Tensor Conv3d::forward(const Tensor& input) {
  assert(input.dim() == 4);
  assert(input.shape(0) == in_channels_);

  const std::int32_t D0 = input.shape(1), D1 = input.shape(2), D2 = input.shape(3);
  const std::int32_t O0 = D0 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O1 = D1 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O2 = D2 + 2 * padding_ - kernel_ + 1;
  assert(O0 > 0 && O1 > 0 && O2 > 0);

  Tensor out({out_channels_, O0, O1, O2});
  if (!training()) {
    infer_into(input.data(), D0, D1, D2, local_inference_scratch(), out.data());
    return out;
  }
  input_ = input;

  const std::int32_t K = kernel_, IC = in_channels_, p = padding_;
  const std::int64_t k3 = std::int64_t(K) * K * K;
  const Frame frame(D0, D1, D2, std::max(p, 2 * p - K + 1));
  const float* w = weight_.value.data();
  line_conv(input.data(), IC, D0, D1, D2, frame, tap_shifts(frame, K, p, 1),
            out_channels_, bias_.value.data(),
            [&](std::int32_t oc, std::int32_t ic, std::size_t k) {
              return w[(std::int64_t(oc) * IC + ic) * k3 + std::int64_t(k)];
            },
            O0, O1, O2, out.data());
  return out;
}

Tensor Conv3d::backward(const Tensor& grad_output) {
  assert(training());  // inference-mode forward retains nothing
  assert(input_.defined());
  const std::int32_t D0 = input_.shape(1), D1 = input_.shape(2), D2 = input_.shape(3);
  const std::int32_t O0 = grad_output.shape(1), O1 = grad_output.shape(2),
                     O2 = grad_output.shape(3);
  assert(grad_output.shape(0) == out_channels_);

  const std::int32_t K = kernel_, IC = in_channels_, OC = out_channels_, p = padding_;
  const std::int64_t k3 = std::int64_t(K) * K * K;
  const std::int64_t out_chan = std::int64_t(O0) * O1 * O2;
  const float* go = grad_output.data();
  const float* w = weight_.value.data();

  // Bias gradient: sum of output gradients of this channel.
  float* gb = bias_.grad.data();
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    const float* gobase = go + oc * out_chan;
    double gbs = 0.0;
    for (std::int64_t i = 0; i < out_chan; ++i) gbs += gobase[i];
    gb[oc] += float(gbs);
  }

  // Weight gradient: one double dot product per (oc, ic, tap) over the
  // valid outputs, 8 output channels per vector and a tile of kTile
  // consecutive (ic, tap) entries per pass over the outputs.  Only the
  // input channels a tile reads are held in double.
  {
    const Frame frame(D0, D1, D2, std::max(p, 2 * p - K + 1));
    const std::int64_t ocp = round_up(OC, 8);
    std::vector<float> goT(std::size_t(out_chan * ocp), 0.0f);
    for (std::int32_t oc = 0; oc < OC; ++oc) {
      for (std::int64_t v = 0; v < out_chan; ++v) {
        goT[std::size_t(v * ocp + oc)] = go[oc * out_chan + v];
      }
    }
    const std::vector<std::int64_t> shift = tap_shifts(frame, K, p, 1);
    const std::int64_t in_chan = std::int64_t(D0) * D1 * D2;
    const std::int64_t entries = IC * k3;  // entry ic * k3 + k
    std::vector<double> in;
    std::int64_t in_lo = -1, in_hi = -1;  // channels held in `in`
    std::int64_t off[kTile] = {};
    VecD acc[kTile] = {};
    float* gw = weight_.grad.data();
    for (std::int64_t e = 0; e < entries; e += kTile) {
      const std::int64_t T = std::min<std::int64_t>(kTile, entries - e);
      const std::int64_t lo = e / k3, hi = (e + T - 1) / k3;
      if (lo != in_lo || hi != in_hi) {
        in_lo = lo;
        in_hi = hi;
        frame.fill(input_.data() + lo * in_chan, std::int32_t(hi - lo + 1), D0, D1,
                   D2, 0, in);
      }
      for (std::int64_t t = 0; t < T; ++t) {
        off[t] = frame.lead + ((e + t) / k3 - lo) * frame.chan +
                 shift[std::size_t((e + t) % k3)];
      }
      for (std::int64_t oc0 = 0; oc0 < OC; oc0 += 8) {
        kWgradTiles[T - 1](goT.data() + oc0, ocp, in.data(), off, frame, O0, O1,
                           O2, acc);
        for (std::int64_t t = 0; t < T; ++t) {
          for (std::int64_t r = 0; r < std::min<std::int64_t>(8, OC - oc0); ++r) {
            gw[(oc0 + r) * IC * k3 + e + t] += float(acc[t][r]);
          }
        }
      }
    }
  }

  // Input gradient: the output gradient convolved with the weights read
  // transposed — the term of tap k for input z reads the output gradient
  // at z + p - k — in a frame padded by K-1-p (at least 0).
  Tensor grad_input(input_.shape());
  {
    const Frame frame(O0, O1, O2, std::max(0, K - 1 - p));
    line_conv(go, OC, O0, O1, O2, frame, tap_shifts(frame, K, p, -1), IC, nullptr,
              [&](std::int32_t ic, std::int32_t oc, std::size_t k) {
                return w[(std::int64_t(oc) * IC + ic) * k3 + std::int64_t(k)];
              },
              D0, D1, D2, grad_input.data());
  }
  return grad_input;
}

}  // namespace oar::nn
