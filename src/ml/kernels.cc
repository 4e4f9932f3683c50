// Shared numeric kernels (see kernels.h and DESIGN.md §8). Bit-identity
// rationale: a naive dot-product loop is bound by its serial addsd
// dependency chain, not multiply throughput. The kernels here compute
// many independent outputs at once — each output still sums p = 0..n-1 in
// exactly the reference order, so every result matches the reference to
// the last bit, but the outputs form independent accumulator chains that
// fill the FPU pipeline. pack_rows() lays consecutive weight rows out in
// groups of eight (column-interleaved: pk[p*8 + r] = w[r][p]) so the SIMD
// variants can load one column of eight rows as contiguous vectors. The
// AVX2/AVX-512 paths keep one output per vector lane; lane arithmetic is
// the same IEEE mul-then-add as the scalar code (this file is compiled
// with -ffp-contract=off, and the AVX2 clone does not enable FMA, so no
// fused multiply-add can change the rounding).
#include "ml/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "ml/activations.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ESIM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace esim::ml::kernels {
namespace {

/// matvec over `groups` packed 8-row groups: out[g*8 + r] = dot(row, x).
/// Portable fallback — eight independent scalar chains per group.
void matvec_scalar(const double* pk, std::size_t groups, std::size_t n,
                   const double* x, double* out) {
  for (std::size_t g = 0; g < groups; ++g) {
    const double* w = pk + g * 8 * n;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      const double xv = x[p];
      const double* col = w + p * 8;
      s0 += xv * col[0];
      s1 += xv * col[1];
      s2 += xv * col[2];
      s3 += xv * col[3];
      s4 += xv * col[4];
      s5 += xv * col[5];
      s6 += xv * col[6];
      s7 += xv * col[7];
    }
    double* o = out + g * 8;
    o[0] = s0;
    o[1] = s1;
    o[2] = s2;
    o[3] = s3;
    o[4] = s4;
    o[5] = s5;
    o[6] = s6;
    o[7] = s7;
  }
}

#ifdef ESIM_X86_DISPATCH

/// AVX2 variant: two groups (16 rows) per pass = four independent ymm
/// accumulator chains, enough to cover the vaddpd latency. One row per
/// lane; each lane performs the exact scalar operation sequence.
__attribute__((target("avx2"))) void matvec_avx2(const double* pk,
                                                 std::size_t groups,
                                                 std::size_t n,
                                                 const double* x,
                                                 double* out) {
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    const double* a = pk + g * 8 * n;
    const double* b = a + 8 * n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d b0 = _mm256_setzero_pd();
    __m256d b1 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < n; ++p) {
      const __m256d xv = _mm256_broadcast_sd(x + p);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(xv, _mm256_loadu_pd(a + p * 8)));
      a1 = _mm256_add_pd(a1,
                         _mm256_mul_pd(xv, _mm256_loadu_pd(a + p * 8 + 4)));
      b0 = _mm256_add_pd(b0, _mm256_mul_pd(xv, _mm256_loadu_pd(b + p * 8)));
      b1 = _mm256_add_pd(b1,
                         _mm256_mul_pd(xv, _mm256_loadu_pd(b + p * 8 + 4)));
    }
    _mm256_storeu_pd(out + g * 8, a0);
    _mm256_storeu_pd(out + g * 8 + 4, a1);
    _mm256_storeu_pd(out + g * 8 + 8, b0);
    _mm256_storeu_pd(out + g * 8 + 12, b1);
  }
  if (g < groups) {
    const double* a = pk + g * 8 * n;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < n; ++p) {
      const __m256d xv = _mm256_broadcast_sd(x + p);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(xv, _mm256_loadu_pd(a + p * 8)));
      a1 = _mm256_add_pd(a1,
                         _mm256_mul_pd(xv, _mm256_loadu_pd(a + p * 8 + 4)));
    }
    _mm256_storeu_pd(out + g * 8, a0);
    _mm256_storeu_pd(out + g * 8 + 4, a1);
  }
}

/// AVX-512 variant: four groups (32 rows) per pass = four independent
/// zmm accumulator chains. Note: no vfmadd — mul and add stay separate
/// so every lane rounds twice, exactly like the reference.
__attribute__((target("avx512f"))) void matvec_avx512(const double* pk,
                                                      std::size_t groups,
                                                      std::size_t n,
                                                      const double* x,
                                                      double* out) {
  std::size_t g = 0;
  for (; g + 4 <= groups; g += 4) {
    const double* a = pk + g * 8 * n;
    const double* b = a + 8 * n;
    const double* c = b + 8 * n;
    const double* d = c + 8 * n;
    __m512d sa = _mm512_setzero_pd();
    __m512d sb = _mm512_setzero_pd();
    __m512d sc = _mm512_setzero_pd();
    __m512d sd = _mm512_setzero_pd();
    for (std::size_t p = 0; p < n; ++p) {
      const __m512d xv = _mm512_set1_pd(x[p]);
      sa = _mm512_add_pd(sa, _mm512_mul_pd(xv, _mm512_loadu_pd(a + p * 8)));
      sb = _mm512_add_pd(sb, _mm512_mul_pd(xv, _mm512_loadu_pd(b + p * 8)));
      sc = _mm512_add_pd(sc, _mm512_mul_pd(xv, _mm512_loadu_pd(c + p * 8)));
      sd = _mm512_add_pd(sd, _mm512_mul_pd(xv, _mm512_loadu_pd(d + p * 8)));
    }
    _mm512_storeu_pd(out + g * 8, sa);
    _mm512_storeu_pd(out + g * 8 + 8, sb);
    _mm512_storeu_pd(out + g * 8 + 16, sc);
    _mm512_storeu_pd(out + g * 8 + 24, sd);
  }
  for (; g < groups; ++g) {
    const double* a = pk + g * 8 * n;
    __m512d sa = _mm512_setzero_pd();
    for (std::size_t p = 0; p < n; ++p) {
      const __m512d xv = _mm512_set1_pd(x[p]);
      sa = _mm512_add_pd(sa, _mm512_mul_pd(xv, _mm512_loadu_pd(a + p * 8)));
    }
    _mm512_storeu_pd(out + g * 8, sa);
  }
}

/// Batched matmul, AVX2: four lanes share every weight load. The 4x8
/// (lane x row) tile keeps eight independent ymm accumulator chains —
/// two per lane — so one pass over a weight group serves four input
/// rows. Per (lane, row) the arithmetic is the exact matvec_avx2
/// sequence, so results stay bit-identical to the single-lane kernel.
__attribute__((target("avx2"))) void matmul_avx2(
    const double* pk, std::size_t groups, std::size_t n, const double* x,
    std::size_t ldx, std::size_t lanes, double* out, std::size_t ldo) {
  std::size_t lane = 0;
  for (; lane + 4 <= lanes; lane += 4) {
    const double* x0 = x + lane * ldx;
    const double* x1 = x0 + ldx;
    const double* x2 = x1 + ldx;
    const double* x3 = x2 + ldx;
    double* o0 = out + lane * ldo;
    double* o1 = o0 + ldo;
    double* o2 = o1 + ldo;
    double* o3 = o2 + ldo;
    for (std::size_t g = 0; g < groups; ++g) {
      const double* w = pk + g * 8 * n;
      __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
      __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
      __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
      __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
      for (std::size_t p = 0; p < n; ++p) {
        const __m256d w0 = _mm256_loadu_pd(w + p * 8);
        const __m256d w1 = _mm256_loadu_pd(w + p * 8 + 4);
        __m256d xv = _mm256_broadcast_sd(x0 + p);
        a00 = _mm256_add_pd(a00, _mm256_mul_pd(xv, w0));
        a01 = _mm256_add_pd(a01, _mm256_mul_pd(xv, w1));
        xv = _mm256_broadcast_sd(x1 + p);
        a10 = _mm256_add_pd(a10, _mm256_mul_pd(xv, w0));
        a11 = _mm256_add_pd(a11, _mm256_mul_pd(xv, w1));
        xv = _mm256_broadcast_sd(x2 + p);
        a20 = _mm256_add_pd(a20, _mm256_mul_pd(xv, w0));
        a21 = _mm256_add_pd(a21, _mm256_mul_pd(xv, w1));
        xv = _mm256_broadcast_sd(x3 + p);
        a30 = _mm256_add_pd(a30, _mm256_mul_pd(xv, w0));
        a31 = _mm256_add_pd(a31, _mm256_mul_pd(xv, w1));
      }
      _mm256_storeu_pd(o0 + g * 8, a00);
      _mm256_storeu_pd(o0 + g * 8 + 4, a01);
      _mm256_storeu_pd(o1 + g * 8, a10);
      _mm256_storeu_pd(o1 + g * 8 + 4, a11);
      _mm256_storeu_pd(o2 + g * 8, a20);
      _mm256_storeu_pd(o2 + g * 8 + 4, a21);
      _mm256_storeu_pd(o3 + g * 8, a30);
      _mm256_storeu_pd(o3 + g * 8 + 4, a31);
    }
  }
  for (; lane < lanes; ++lane) {
    matvec_avx2(pk, groups, n, x + lane * ldx, out + lane * ldo);
  }
}

/// Batched matmul, AVX-512: eight lanes share every weight load (one zmm
/// covers a full 8-row group column), eight independent zmm chains.
__attribute__((target("avx512f"))) void matmul_avx512(
    const double* pk, std::size_t groups, std::size_t n, const double* x,
    std::size_t ldx, std::size_t lanes, double* out, std::size_t ldo) {
  std::size_t lane = 0;
  for (; lane + 8 <= lanes; lane += 8) {
    const double* xr[8];
    for (std::size_t l = 0; l < 8; ++l) xr[l] = x + (lane + l) * ldx;
    for (std::size_t g = 0; g < groups; ++g) {
      const double* w = pk + g * 8 * n;
      __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
      __m512d a2 = _mm512_setzero_pd(), a3 = _mm512_setzero_pd();
      __m512d a4 = _mm512_setzero_pd(), a5 = _mm512_setzero_pd();
      __m512d a6 = _mm512_setzero_pd(), a7 = _mm512_setzero_pd();
      for (std::size_t p = 0; p < n; ++p) {
        const __m512d wv = _mm512_loadu_pd(w + p * 8);
        a0 = _mm512_add_pd(a0, _mm512_mul_pd(_mm512_set1_pd(xr[0][p]), wv));
        a1 = _mm512_add_pd(a1, _mm512_mul_pd(_mm512_set1_pd(xr[1][p]), wv));
        a2 = _mm512_add_pd(a2, _mm512_mul_pd(_mm512_set1_pd(xr[2][p]), wv));
        a3 = _mm512_add_pd(a3, _mm512_mul_pd(_mm512_set1_pd(xr[3][p]), wv));
        a4 = _mm512_add_pd(a4, _mm512_mul_pd(_mm512_set1_pd(xr[4][p]), wv));
        a5 = _mm512_add_pd(a5, _mm512_mul_pd(_mm512_set1_pd(xr[5][p]), wv));
        a6 = _mm512_add_pd(a6, _mm512_mul_pd(_mm512_set1_pd(xr[6][p]), wv));
        a7 = _mm512_add_pd(a7, _mm512_mul_pd(_mm512_set1_pd(xr[7][p]), wv));
      }
      _mm512_storeu_pd(out + lane * ldo + g * 8, a0);
      _mm512_storeu_pd(out + (lane + 1) * ldo + g * 8, a1);
      _mm512_storeu_pd(out + (lane + 2) * ldo + g * 8, a2);
      _mm512_storeu_pd(out + (lane + 3) * ldo + g * 8, a3);
      _mm512_storeu_pd(out + (lane + 4) * ldo + g * 8, a4);
      _mm512_storeu_pd(out + (lane + 5) * ldo + g * 8, a5);
      _mm512_storeu_pd(out + (lane + 6) * ldo + g * 8, a6);
      _mm512_storeu_pd(out + (lane + 7) * ldo + g * 8, a7);
    }
  }
  for (; lane < lanes; ++lane) {
    matvec_avx512(pk, groups, n, x + lane * ldx, out + lane * ldo);
  }
}

// ---- Vector activation twins (see ml/activations.h) -------------------
//
// exp4/sigmoid4/tanh4 replay exp_act/sigmoid/tanh_act four elements at a
// time with the exact same IEEE op sequence (same reduction constants,
// same Horner order, plain mul/add under -ffp-contract=off, nearest-even
// rounding for the exponent split), so every element is bit-identical to
// the scalar call. Where the scalar code branches, the vector code
// computes both sides and blends — the selected lane value is the same.

__attribute__((target("avx2"))) inline __m256d exp4(__m256d x) {
  x = _mm256_min_pd(x, _mm256_set1_pd(kExpClamp));
  const __m256d under =
      _mm256_cmp_pd(x, _mm256_set1_pd(-kExpClamp), _CMP_LT_OQ);
  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kExpLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Lo)));
  // Estrin tree, the exact association of the scalar exp_act.
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d r8 = _mm256_mul_pd(r4, r4);
  const __m256d q0 = _mm256_add_pd(_mm256_set1_pd(1.0), r);
  const __m256d q1 = _mm256_add_pd(
      _mm256_set1_pd(0.5), _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 6.0)));
  const __m256d q2 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 24.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 120.0)));
  const __m256d q3 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 720.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 5040.0)));
  const __m256d q4 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 40320.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 362880.0)));
  const __m256d q5 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 3628800.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 39916800.0)));
  const __m256d q6 =
      _mm256_add_pd(_mm256_set1_pd(1.0 / 479001600.0),
                    _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 6227020800.0)));
  const __m256d lo = _mm256_add_pd(
      _mm256_add_pd(q0, _mm256_mul_pd(r2, q1)),
      _mm256_mul_pd(r4, _mm256_add_pd(q2, _mm256_mul_pd(r2, q3))));
  const __m256d hi = _mm256_add_pd(_mm256_add_pd(q4, _mm256_mul_pd(r2, q5)),
                                   _mm256_mul_pd(r4, q6));
  const __m256d p = _mm256_add_pd(lo, _mm256_mul_pd(r8, hi));
  // 2^k from exponent bits; k is integral and |k| <= 1022 after the
  // clamp, so the int32 hop is exact. Out-of-range lanes compute garbage
  // here and are masked to the scalar result (0.0) below.
  const __m128i ki = _mm256_cvtpd_epi32(k);
  const __m256i ke = _mm256_add_epi64(_mm256_cvtepi32_epi64(ki),
                                      _mm256_set1_epi64x(1023));
  const __m256d s = _mm256_castsi256_pd(_mm256_slli_epi64(ke, 52));
  return _mm256_andnot_pd(under, _mm256_mul_pd(p, s));
}

__attribute__((target("avx2"))) inline __m256d sigmoid4(__m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d a = _mm256_andnot_pd(sign, x);
  const __m256d e = exp4(_mm256_xor_pd(a, sign));  // exp(-|x|)
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
  const __m256d num = _mm256_blendv_pd(one, e, neg);
  return _mm256_div_pd(num, _mm256_add_pd(one, e));
}

__attribute__((target("avx2"))) inline __m256d tanh4(__m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d a = _mm256_andnot_pd(sign, x);
  const __m256d z = _mm256_mul_pd(x, x);
  __m256d p = _mm256_set1_pd(21844.0 / 6081075.0);
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(-1382.0 / 155925.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(62.0 / 2835.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(-17.0 / 315.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(2.0 / 15.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(-1.0 / 3.0));
  const __m256d small =
      _mm256_add_pd(x, _mm256_mul_pd(_mm256_mul_pd(x, z), p));
  const __m256d e = exp4(_mm256_mul_pd(_mm256_set1_pd(-2.0), a));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d r =
      _mm256_div_pd(_mm256_sub_pd(one, e), _mm256_add_pd(one, e));
  const __m256d big = _mm256_or_pd(r, _mm256_and_pd(x, sign));
  const __m256d use_small =
      _mm256_cmp_pd(a, _mm256_set1_pd(kTanhSmall), _CMP_LT_OQ);
  return _mm256_blendv_pd(big, small, use_small);
}

#endif  // ESIM_X86_DISPATCH

/// Portable batched fallback: no cross-lane amortization, one matvec per
/// lane (bit-identical by construction).
void matmul_scalar(const double* pk, std::size_t groups, std::size_t n,
                   const double* x, std::size_t ldx, std::size_t lanes,
                   double* out, std::size_t ldo) {
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    matvec_scalar(pk, groups, n, x + lane * ldx, out + lane * ldo);
  }
}

// ---- Gate combine + state advance, one lane ---------------------------
//
// The element-wise pass that turns combined gate rows into the next
// h/c: reference op order (see InferenceSession::combine_lstm). The
// scalar form is the twin of the AVX2 pass below — sigmoid/tanh_act are
// bit-identical between the two by construction — so the dispatch is,
// like the matmuls, purely a throughput decision.

void combine_lstm_scalar(const double* b, double* gi, const double* gh,
                         double* h, double* c, std::size_t H) {
  const std::size_t G = 4 * H;
  for (std::size_t j = 0; j < G; ++j) gi[j] = gi[j] + gh[j] + b[j];
  for (std::size_t u = 0; u < H; ++u) {
    const double gv = sigmoid(gi[u]);
    const double gf = sigmoid(gi[H + u]);
    const double gg = tanh_act(gi[2 * H + u]);
    const double go = sigmoid(gi[3 * H + u]);
    const double cv = gf * c[u] + gv * gg;
    const double tc = tanh_act(cv);
    c[u] = cv;
    h[u] = go * tc;
  }
}

void combine_gru_scalar(const double* bi, const double* bh, double* gi,
                        double* gh, double* h, std::size_t H) {
  const std::size_t G = 3 * H;
  for (std::size_t j = 0; j < G; ++j) {
    gi[j] += bi[j];
    gh[j] += bh[j];
  }
  for (std::size_t u = 0; u < H; ++u) {
    const double rv = sigmoid(gi[u] + gh[u]);
    const double zv = sigmoid(gi[H + u] + gh[H + u]);
    const double hl = gh[2 * H + u];
    const double nv = tanh_act(gi[2 * H + u] + rv * hl);
    h[u] = (1.0 - zv) * nv + zv * h[u];
  }
}

#ifdef ESIM_X86_DISPATCH

__attribute__((target("avx2"))) void combine_lstm_avx2(
    const double* b, double* gi, const double* gh, double* h, double* c,
    std::size_t H) {
  const std::size_t G = 4 * H;
  std::size_t j = 0;
  for (; j + 4 <= G; j += 4) {
    const __m256d v = _mm256_add_pd(
        _mm256_add_pd(_mm256_loadu_pd(gi + j), _mm256_loadu_pd(gh + j)),
        _mm256_loadu_pd(b + j));
    _mm256_storeu_pd(gi + j, v);
  }
  for (; j < G; ++j) gi[j] = gi[j] + gh[j] + b[j];
  std::size_t u = 0;
  for (; u + 4 <= H; u += 4) {
    const __m256d gv = sigmoid4(_mm256_loadu_pd(gi + u));
    const __m256d gf = sigmoid4(_mm256_loadu_pd(gi + H + u));
    const __m256d gg = tanh4(_mm256_loadu_pd(gi + 2 * H + u));
    const __m256d go = sigmoid4(_mm256_loadu_pd(gi + 3 * H + u));
    const __m256d cv = _mm256_add_pd(
        _mm256_mul_pd(gf, _mm256_loadu_pd(c + u)), _mm256_mul_pd(gv, gg));
    const __m256d tc = tanh4(cv);
    _mm256_storeu_pd(c + u, cv);
    _mm256_storeu_pd(h + u, _mm256_mul_pd(go, tc));
  }
  for (; u < H; ++u) {
    const double gv = sigmoid(gi[u]);
    const double gf = sigmoid(gi[H + u]);
    const double gg = tanh_act(gi[2 * H + u]);
    const double go = sigmoid(gi[3 * H + u]);
    const double cv = gf * c[u] + gv * gg;
    const double tc = tanh_act(cv);
    c[u] = cv;
    h[u] = go * tc;
  }
}

__attribute__((target("avx2"))) void combine_gru_avx2(
    const double* bi, const double* bh, double* gi, double* gh, double* h,
    std::size_t H) {
  const std::size_t G = 3 * H;
  std::size_t j = 0;
  for (; j + 4 <= G; j += 4) {
    _mm256_storeu_pd(gi + j, _mm256_add_pd(_mm256_loadu_pd(gi + j),
                                           _mm256_loadu_pd(bi + j)));
    _mm256_storeu_pd(gh + j, _mm256_add_pd(_mm256_loadu_pd(gh + j),
                                           _mm256_loadu_pd(bh + j)));
  }
  for (; j < G; ++j) {
    gi[j] += bi[j];
    gh[j] += bh[j];
  }
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t u = 0;
  for (; u + 4 <= H; u += 4) {
    const __m256d rv = sigmoid4(_mm256_add_pd(_mm256_loadu_pd(gi + u),
                                              _mm256_loadu_pd(gh + u)));
    const __m256d zv =
        sigmoid4(_mm256_add_pd(_mm256_loadu_pd(gi + H + u),
                               _mm256_loadu_pd(gh + H + u)));
    const __m256d hl = _mm256_loadu_pd(gh + 2 * H + u);
    const __m256d nv = tanh4(_mm256_add_pd(_mm256_loadu_pd(gi + 2 * H + u),
                                           _mm256_mul_pd(rv, hl)));
    const __m256d hv = _mm256_loadu_pd(h + u);
    _mm256_storeu_pd(
        h + u, _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(one, zv), nv),
                             _mm256_mul_pd(zv, hv)));
  }
  for (; u < H; ++u) {
    const double rv = sigmoid(gi[u] + gh[u]);
    const double zv = sigmoid(gi[H + u] + gh[H + u]);
    const double hl = gh[2 * H + u];
    const double nv = tanh_act(gi[2 * H + u] + rv * hl);
    h[u] = (1.0 - zv) * nv + zv * h[u];
  }
}

#endif  // ESIM_X86_DISPATCH

// ---- Training kernels ---------------------------------------------------

/// The reference loops themselves: each c element starts at +0.0 and
/// adds its non-skipped terms in p order.
void matmul_skip_zero_scalar(const double* a, std::size_t sa_i,
                             std::size_t sa_p, const double* b,
                             std::size_t m, std::size_t k, std::size_t n,
                             double* c) {
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * n;
    std::fill(crow, crow + n, 0.0);
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[i * sa_i + p * sa_p];
      if (av == 0.0) continue;
      const double* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Per batch row: the (gi + gh) + b association of LstmLayer::step, then
/// the activations and the c/h advance in the reference op order.
void lstm_forward_scalar(std::size_t rows, std::size_t H, const double* gi,
                         const double* gh, const double* b,
                         const double* c_prev, double* i, double* f,
                         double* g, double* o, double* c, double* tanh_c,
                         double* h) {
  const std::size_t G = 4 * H;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* x = gi + r * G;
    const double* y = gh + r * G;
    const std::size_t s = r * H;
    for (std::size_t u = 0; u < H; ++u) {
      const double gv = sigmoid((x[u] + y[u]) + b[u]);
      const double gf = sigmoid((x[H + u] + y[H + u]) + b[H + u]);
      const double gg = tanh_act((x[2 * H + u] + y[2 * H + u]) + b[2 * H + u]);
      const double go = sigmoid((x[3 * H + u] + y[3 * H + u]) + b[3 * H + u]);
      const double cv = gf * c_prev[s + u] + gv * gg;
      const double tc = tanh_act(cv);
      i[s + u] = gv;
      f[s + u] = gf;
      g[s + u] = gg;
      o[s + u] = go;
      c[s + u] = cv;
      tanh_c[s + u] = tc;
      h[s + u] = go * tc;
    }
  }
}

void gru_forward_scalar(std::size_t rows, std::size_t H, const double* gi,
                        const double* gh, const double* bi, const double* bh,
                        const double* h_prev, double* r, double* z,
                        double* n, double* hn_lin, double* h_new) {
  const std::size_t G = 3 * H;
  for (std::size_t row = 0; row < rows; ++row) {
    const double* x = gi + row * G;
    const double* y = gh + row * G;
    const std::size_t s = row * H;
    for (std::size_t u = 0; u < H; ++u) {
      const double rv = sigmoid((x[u] + bi[u]) + (y[u] + bh[u]));
      const double zv =
          sigmoid((x[H + u] + bi[H + u]) + (y[H + u] + bh[H + u]));
      const double hl = y[2 * H + u] + bh[2 * H + u];
      const double nv = tanh_act((x[2 * H + u] + bi[2 * H + u]) + rv * hl);
      r[s + u] = rv;
      z[s + u] = zv;
      n[s + u] = nv;
      hn_lin[s + u] = hl;
      h_new[s + u] = (1.0 - zv) * nv + zv * h_prev[s + u];
    }
  }
}

#ifdef ESIM_X86_DISPATCH

/// All-ones in the first `count` (<= 4) 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i lane_mask(std::size_t count) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(count)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

/// R rows x 8 columns of c: 2R independent ymm chains share every b load.
/// `a` points at A(i0, 0), `b` at column j0 of row 0 and `c` at (i0, j0);
/// masks m0/m1 select the live columns of a ragged right edge (masked
/// lanes are neither loaded nor stored).
template <int R>
__attribute__((target("avx2"))) void skip_zero_block_avx2(
    const double* a, std::size_t sa_i, std::size_t sa_p, const double* b,
    std::size_t k, std::size_t n, __m256i m0, __m256i m1, double* c) {
  __m256d lo[R];
  __m256d hi[R];
  for (int r = 0; r < R; ++r) {
    lo[r] = _mm256_setzero_pd();
    hi[r] = _mm256_setzero_pd();
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m256d b0 = _mm256_maskload_pd(b + p * n, m0);
    const __m256d b1 = _mm256_maskload_pd(b + p * n + 4, m1);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double av = a[r * sa_i + p * sa_p];
      if (av == 0.0) continue;
      const __m256d v = _mm256_set1_pd(av);
      lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(v, b0));
      hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(v, b1));
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_maskstore_pd(c + r * n, m0, lo[r]);
    _mm256_maskstore_pd(c + r * n + 4, m1, hi[r]);
  }
}

/// Column blocks of eight, row blocks of four; every (i, j) chain is the
/// scalar one, so the skip stays per (i, p) exactly as in the reference.
__attribute__((target("avx2"))) void matmul_skip_zero_avx2(
    const double* a, std::size_t sa_i, std::size_t sa_p, const double* b,
    std::size_t m, std::size_t k, std::size_t n, double* c) {
  for (std::size_t j = 0; j < n; j += 8) {
    const std::size_t w = std::min<std::size_t>(8, n - j);
    const __m256i m0 = lane_mask(std::min<std::size_t>(w, 4));
    const __m256i m1 = lane_mask(w > 4 ? w - 4 : 0);
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      skip_zero_block_avx2<4>(a + i * sa_i, sa_i, sa_p, b + j, k, n, m0, m1,
                              c + i * n + j);
    }
    const double* ai = a + i * sa_i;
    double* ci = c + i * n + j;
    switch (m - i) {
      case 3:
        skip_zero_block_avx2<3>(ai, sa_i, sa_p, b + j, k, n, m0, m1, ci);
        break;
      case 2:
        skip_zero_block_avx2<2>(ai, sa_i, sa_p, b + j, k, n, m0, m1, ci);
        break;
      case 1:
        skip_zero_block_avx2<1>(ai, sa_i, sa_p, b + j, k, n, m0, m1, ci);
        break;
      default:
        break;
    }
  }
}

/// (x[j..j+3] + y[j..j+3]) + b[j..j+3].
__attribute__((target("avx2"))) inline __m256d sum3(const double* x,
                                                    const double* y,
                                                    const double* b,
                                                    std::size_t j) {
  return _mm256_add_pd(
      _mm256_add_pd(_mm256_loadu_pd(x + j), _mm256_loadu_pd(y + j)),
      _mm256_loadu_pd(b + j));
}

/// x[j..j+3] + b[j..j+3].
__attribute__((target("avx2"))) inline __m256d sum2(const double* x,
                                                    const double* b,
                                                    std::size_t j) {
  return _mm256_add_pd(_mm256_loadu_pd(x + j), _mm256_loadu_pd(b + j));
}

/// lstm_forward_scalar four hidden units at a time on the activation
/// twins; a hidden size that is not a multiple of four finishes each row
/// on the scalar functions.
__attribute__((target("avx2"))) void lstm_forward_avx2(
    std::size_t rows, std::size_t H, const double* gi, const double* gh,
    const double* b, const double* c_prev, double* i, double* f, double* g,
    double* o, double* c, double* tanh_c, double* h) {
  const std::size_t G = 4 * H;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* x = gi + r * G;
    const double* y = gh + r * G;
    const std::size_t s = r * H;
    std::size_t u = 0;
    for (; u + 4 <= H; u += 4) {
      const __m256d gv = sigmoid4(sum3(x, y, b, u));
      const __m256d gf = sigmoid4(sum3(x, y, b, H + u));
      const __m256d gg = tanh4(sum3(x, y, b, 2 * H + u));
      const __m256d go = sigmoid4(sum3(x, y, b, 3 * H + u));
      const __m256d cv =
          _mm256_add_pd(_mm256_mul_pd(gf, _mm256_loadu_pd(c_prev + s + u)),
                        _mm256_mul_pd(gv, gg));
      const __m256d tc = tanh4(cv);
      _mm256_storeu_pd(i + s + u, gv);
      _mm256_storeu_pd(f + s + u, gf);
      _mm256_storeu_pd(g + s + u, gg);
      _mm256_storeu_pd(o + s + u, go);
      _mm256_storeu_pd(c + s + u, cv);
      _mm256_storeu_pd(tanh_c + s + u, tc);
      _mm256_storeu_pd(h + s + u, _mm256_mul_pd(go, tc));
    }
    for (; u < H; ++u) {
      const double gv = sigmoid((x[u] + y[u]) + b[u]);
      const double gf = sigmoid((x[H + u] + y[H + u]) + b[H + u]);
      const double gg = tanh_act((x[2 * H + u] + y[2 * H + u]) + b[2 * H + u]);
      const double go = sigmoid((x[3 * H + u] + y[3 * H + u]) + b[3 * H + u]);
      const double cv = gf * c_prev[s + u] + gv * gg;
      const double tc = tanh_act(cv);
      i[s + u] = gv;
      f[s + u] = gf;
      g[s + u] = gg;
      o[s + u] = go;
      c[s + u] = cv;
      tanh_c[s + u] = tc;
      h[s + u] = go * tc;
    }
  }
}

__attribute__((target("avx2"))) void gru_forward_avx2(
    std::size_t rows, std::size_t H, const double* gi, const double* gh,
    const double* bi, const double* bh, const double* h_prev, double* r,
    double* z, double* n, double* hn_lin, double* h_new) {
  const std::size_t G = 3 * H;
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::size_t row = 0; row < rows; ++row) {
    const double* x = gi + row * G;
    const double* y = gh + row * G;
    const std::size_t s = row * H;
    std::size_t u = 0;
    for (; u + 4 <= H; u += 4) {
      const __m256d rv =
          sigmoid4(_mm256_add_pd(sum2(x, bi, u), sum2(y, bh, u)));
      const __m256d zv =
          sigmoid4(_mm256_add_pd(sum2(x, bi, H + u), sum2(y, bh, H + u)));
      const __m256d hl = sum2(y, bh, 2 * H + u);
      const __m256d nv = tanh4(
          _mm256_add_pd(sum2(x, bi, 2 * H + u), _mm256_mul_pd(rv, hl)));
      const __m256d hp = _mm256_loadu_pd(h_prev + s + u);
      _mm256_storeu_pd(r + s + u, rv);
      _mm256_storeu_pd(z + s + u, zv);
      _mm256_storeu_pd(n + s + u, nv);
      _mm256_storeu_pd(hn_lin + s + u, hl);
      _mm256_storeu_pd(
          h_new + s + u,
          _mm256_add_pd(_mm256_mul_pd(_mm256_sub_pd(one, zv), nv),
                        _mm256_mul_pd(zv, hp)));
    }
    for (; u < H; ++u) {
      const double rv = sigmoid((x[u] + bi[u]) + (y[u] + bh[u]));
      const double zv =
          sigmoid((x[H + u] + bi[H + u]) + (y[H + u] + bh[H + u]));
      const double hl = y[2 * H + u] + bh[2 * H + u];
      const double nv = tanh_act((x[2 * H + u] + bi[2 * H + u]) + rv * hl);
      r[s + u] = rv;
      z[s + u] = zv;
      n[s + u] = nv;
      hn_lin[s + u] = hl;
      h_new[s + u] = (1.0 - zv) * nv + zv * h_prev[s + u];
    }
  }
}

#endif  // ESIM_X86_DISPATCH

// ---- Dispatch -----------------------------------------------------------

enum class Isa { Scalar, Avx2, Avx512 };

/// Picks the widest kernel set the CPU supports; every variant is
/// bit-identical, so this is purely a throughput decision. AVX2 is
/// preferred over AVX-512 by default: the 512-bit license downclock on
/// server parts slows the transcendental pass that shares the step,
/// costing more than the wider vectors win. ESIM_INFERENCE_ISA
/// (scalar|avx2|avx512) overrides, mainly so tests and benches can pin a
/// variant; an unsupported or unknown value means scalar.
Isa detect_isa() {
#ifdef ESIM_X86_DISPATCH
  const char* force = std::getenv("ESIM_INFERENCE_ISA");
  if (force != nullptr && force[0] != '\0') {
    const std::string_view v{force};
    if (v == "avx512" && __builtin_cpu_supports("avx512f")) {
      return Isa::Avx512;
    }
    if (v == "avx2" && __builtin_cpu_supports("avx2")) return Isa::Avx2;
    return Isa::Scalar;
  }
  if (__builtin_cpu_supports("avx2")) return Isa::Avx2;
  if (__builtin_cpu_supports("avx512f")) return Isa::Avx512;
#endif
  return Isa::Scalar;
}

const Isa g_isa = detect_isa();

}  // namespace

// Only the dot-product kernels have AVX-512 variants. The element-wise
// passes and the zero-skip matmul run their AVX2 form in AVX-512 mode
// (every AVX-512F CPU has AVX2): they would not win from 512-bit
// registers what the license downclock costs.
#ifdef ESIM_X86_DISPATCH
#define ESIM_PICK(scalar, avx2, avx512)   \
  (g_isa == Isa::Avx512 ? (avx512)        \
   : g_isa == Isa::Avx2 ? (avx2)          \
                        : (scalar))
#else
#define ESIM_PICK(scalar, avx2, avx512) (scalar)
#endif

const MatvecFn matvec = ESIM_PICK(matvec_scalar, matvec_avx2, matvec_avx512);
const MatmulFn matmul_packed =
    ESIM_PICK(matmul_scalar, matmul_avx2, matmul_avx512);
const MatmulSkipZeroFn matmul_skip_zero =
    ESIM_PICK(matmul_skip_zero_scalar, matmul_skip_zero_avx2,
              matmul_skip_zero_avx2);
const CombineLstmFn combine_lstm =
    ESIM_PICK(combine_lstm_scalar, combine_lstm_avx2, combine_lstm_avx2);
const CombineGruFn combine_gru =
    ESIM_PICK(combine_gru_scalar, combine_gru_avx2, combine_gru_avx2);
const LstmForwardFn lstm_forward =
    ESIM_PICK(lstm_forward_scalar, lstm_forward_avx2, lstm_forward_avx2);
const GruForwardFn gru_forward =
    ESIM_PICK(gru_forward_scalar, gru_forward_avx2, gru_forward_avx2);

#undef ESIM_PICK

const char* isa_name() {
  switch (g_isa) {
    case Isa::Avx2:
      return "avx2";
    case Isa::Avx512:
      return "avx512";
    case Isa::Scalar:
      break;
  }
  return "scalar";
}

void pack_rows(const double* w, std::size_t groups, std::size_t n,
               double* pk) {
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t r = 0; r < kGroup; ++r) {
        pk[g * kGroup * n + p * kGroup + r] = w[(g * kGroup + r) * n + p];
      }
    }
  }
}

}  // namespace esim::ml::kernels
