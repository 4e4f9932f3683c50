// Runtime-dispatched numeric kernels shared by training (ml/tensor.cc,
// ml/lstm.cc, ml/gru.cc) and inference (ml/inference.cc). DESIGN.md §8.
//
// Every kernel computes each output scalar with the same sequence of IEEE
// operations, in the same order, as the naive scalar loop it replaces:
// a dot product is one serial `s += x[p] * w[p]` chain from s = +0.0 in
// p order, and vector lanes only ever run *independent* outputs side by
// side. So the scalar, AVX2 and AVX-512 variants agree to the last bit on
// every input, and the dispatch is purely a throughput decision. The
// variant is chosen once at static initialization: AVX2 when the CPU has
// it, then AVX-512F, else scalar; ESIM_INFERENCE_ISA=scalar|avx2|avx512
// pins one (tests and benches use this). Kernel translation units are
// compiled with -ffp-contract=off so no multiply-add is ever fused.
#pragma once

#include <cstddef>

namespace esim::ml::kernels {

/// Rows per packed weight group.
inline constexpr std::size_t kGroup = 8;

/// Name of the dispatched variant: "scalar", "avx2" or "avx512".
const char* isa_name();

/// Single-row dot with the reference summation order.
inline double dot(const double* w, std::size_t n, const double* x) {
  double s = 0.0;
  for (std::size_t p = 0; p < n; ++p) s += x[p] * w[p];
  return s;
}

/// Packs rows [0, groups*8) of a row-major [rows x n] matrix in groups of
/// eight, column-interleaved: pk[g*8n + p*8 + r] = w[(8g + r)*n + p].
void pack_rows(const double* w, std::size_t groups, std::size_t n,
               double* pk);

/// out[g*8 + r] = dot(row 8g+r, x) over `groups` packed groups.
using MatvecFn = void (*)(const double* pk, std::size_t groups,
                          std::size_t n, const double* x, double* out);

/// `lanes` input rows (stride ldx) against one packed weight block;
/// output rows at stride ldo. The batched analogue of MatvecFn: weights
/// stream once per lane tile instead of once per lane.
using MatmulFn = void (*)(const double* pk, std::size_t groups,
                          std::size_t n, const double* x, std::size_t ldx,
                          std::size_t lanes, double* out, std::size_t ldo);

/// c[m x n] (row-major, fully written) = sum over p of A(i,p) * b[p][j],
/// where A(i,p) = a[i*sa_i + p*sa_p] and b is row-major [k x n]. Each
/// element starts at +0.0 and adds its terms in p order, skipping terms
/// whose A(i,p) == 0.0 (either sign) — the reference loops skip them, and
/// the skip is observable when b holds inf or NaN. matmul (sa_i = k,
/// sa_p = 1) and matmul_tn (sa_i = 1, sa_p = m) both run on it.
using MatmulSkipZeroFn = void (*)(const double* a, std::size_t sa_i,
                                  std::size_t sa_p, const double* b,
                                  std::size_t m, std::size_t k,
                                  std::size_t n, double* c);

/// One lane's LSTM gate combine + state advance (inference): gi becomes
/// (gi + gh) + b in place, then c/h advance as in LstmLayer::step.
using CombineLstmFn = void (*)(const double* b, double* gi, const double* gh,
                               double* h, double* c, std::size_t H);

/// One lane's GRU combine: gi += bi, gh += bh in place, then h advances
/// as in GruLayer::step.
using CombineGruFn = void (*)(const double* bi, const double* bh, double* gi,
                              double* gh, double* h, std::size_t H);

/// Training forward gate pass of LstmLayer::step over `rows` batch rows.
/// gi/gh are [rows x 4H] (x W_ih^T, h W_hh^T), b is [4H], c_prev [rows x
/// H]; writes the post-activation gates i/f/g/o, the new cell c, tanh(c)
/// and h = o * tanh(c), each [rows x H].
using LstmForwardFn = void (*)(std::size_t rows, std::size_t H,
                               const double* gi, const double* gh,
                               const double* b, const double* c_prev,
                               double* i, double* f, double* g, double* o,
                               double* c, double* tanh_c, double* h);

/// Training forward gate pass of GruLayer::step over `rows` batch rows.
/// gi/gh are [rows x 3H] (x W_ih^T, h W_hh^T), bi/bh are [3H] and are
/// added first (gi + bi, gh + bh); h_prev is [rows x H]. Writes r, z, n,
/// hn_lin (the biased n block of gh) and h_new, each [rows x H].
using GruForwardFn = void (*)(std::size_t rows, std::size_t H,
                              const double* gi, const double* gh,
                              const double* bi, const double* bh,
                              const double* h_prev, double* r, double* z,
                              double* n, double* hn_lin, double* h_new);

extern const MatvecFn matvec;
extern const MatmulFn matmul_packed;
extern const MatmulSkipZeroFn matmul_skip_zero;
extern const CombineLstmFn combine_lstm;
extern const CombineGruFn combine_gru;
extern const LstmForwardFn lstm_forward;
extern const GruForwardFn gru_forward;

}  // namespace esim::ml::kernels
