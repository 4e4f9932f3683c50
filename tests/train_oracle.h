// Test-support oracle: the plain scalar training math that the ml
// kernels replaced — the naive matrix products, the LSTM/GRU layer steps
// and their backward passes, the linear heads — and the micro-model
// trainer built on it. The production path must reproduce it bit for bit
// (tests/train_kernels_test.cc, bench/bench_inference --train).
//
// Only the rewritten math is copied here. Losses, the optimizer, the
// activation functions and the inference session are shared with the
// production code: they did not change.
#pragma once

#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "approx/dataset.h"
#include "approx/features.h"
#include "approx/micro_model.h"
#include "approx/trainer.h"
#include "ml/activations.h"
#include "ml/loss.h"
#include "ml/module.h"
#include "ml/optimizer.h"
#include "ml/tensor.h"
#include "sim/random.h"

namespace esim::oracle {

using ml::Tensor;

// ---- Matrix products ----------------------------------------------------

inline Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c{a.rows(), b.cols()};
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a.at(i, p);
      if (av == 0.0) continue;
      const double* brow = b.data() + p * n;
      double* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

inline Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c{a.rows(), b.rows()};
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.data() + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const double* brow = b.data() + j * k;
      double s = 0;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      c.at(i, j) = s;
    }
  }
  return c;
}

inline Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c{a.cols(), b.cols()};
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a.data() + p * m;
    const double* brow = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

inline void add_row_bias(Tensor& m, const Tensor& bias) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* row = m.data() + i * m.cols();
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] += bias.at(0, j);
  }
}

// ---- Layers ---------------------------------------------------------------

/// One recurrent layer's parameters (values + gradient accumulators).
/// LSTM layers use `b`; GRU layers use `b` for b_ih and `b_hh`.
struct LayerParams {
  ml::Parameter w_ih, w_hh, b, b_hh;
};

struct StepCache {
  Tensor x, h_prev, c_prev;
  Tensor i, f, g, o, c, tanh_c;  // LSTM
  Tensor r, z, n, hn_lin;        // GRU
};

inline Tensor lstm_step(const LayerParams& p, const Tensor& x, Tensor& h,
                        Tensor& cstate, StepCache* cache) {
  const std::size_t B = x.rows();
  const std::size_t H = h.cols();
  using ml::sigmoid;
  using ml::tanh_act;

  Tensor gates = oracle::matmul_nt(x, *p.w_ih.value);
  gates.add(oracle::matmul_nt(h, *p.w_hh.value));
  oracle::add_row_bias(gates, *p.b.value);

  Tensor i{B, H}, f{B, H}, g{B, H}, o{B, H}, c{B, H}, tanh_c{B, H};
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t j = 0; j < H; ++j) {
      const double gi = sigmoid(gates.at(r, j));
      const double gf = sigmoid(gates.at(r, H + j));
      const double gg = tanh_act(gates.at(r, 2 * H + j));
      const double go = sigmoid(gates.at(r, 3 * H + j));
      const double cv = gf * cstate.at(r, j) + gi * gg;
      const double tc = tanh_act(cv);
      i.at(r, j) = gi;
      f.at(r, j) = gf;
      g.at(r, j) = gg;
      o.at(r, j) = go;
      c.at(r, j) = cv;
      tanh_c.at(r, j) = tc;
    }
  }
  Tensor hn{B, H};
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t j = 0; j < H; ++j) {
      hn.at(r, j) = o.at(r, j) * tanh_c.at(r, j);
    }
  }
  if (cache != nullptr) {
    cache->x = x;
    cache->h_prev = h;
    cache->c_prev = cstate;
    cache->i = i;
    cache->f = f;
    cache->g = g;
    cache->o = o;
    cache->c = c;
    cache->tanh_c = tanh_c;
  }
  h = hn;
  cstate = c;
  return hn;
}

/// Returns dx; updates dh/dc in place to the gradients w.r.t. the
/// previous state.
inline Tensor lstm_step_backward(const LayerParams& p, const StepCache& cache,
                                 Tensor& dh, Tensor& dc) {
  const std::size_t B = dh.rows();
  const std::size_t H = dh.cols();
  using ml::dsigmoid_from_value;
  using ml::dtanh_from_value;

  Tensor dgates{B, 4 * H};
  Tensor dc_prev{B, H};
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t j = 0; j < H; ++j) {
      const double i = cache.i.at(r, j);
      const double f = cache.f.at(r, j);
      const double g = cache.g.at(r, j);
      const double o = cache.o.at(r, j);
      const double tc = cache.tanh_c.at(r, j);
      const double dh_v = dh.at(r, j);
      const double dct = dc.at(r, j) + dh_v * o * dtanh_from_value(tc);
      const double do_v = dh_v * tc;
      const double di = dct * g;
      const double dg = dct * i;
      const double df = dct * cache.c_prev.at(r, j);
      dgates.at(r, j) = di * dsigmoid_from_value(i);
      dgates.at(r, H + j) = df * dsigmoid_from_value(f);
      dgates.at(r, 2 * H + j) = dg * dtanh_from_value(g);
      dgates.at(r, 3 * H + j) = do_v * dsigmoid_from_value(o);
      dc_prev.at(r, j) = dct * f;
    }
  }
  p.w_ih.grad->add(oracle::matmul_tn(dgates, cache.x));
  p.w_hh.grad->add(oracle::matmul_tn(dgates, cache.h_prev));
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t j = 0; j < 4 * H; ++j) {
      p.b.grad->at(0, j) += dgates.at(r, j);
    }
  }
  dh = oracle::matmul(dgates, *p.w_hh.value);
  dc = std::move(dc_prev);
  return oracle::matmul(dgates, *p.w_ih.value);
}

inline Tensor gru_step(const LayerParams& p, const Tensor& x, Tensor& h,
                       StepCache* cache) {
  const std::size_t B = x.rows();
  const std::size_t H = h.cols();
  using ml::sigmoid;
  using ml::tanh_act;

  Tensor gi = oracle::matmul_nt(x, *p.w_ih.value);
  oracle::add_row_bias(gi, *p.b.value);
  Tensor gh = oracle::matmul_nt(h, *p.w_hh.value);
  oracle::add_row_bias(gh, *p.b_hh.value);

  Tensor r{B, H}, z{B, H}, n{B, H}, hn_lin{B, H}, h_new{B, H};
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t j = 0; j < H; ++j) {
      const double rv = sigmoid(gi.at(b, j) + gh.at(b, j));
      const double zv = sigmoid(gi.at(b, H + j) + gh.at(b, H + j));
      const double hl = gh.at(b, 2 * H + j);
      const double nv = tanh_act(gi.at(b, 2 * H + j) + rv * hl);
      r.at(b, j) = rv;
      z.at(b, j) = zv;
      n.at(b, j) = nv;
      hn_lin.at(b, j) = hl;
      h_new.at(b, j) = (1.0 - zv) * nv + zv * h.at(b, j);
    }
  }
  if (cache != nullptr) {
    cache->x = x;
    cache->h_prev = h;
    cache->r = r;
    cache->z = z;
    cache->n = n;
    cache->hn_lin = hn_lin;
  }
  h = h_new;
  return h_new;
}

/// Returns dx; replaces dh with the gradient w.r.t. the previous state.
inline Tensor gru_step_backward(const LayerParams& p, const StepCache& cache,
                                Tensor& dh) {
  const std::size_t B = dh.rows();
  const std::size_t H = dh.cols();
  using ml::dsigmoid_from_value;
  using ml::dtanh_from_value;

  Tensor dgi{B, 3 * H};
  Tensor dgh{B, 3 * H};
  Tensor dh_prev_direct{B, H};
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t j = 0; j < H; ++j) {
      const double r = cache.r.at(b, j);
      const double z = cache.z.at(b, j);
      const double n = cache.n.at(b, j);
      const double hl = cache.hn_lin.at(b, j);
      const double hp = cache.h_prev.at(b, j);
      const double g = dh.at(b, j);
      const double dz = g * (hp - n);
      const double dn = g * (1.0 - z);
      dh_prev_direct.at(b, j) = g * z;
      const double dan = dn * dtanh_from_value(n);
      const double dr = dan * hl;
      const double dhl = dan * r;
      const double daz = dz * dsigmoid_from_value(z);
      const double dar = dr * dsigmoid_from_value(r);
      dgi.at(b, j) = dar;
      dgi.at(b, H + j) = daz;
      dgi.at(b, 2 * H + j) = dan;
      dgh.at(b, j) = dar;
      dgh.at(b, H + j) = daz;
      dgh.at(b, 2 * H + j) = dhl;
    }
  }
  p.w_ih.grad->add(oracle::matmul_tn(dgi, cache.x));
  p.w_hh.grad->add(oracle::matmul_tn(dgh, cache.h_prev));
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t j = 0; j < 3 * H; ++j) {
      p.b.grad->at(0, j) += dgi.at(b, j);
      p.b_hh.grad->at(0, j) += dgh.at(b, j);
    }
  }
  dh = oracle::matmul(dgh, *p.w_hh.value);
  dh.add(dh_prev_direct);
  return oracle::matmul(dgi, *p.w_ih.value);
}

inline Tensor linear_forward(const ml::Parameter& w, const ml::Parameter& b,
                             const Tensor& x) {
  Tensor y = oracle::matmul_nt(x, *w.value);
  oracle::add_row_bias(y, *b.value);
  return y;
}

inline Tensor linear_backward(const ml::Parameter& w, const ml::Parameter& b,
                              const Tensor& x, const Tensor& dy) {
  w.grad->add(oracle::matmul_tn(dy, x));
  for (std::size_t i = 0; i < dy.rows(); ++i) {
    for (std::size_t j = 0; j < dy.cols(); ++j) {
      b.grad->at(0, j) += dy.at(i, j);
    }
  }
  return oracle::matmul(dy, *w.value);
}

// ---- Micro model ------------------------------------------------------------

/// A MicroModel's parameters, grouped for the oracle math. Points into
/// the model, which must outlive it.
struct ModelParams {
  ml::TrunkKind kind = ml::TrunkKind::Lstm;
  std::size_t hidden = 0;
  std::vector<LayerParams> layers;
  ml::Parameter drop_w, drop_b, lat_w, lat_b;

  explicit ModelParams(approx::MicroModel& model)
      : kind{model.config().trunk}, hidden{model.config().hidden} {
    std::map<std::string, ml::Parameter> by_name;
    for (const auto& p : model.parameters()) by_name[p.name] = p;
    const auto get = [&](const std::string& name) {
      const auto it = by_name.find(name);
      if (it == by_name.end()) {
        throw std::logic_error("oracle: missing parameter " + name);
      }
      return it->second;
    };
    for (std::size_t l = 0; l < model.config().layers; ++l) {
      const std::string pre = "trunk.l" + std::to_string(l) + ".";
      LayerParams lp;
      lp.w_ih = get(pre + "w_ih");
      lp.w_hh = get(pre + "w_hh");
      if (kind == ml::TrunkKind::Lstm) {
        lp.b = get(pre + "b");
      } else {
        lp.b = get(pre + "b_ih");
        lp.b_hh = get(pre + "b_hh");
      }
      layers.push_back(lp);
    }
    drop_w = get("drop.w");
    drop_b = get("drop.b");
    lat_w = get("latency.w");
    lat_b = get("latency.b");
  }
};

/// The micro-model trainer on the oracle math: one SGD step per batch,
/// batches sampled exactly as approx::train_micro_model samples them,
/// then the same re-snapshot and evaluation sweep.
inline approx::TrainReport train_micro_model(
    approx::MicroModel& model, const approx::Dataset& dataset,
    const approx::TrainConfig& config) {
  constexpr std::size_t kDim = approx::PacketFeatures::kDim;
  const std::size_t N = dataset.size();
  const std::size_t T = config.seq_len;
  const std::size_t B = config.batch_size;
  model.set_latency_normalization(dataset.mean_log_us, dataset.std_log_us);
  ml::SgdMomentum::Config ocfg;
  ocfg.learning_rate = config.learning_rate;
  ocfg.momentum = config.momentum;
  ocfg.clip_norm = config.clip_norm;
  ml::SgdMomentum opt{model, ocfg};
  const ModelParams mp{model};
  const std::size_t L = mp.layers.size();
  const std::size_t H = mp.hidden;
  const bool lstm = mp.kind == ml::TrunkKind::Lstm;

  sim::Rng rng{config.seed};
  approx::TrainReport report;
  report.dataset_size = N;
  for (std::size_t batch = 0; batch < config.batches; ++batch) {
    std::vector<std::size_t> starts(B);
    for (auto& s : starts) s = rng.uniform_int(N - T);
    std::vector<Tensor> xs(T), drop_t(T), lat_t(T), mask_t(T);
    for (std::size_t t = 0; t < T; ++t) {
      xs[t] = Tensor{B, kDim};
      drop_t[t] = Tensor{B, 1};
      lat_t[t] = Tensor{B, 1};
      mask_t[t] = Tensor{B, 1};
      for (std::size_t b = 0; b < B; ++b) {
        const std::size_t row = starts[b] + t;
        for (std::size_t k = 0; k < kDim; ++k) {
          xs[t].at(b, k) = dataset.features[row].v[k];
        }
        const double dropped = dataset.drop_targets[row];
        drop_t[t].at(b, 0) = dropped;
        mask_t[t].at(b, 0) = dropped > 0.5 ? 0.0 : 1.0;
        lat_t[t].at(b, 0) =
            dropped > 0.5
                ? 0.0
                : (dataset.latency_log_us[row] - dataset.mean_log_us) /
                      dataset.std_log_us;
      }
    }

    // Forward through the stack, caching every step.
    std::vector<Tensor> h(L, Tensor{B, H}), c(L, Tensor{B, H});
    std::vector<std::vector<StepCache>> caches(T, std::vector<StepCache>(L));
    std::vector<Tensor> hs;
    for (std::size_t t = 0; t < T; ++t) {
      Tensor x = xs[t];
      for (std::size_t l = 0; l < L; ++l) {
        x = lstm ? lstm_step(mp.layers[l], x, h[l], c[l], &caches[t][l])
                 : gru_step(mp.layers[l], x, h[l], &caches[t][l]);
      }
      hs.push_back(std::move(x));
    }

    double drop_loss = 0.0, lat_loss = 0.0;
    std::vector<Tensor> dhs(T);
    for (std::size_t t = 0; t < T; ++t) {
      const Tensor logits = linear_forward(mp.drop_w, mp.drop_b, hs[t]);
      const Tensor lat_pred = linear_forward(mp.lat_w, mp.lat_b, hs[t]);
      Tensor dlogits, dlat;
      drop_loss += ml::bce_with_logits(logits, drop_t[t], &dlogits) /
                   static_cast<double>(T);
      lat_loss += ml::masked_mse(lat_pred, lat_t[t], mask_t[t], &dlat) /
                  static_cast<double>(T);
      dlogits.scale(1.0 / static_cast<double>(T));
      dlat.scale(config.alpha / static_cast<double>(T));
      dhs[t] = linear_backward(mp.drop_w, mp.drop_b, hs[t], dlogits);
      dhs[t].add(linear_backward(mp.lat_w, mp.lat_b, hs[t], dlat));
    }

    // BPTT, mirroring ml::Lstm::backward / ml::Gru::backward.
    std::vector<Tensor> dh_next(L, Tensor{B, H}), dc_next(L, Tensor{B, H});
    for (std::size_t t = T; t-- > 0;) {
      Tensor dh_down = dhs[t];
      for (std::size_t l = L; l-- > 0;) {
        Tensor dh = std::move(dh_down);
        dh.add(dh_next[l]);
        if (lstm) {
          dh_down = lstm_step_backward(mp.layers[l], caches[t][l], dh,
                                       dc_next[l]);
        } else {
          dh_down = gru_step_backward(mp.layers[l], caches[t][l], dh);
        }
        dh_next[l] = std::move(dh);
      }
    }
    opt.step();
    opt.zero_grad();

    const double loss = drop_loss + config.alpha * lat_loss;
    if (batch == 0) report.initial_loss = loss;
    report.final_loss = loss;
    report.final_drop_loss = drop_loss;
    report.final_latency_loss = lat_loss;
  }

  model.recompile();
  model.reset_state();
  std::size_t correct = 0, delivered = 0;
  double mae = 0.0;
  for (std::size_t i = 0; i < N; ++i) {
    const auto pred = model.predict(dataset.features[i]);
    const bool was_drop = dataset.drop_targets[i] > 0.5;
    if ((pred.drop_probability > 0.5) == was_drop) ++correct;
    if (!was_drop) {
      const double target_norm =
          (dataset.latency_log_us[i] - dataset.mean_log_us) /
          dataset.std_log_us;
      mae += std::abs(model.normalize_latency(pred.latency_seconds) -
                      target_norm);
      ++delivered;
    }
  }
  report.drop_accuracy =
      static_cast<double>(correct) / static_cast<double>(N);
  report.latency_mae =
      delivered == 0 ? 0.0 : mae / static_cast<double>(delivered);
  model.reset_state();
  return report;
}

}  // namespace esim::oracle
