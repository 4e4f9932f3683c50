#include "ml/lstm.h"

#include <stdexcept>

#include "ml/activations.h"
#include "ml/kernels.h"

namespace esim::ml {

LstmLayer::LstmLayer(std::size_t input, std::size_t hidden, sim::Rng& rng)
    : input_{input},
      hidden_{hidden},
      w_ih_{4 * hidden, input},
      w_hh_{4 * hidden, hidden},
      b_{1, 4 * hidden},
      gw_ih_{4 * hidden, input},
      gw_hh_{4 * hidden, hidden},
      gb_{1, 4 * hidden} {
  if (input == 0 || hidden == 0) {
    throw std::invalid_argument("LstmLayer: zero dimension");
  }
  w_ih_.fill_xavier(rng);
  w_hh_.fill_xavier(rng);
  // Forget-gate bias starts at 1 so early training does not forget.
  for (std::size_t j = hidden_; j < 2 * hidden_; ++j) b_.at(0, j) = 1.0;
}

LstmLayer::State LstmLayer::initial_state(std::size_t batch) const {
  return State{Tensor{batch, hidden_}, Tensor{batch, hidden_}};
}

Tensor LstmLayer::step(Tensor x, State& state, StepCache* cache) const {
  const std::size_t B = x.rows();
  const std::size_t H = hidden_;

  const Tensor gi = matmul_nt(x, w_ih_);        // [B x 4H]
  const Tensor gh = matmul_nt(state.h, w_hh_);  // [B x 4H]
  Tensor i{B, H}, f{B, H}, g{B, H}, o{B, H}, c{B, H}, tanh_c{B, H}, h{B, H};
  kernels::lstm_forward(B, H, gi.data(), gh.data(), b_.data(),
                        state.c.data(), i.data(), f.data(), g.data(),
                        o.data(), c.data(), tanh_c.data(), h.data());

  if (cache != nullptr) {
    cache->x = std::move(x);
    cache->h_prev = std::move(state.h);
    cache->c_prev = std::move(state.c);
    cache->i = std::move(i);
    cache->f = std::move(f);
    cache->g = std::move(g);
    cache->o = std::move(o);
    cache->c = c;
    cache->tanh_c = std::move(tanh_c);
  }
  state.h = h;
  state.c = std::move(c);
  return h;
}

LstmLayer::StepGrad LstmLayer::step_backward(const StepCache& cache,
                                             const Tensor& dh,
                                             const Tensor& dc) {
  const std::size_t B = dh.rows();
  const std::size_t H = hidden_;

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

  gw_ih_.add(matmul_tn(dgates, cache.x));
  gw_hh_.add(matmul_tn(dgates, cache.h_prev));
  for (std::size_t r = 0; r < B; ++r) {
    for (std::size_t j = 0; j < 4 * H; ++j) {
      gb_.at(0, j) += dgates.at(r, j);
    }
  }

  StepGrad out;
  out.dx = matmul(dgates, w_ih_);
  out.dh_prev = matmul(dgates, w_hh_);
  out.dc_prev = std::move(dc_prev);
  return out;
}

std::vector<Parameter> LstmLayer::parameters() {
  return {{"w_ih", &w_ih_, &gw_ih_},
          {"w_hh", &w_hh_, &gw_hh_},
          {"b", &b_, &gb_}};
}

Lstm::Lstm(std::size_t input, std::size_t hidden, std::size_t num_layers,
           sim::Rng& rng) {
  if (num_layers == 0) throw std::invalid_argument("Lstm: zero layers");
  layers_.reserve(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    layers_.emplace_back(l == 0 ? input : hidden, hidden, rng);
  }
}

Lstm::State Lstm::initial_state(std::size_t batch) const {
  State s;
  s.layers.reserve(layers_.size());
  for (const auto& layer : layers_) {
    s.layers.push_back(layer.initial_state(batch));
  }
  return s;
}

Tensor Lstm::step(const Tensor& x, State& state) const {
  Tensor h = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l].step(std::move(h), state.layers[l], nullptr);
  }
  return h;
}

std::vector<Tensor> Lstm::forward(const std::vector<Tensor>& xs,
                                  State& state,
                                  SequenceCache& cache) const {
  cache.steps.assign(xs.size(),
                     std::vector<LstmLayer::StepCache>(layers_.size()));
  std::vector<Tensor> hs;
  hs.reserve(xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    Tensor h = xs[t];
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      h = layers_[l].step(std::move(h), state.layers[l],
                          &cache.steps[t][l]);
    }
    hs.push_back(std::move(h));
  }
  return hs;
}

void Lstm::backward(const SequenceCache& cache,
                    const std::vector<Tensor>& dhs) {
  if (cache.steps.size() != dhs.size()) {
    throw std::invalid_argument("Lstm::backward: length mismatch");
  }
  if (cache.steps.empty()) return;
  const std::size_t T = cache.steps.size();
  const std::size_t L = layers_.size();
  const std::size_t B = dhs.front().rows();

  // Running gradients entering each layer's (h, c) from the future.
  std::vector<Tensor> dh_next(L), dc_next(L);
  for (std::size_t l = 0; l < L; ++l) {
    dh_next[l] = Tensor{B, layers_[l].hidden_size()};
    dc_next[l] = Tensor{B, layers_[l].hidden_size()};
  }

  for (std::size_t t = T; t-- > 0;) {
    // Gradient flowing into the top layer at step t: loss + future.
    Tensor dh_down = dhs[t];
    for (std::size_t l = L; l-- > 0;) {
      Tensor dh = std::move(dh_down);
      dh.add(dh_next[l]);
      auto grad = layers_[l].step_backward(cache.steps[t][l], dh,
                                           dc_next[l]);
      dh_next[l] = std::move(grad.dh_prev);
      dc_next[l] = std::move(grad.dc_prev);
      dh_down = std::move(grad.dx);  // becomes dh for the layer below
    }
  }
}

std::vector<Parameter> Lstm::parameters() {
  std::vector<Parameter> out;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (auto& p : layers_[l].parameters()) {
      out.push_back(
          Parameter{"l" + std::to_string(l) + "." + p.name, p.value,
                    p.grad});
    }
  }
  return out;
}

}  // namespace esim::ml
