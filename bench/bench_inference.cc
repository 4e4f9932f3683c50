// Inference-path benchmark (DESIGN.md §8): MicroModel packets/s through
// the compiled InferenceSession (predict) vs the naive Tensor step path
// (predict_reference), for both trunk kinds across hidden sizes.
//
// The session must be *bit-identical* to the reference — the speedup
// comes from the workspace plan (no per-step allocation, no intermediate
// tensors) and the packed per-lane SIMD kernels, not from reordering
// floating-point math. The bench cross-checks identity on every config
// and fails (exit 1) on any mismatch, so a perf regression can never hide
// a correctness one.
//
// A second phase sweeps cross-packet batched inference (DESIGN.md §8):
// lanes mode (set_lane_count + predict_lanes, N independent streams, both
// matmuls amortize the weight stream) and sequence mode
// (MicroModel::predict_batch, one stream coalesced N timesteps at a
// time), for N in {1, 4, 16, 64}. N = 1 must stay bit-identical to the
// per-packet session path, and every batched prediction is cross-checked
// against independent single-lane sessions.
//
// A third phase runs a small hybrid simulation through ApproxCluster with
// telemetry on: session vs Config::reference_inference (the
// approx.inference_ns means), plus batching on vs off (observables must
// match exactly — the coalesced queue may not change the simulation).
//
// A fourth phase times training: ns per batch of approx::train_micro_model
// on the packed kernels against the scalar oracle of tests/train_oracle.h,
// LSTM/GRU x hidden 16/32/64, median and range over repeated runs from
// identical initial weights. The trained weights must match bit for bit.
//
// Writes machine-readable BENCH_inference.json into the working directory
// (format documented in EXPERIMENTS.md). `--batch` runs only the batched
// phases and `--train` only the training phase, both at reduced scale
// (the sanitizer smokes in scripts/check.sh use them).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "approx/dataset.h"
#include "approx/features.h"
#include "approx/micro_model.h"
#include "approx/trainer.h"
#include "bench_common.h"
#include "core/experiment.h"
#include "ml/inference.h"
#include "ml/kernels.h"
#include "ml/linear.h"
#include "ml/sequence_model.h"
#include "sim/random.h"
#include "telemetry/report.h"
#include "train_oracle.h"

namespace {

using esim::approx::MicroModel;
using esim::approx::PacketFeatures;
using esim::bench::print_header;
using esim::bench::print_note;
using esim::bench::quick_mode;
using esim::bench::Spread;
using esim::bench::spread_of;
using esim::ml::TrunkKind;

namespace sim = esim::sim;

/// Deterministic synthetic feature stream: shaped like FeatureExtractor
/// output (ids, gaps, size, macro one-hot) but driven straight from an
/// Rng so the bench measures inference alone.
std::vector<PacketFeatures> make_features(std::size_t n, std::uint64_t seed) {
  esim::sim::Rng rng{seed};
  std::vector<PacketFeatures> out(n);
  for (auto& f : out) {
    for (std::size_t i = 0; i < 8; ++i) f.v[i] = rng.uniform(-1.0, 1.0);
    f.v[8] = rng.bernoulli(0.2) ? 1.0 : 0.0;
    const std::size_t macro = rng.uniform_int(esim::approx::kMacroStates);
    for (std::size_t i = 0; i < esim::approx::kMacroStates; ++i) {
      f.v[9 + i] = i == macro ? 1.0 : 0.0;
    }
  }
  return out;
}

/// Streams every feature vector through `predict`, returns packets/s.
/// `sink` accumulates the predictions so the loop cannot be elided.
template <typename Predict>
double run_stream(MicroModel& model, const std::vector<PacketFeatures>& feats,
                  Predict&& predict, double* sink) {
  model.reset_state();
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (const auto& f : feats) {
    const auto p = predict(model, f);
    acc += p.drop_probability + p.latency_seconds;
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  *sink += acc;
  return static_cast<double>(feats.size()) / dt.count();
}

double best_of(int repeats, const std::function<double()>& run) {
  double best = 0.0;
  for (int i = 0; i < repeats; ++i) best = std::max(best, run());
  return best;
}

struct Row {
  std::string name;
  double reference_pps = 0.0;
  double session_pps = 0.0;
  bool bit_identical = true;
  double speedup() const {
    return reference_pps > 0.0 ? session_pps / reference_pps : 0.0;
  }
};

/// Session vs reference on the same stream, double-for-double.
bool check_bit_identical(MicroModel& model,
                         const std::vector<PacketFeatures>& feats,
                         std::size_t steps) {
  model.reset_state();
  std::vector<MicroModel::Prediction> expect;
  expect.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    expect.push_back(model.predict_reference(feats[i]));
  }
  model.reset_state();
  for (std::size_t i = 0; i < steps; ++i) {
    const auto got = model.predict(feats[i]);
    if (got.drop_probability != expect[i].drop_probability ||
        got.latency_seconds != expect[i].latency_seconds) {
      return false;
    }
  }
  return true;
}

/// One trunk + two fused heads, mirroring MicroModel's compiled session
/// (input = PacketFeatures::kDim, outputs = drop logit + latency), built
/// deterministically so the lanes sweep can instantiate as many
/// bit-identical sessions as it needs.
struct LaneBench {
  std::unique_ptr<esim::ml::SequenceModel> trunk;
  esim::ml::Linear drop_head;
  esim::ml::Linear latency_head;

  LaneBench(TrunkKind kind, std::size_t hidden, sim::Rng& rng)
      : trunk{esim::ml::make_sequence_model(kind, PacketFeatures::kDim,
                                            hidden, 2, rng)},
        drop_head{hidden, 1, rng},
        latency_head{hidden, 1, rng} {}

  std::unique_ptr<esim::ml::InferenceSession> session() const {
    return trunk->make_inference_session(
        {{&drop_head.weight(), &drop_head.bias()},
         {&latency_head.weight(), &latency_head.bias()}});
  }
};

/// Streams `total` predictions through an L-lane session (lane l advances
/// on rows l, l+L, l+2L, ... of the feature stream) and returns packets/s
/// across all lanes. The per-step gather into the lane buffer is part of
/// the measured cost, as it is for a real caller.
double run_lanes(esim::ml::InferenceSession& session, std::size_t lanes,
                 const std::vector<PacketFeatures>& feats, double* sink) {
  constexpr std::size_t kDim = PacketFeatures::kDim;
  session.set_lane_count(lanes);  // resets lane state
  std::vector<double> x(lanes * kDim);
  const std::size_t steps = feats.size() / lanes;
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto& f = feats[t * lanes + l];
      std::copy(f.v.begin(), f.v.end(), x.begin() + l * kDim);
    }
    const auto out = session.predict_lanes(x);
    acc += out[0] + out[out.size() - 1];
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  *sink += acc;
  return static_cast<double>(steps * lanes) / dt.count();
}

/// predict_lanes(L) against L independent single-lane sessions of the
/// same weights, double-for-double over `steps` timesteps.
bool check_lanes_identical(const LaneBench& bench, std::size_t lanes,
                           const std::vector<PacketFeatures>& feats,
                           std::size_t steps) {
  constexpr std::size_t kDim = PacketFeatures::kDim;
  auto wide = bench.session();
  wide->set_lane_count(lanes);
  std::vector<std::unique_ptr<esim::ml::InferenceSession>> singles;
  for (std::size_t l = 0; l < lanes; ++l) singles.push_back(bench.session());
  std::vector<double> x(lanes * kDim);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto& f = feats[(t * lanes + l) % feats.size()];
      std::copy(f.v.begin(), f.v.end(), x.begin() + l * kDim);
    }
    const auto out = wide->predict_lanes(x);
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto ref = singles[l]->predict(
          std::span<const double>{x.data() + l * kDim, kDim});
      for (std::size_t j = 0; j < ref.size(); ++j) {
        if (out[l * ref.size() + j] != ref[j]) return false;
      }
    }
  }
  return true;
}

/// Streams the whole feature list through MicroModel::predict_batch in
/// chunks of `n`, returns packets/s (sequence mode: one recurrent stream,
/// the input-side matmul batched across the chunk).
double run_sequence_batch(MicroModel& model, std::size_t n,
                          const std::vector<PacketFeatures>& feats,
                          double* sink) {
  constexpr std::size_t kDim = PacketFeatures::kDim;
  model.reset_state();
  model.reserve_batch(n);
  std::vector<double> x(n * kDim);
  std::vector<MicroModel::Prediction> preds(n);
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  std::size_t done = 0;
  while (done < feats.size()) {
    const std::size_t take = std::min(n, feats.size() - done);
    for (std::size_t i = 0; i < take; ++i) {
      const auto& f = feats[done + i];
      std::copy(f.v.begin(), f.v.end(), x.begin() + i * kDim);
    }
    model.predict_batch(std::span<const double>{x.data(), take * kDim},
                        std::span<MicroModel::Prediction>{preds.data(), take});
    acc += preds[take - 1].drop_probability + preds[0].latency_seconds;
    done += take;
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  *sink += acc;
  return static_cast<double>(feats.size()) / dt.count();
}

/// predict_batch chunks vs per-packet predict() on a fresh model of the
/// same seed, double-for-double.
bool check_sequence_identical(const MicroModel::Config& cfg, std::size_t n,
                              const std::vector<PacketFeatures>& feats,
                              std::size_t steps) {
  constexpr std::size_t kDim = PacketFeatures::kDim;
  MicroModel sequential{cfg};
  MicroModel batched{cfg};
  batched.reserve_batch(n);
  std::vector<double> x(n * kDim);
  std::vector<MicroModel::Prediction> preds(n);
  std::size_t done = 0;
  while (done < steps) {
    const std::size_t take = std::min(n, steps - done);
    for (std::size_t i = 0; i < take; ++i) {
      const auto& f = feats[done + i];
      std::copy(f.v.begin(), f.v.end(), x.begin() + i * kDim);
    }
    batched.predict_batch(std::span<const double>{x.data(), take * kDim},
                          std::span<MicroModel::Prediction>{preds.data(), take});
    for (std::size_t i = 0; i < take; ++i) {
      const auto ref = sequential.predict(feats[done + i]);
      if (preds[i].drop_probability != ref.drop_probability ||
          preds[i].latency_seconds != ref.latency_seconds) {
        return false;
      }
    }
    done += take;
  }
  return true;
}

struct BatchRow {
  std::string name;
  std::size_t n = 1;
  double lanes_pps = 0.0;
  double stream_pps = 0.0;
  double speedup_vs_n1 = 0.0;  // lanes_pps over the N=1 session baseline
  bool bit_identical = true;
};

/// The N = 1 baseline: per-packet predict() on a single-lane session,
/// the exact path ApproxCluster uses without coalescing.
double run_single(esim::ml::InferenceSession& session,
                  const std::vector<PacketFeatures>& feats, double* sink) {
  constexpr std::size_t kDim = PacketFeatures::kDim;
  session.set_lane_count(1);
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (const auto& f : feats) {
    const auto out = session.predict(std::span<const double>{f.v.data(), kDim});
    acc += out[0] + out[out.size() - 1];
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  *sink += acc;
  return static_cast<double>(feats.size()) / dt.count();
}

/// Mean of the approx.inference_ns histogram from one hybrid run, or -1
/// when the metric is missing. `count` receives the sample count.
double hybrid_inference_ns_mean(const esim::core::RunResult& result,
                                std::uint64_t* count) {
  const auto* h = result.metrics.find("approx.inference_ns");
  if (h == nullptr || h->count == 0) return -1.0;
  *count = h->count;
  return static_cast<double>(h->sum) / static_cast<double>(h->count);
}

/// Training rows: make_features plus drop and latency targets derived
/// from them, normalized the way build_dataset normalizes.
esim::approx::Dataset make_training_dataset(std::size_t n,
                                            std::uint64_t seed) {
  esim::approx::Dataset ds;
  ds.features = make_features(n, seed);
  double sum = 0.0, sq = 0.0;
  std::size_t delivered = 0;
  for (const auto& f : ds.features) {
    const bool drop = f.v[0] > 0.7;
    const double log_us = drop ? 0.0 : 2.0 + f.v[1] + 0.3 * f.v[8];
    ds.drop_targets.push_back(drop ? 1.0 : 0.0);
    ds.latency_log_us.push_back(log_us);
    if (!drop) {
      sum += log_us;
      sq += log_us * log_us;
      ++delivered;
    }
  }
  ds.mean_log_us = sum / static_cast<double>(delivered);
  ds.std_log_us = std::sqrt(sq / static_cast<double>(delivered) -
                            ds.mean_log_us * ds.mean_log_us);
  return ds;
}

struct TrainRow {
  std::string name;
  Spread oracle_ns;  // per training batch
  Spread kernel_ns;
  bool bit_identical = true;
  double speedup() const {
    return kernel_ns.median > 0.0 ? oracle_ns.median / kernel_ns.median : 0.0;
  }
};

/// Every parameter tensor of `a` and `b` holds the same bits.
bool same_weights(MicroModel& a, MicroModel& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto& x = *pa[i].value;
    const auto& y = *pb[i].value;
    if (x.rows() != y.rows() || x.cols() != y.cols() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// ns per training batch of one whole train_micro_model call (batches
/// plus the closing evaluation sweep) on a fresh copy of `initial`;
/// `trained` receives the trained copy.
template <typename Train>
double time_training(const MicroModel& initial,
                     const esim::approx::Dataset& ds,
                     const esim::approx::TrainConfig& tcfg, Train&& train,
                     std::unique_ptr<MicroModel>& trained) {
  trained = std::make_unique<MicroModel>(initial);
  const auto t0 = std::chrono::steady_clock::now();
  train(*trained, ds, tcfg);
  const std::chrono::duration<double, std::nano> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / static_cast<double>(tcfg.batches);
}

/// Training on the packed kernels vs the scalar oracle, alternating
/// repetitions from identical initial weights.
TrainRow bench_training(TrunkKind trunk, std::size_t hidden,
                        const esim::approx::Dataset& ds,
                        const esim::approx::TrainConfig& tcfg, int reps) {
  MicroModel::Config cfg;
  cfg.trunk = trunk;
  cfg.hidden = hidden;
  cfg.layers = 2;
  cfg.seed = 7;
  const MicroModel initial{cfg};
  TrainRow row;
  row.name = std::string{esim::ml::trunk_kind_name(trunk)} + "_h" +
             std::to_string(hidden);
  std::vector<double> oracle_ns, kernel_ns;
  std::unique_ptr<MicroModel> by_oracle, by_kernels;
  for (int r = 0; r < reps; ++r) {
    oracle_ns.push_back(time_training(initial, ds, tcfg,
                                      esim::oracle::train_micro_model,
                                      by_oracle));
    kernel_ns.push_back(time_training(initial, ds, tcfg,
                                      esim::approx::train_micro_model,
                                      by_kernels));
  }
  row.oracle_ns = spread_of(oracle_ns);
  row.kernel_ns = spread_of(kernel_ns);
  row.bit_identical = same_weights(*by_oracle, *by_kernels);
  return row;
}

struct TrainPhase {
  esim::approx::TrainConfig config;
  int repetitions = 0;
  std::vector<TrainRow> rows;
};

/// Phase 4: training cost per batch, kernels vs oracle, at the hybrid
/// benchmark's training shape (32 sequences x 24 steps, two layers).
TrainPhase run_training_phase(bool reduced) {
  TrainPhase phase;
  esim::approx::TrainConfig& tcfg = phase.config;
  tcfg.batch_size = 32;
  tcfg.seq_len = 24;
  tcfg.batches = reduced ? 2 : 20;
  tcfg.learning_rate = 5e-3;
  const int reps = phase.repetitions = reduced ? 2 : 5;
  const auto ds = make_training_dataset(reduced ? 256 : 2048, 20250806);
  std::printf(
      "\ntraining: train_micro_model on the %s kernels vs the scalar oracle, "
      "%zu batches of %zu x %zu steps;\nns per batch, median (min..max) "
      "over %d repetitions\n",
      esim::ml::kernels::isa_name(), tcfg.batches, tcfg.batch_size,
      tcfg.seq_len, reps);
  std::printf("%-10s %28s %28s %8s %9s\n", "config", "oracle ns/batch",
              "kernels ns/batch", "speedup", "bitident");
  for (const TrunkKind trunk : {TrunkKind::Lstm, TrunkKind::Gru}) {
    for (const std::size_t hidden : {16, 32, 64}) {
      const TrainRow r = bench_training(trunk, hidden, ds, tcfg, reps);
      std::printf("%-10s %10.0f (%7.0f..%7.0f) %10.0f (%7.0f..%7.0f) %7.2fx "
                  "%9s\n",
                  r.name.c_str(), r.oracle_ns.median, r.oracle_ns.min,
                  r.oracle_ns.max, r.kernel_ns.median, r.kernel_ns.min,
                  r.kernel_ns.max, r.speedup(), r.bit_identical ? "yes" : "NO");
      phase.rows.push_back(r);
    }
  }
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  // --batch: only the batched phases, at reduced scale — the sanitizer
  // smoke in scripts/check.sh cares about memory discipline and the
  // bit-identity gates, not throughput numbers.
  // --train: only the training phase, at reduced scale (the sanitizer
  // smoke); exit 1 if the kernels train different weights than the oracle.
  bool batch_only = false;
  bool train_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--batch") == 0) batch_only = true;
    if (std::strcmp(argv[i], "--train") == 0) train_only = true;
  }
  const bool reduced = quick_mode() || batch_only || train_only;
  const std::size_t n = reduced ? 2'048 : 200'000;
  const int repeats = batch_only ? 1 : (quick_mode() ? 2 : 3);
  const std::uint64_t seed = 20250805;

  print_header("bench_inference",
               "MicroModel packets/s: InferenceSession vs naive step()");
  if (train_only) {
    bool identical = true;
    for (const TrainRow& r : run_training_phase(reduced).rows) {
      identical = identical && r.bit_identical;
    }
    print_note("train-only mode: no JSON written");
    return identical ? 0 : 1;
  }
  std::printf("%zu packets per run, best of %d (two-layer trunks)\n\n", n,
              repeats);

  const auto feats = make_features(n, seed);

  struct Case {
    TrunkKind trunk;
    std::size_t hidden;
  };
  std::vector<Case> cases;
  for (const TrunkKind trunk : {TrunkKind::Lstm, TrunkKind::Gru}) {
    for (const std::size_t hidden : {16, 32, 64}) {
      cases.push_back({trunk, hidden});
    }
  }

  double sink = 0.0;
  std::vector<Row> rows;
  bool all_identical = true;
  if (!batch_only) {
    for (const auto& c : cases) {
      MicroModel::Config cfg;
      cfg.trunk = c.trunk;
      cfg.hidden = c.hidden;
      cfg.layers = 2;
      cfg.seed = 7;
      MicroModel model{cfg};
      model.set_latency_normalization(2.0, 0.8);

      Row r{std::string{esim::ml::trunk_kind_name(c.trunk)} + "_h" +
            std::to_string(c.hidden)};
      r.bit_identical =
          check_bit_identical(model, feats, std::min<std::size_t>(n, 512));
      all_identical = all_identical && r.bit_identical;
      r.reference_pps = best_of(repeats, [&] {
        return run_stream(
            model, feats,
            [](MicroModel& m, const PacketFeatures& f) {
              return m.predict_reference(f);
            },
            &sink);
      });
      r.session_pps = best_of(repeats, [&] {
        return run_stream(
            model, feats,
            [](MicroModel& m, const PacketFeatures& f) { return m.predict(f); },
            &sink);
      });
      rows.push_back(r);
    }

    std::printf("%-10s %16s %16s %9s %9s\n", "config", "reference pkt/s",
                "session pkt/s", "speedup", "bitident");
    for (const auto& r : rows) {
      std::printf("%-10s %16.0f %16.0f %8.2fx %9s\n", r.name.c_str(),
                  r.reference_pps, r.session_pps, r.speedup(),
                  r.bit_identical ? "yes" : "NO");
    }
  }

  // Phase 2: the cross-packet batch sweep (DESIGN.md §8). For every
  // config, N = 1 is the per-packet session predict() path; N > 1 runs
  // lanes mode (N independent streams, both matmuls lane-batched) and
  // sequence mode (one stream, predict_batch chunks of N). Each row's
  // bit-identity gate cross-checks the batched outputs against the
  // equivalent unbatched predictions, double for double.
  const std::vector<std::size_t> batch_ns = {1, 4, 16, 64};
  std::vector<BatchRow> batch_rows;
  std::printf("\nbatched inference (lanes = independent streams, "
              "stream = predict_batch chunks)\n");
  std::printf("%-10s %4s %16s %16s %9s %9s\n", "config", "N", "lanes pkt/s",
              "stream pkt/s", "vs N=1", "bitident");
  for (const auto& c : cases) {
    MicroModel::Config cfg;
    cfg.trunk = c.trunk;
    cfg.hidden = c.hidden;
    cfg.layers = 2;
    cfg.seed = 7;
    MicroModel model{cfg};
    model.set_latency_normalization(2.0, 0.8);
    sim::Rng lane_rng{seed + c.hidden * 2 +
                      (c.trunk == TrunkKind::Lstm ? 0 : 1)};
    const LaneBench bench{c.trunk, c.hidden, lane_rng};
    auto wide = bench.session();
    wide->reserve_batch(64);
    const std::string name = std::string{esim::ml::trunk_kind_name(c.trunk)} +
                             "_h" + std::to_string(c.hidden);
    double n1_pps = 0.0;
    for (const std::size_t batch_n : batch_ns) {
      BatchRow br;
      br.name = name;
      br.n = batch_n;
      br.lanes_pps = best_of(repeats, [&] {
        return batch_n == 1 ? run_single(*wide, feats, &sink)
                            : run_lanes(*wide, batch_n, feats, &sink);
      });
      br.stream_pps = best_of(repeats, [&] {
        return run_sequence_batch(model, batch_n, feats, &sink);
      });
      if (batch_n == 1) n1_pps = br.lanes_pps;
      br.speedup_vs_n1 = n1_pps > 0.0 ? br.lanes_pps / n1_pps : 0.0;
      const std::size_t lane_steps =
          std::min<std::size_t>(96, feats.size() / batch_n);
      br.bit_identical =
          check_sequence_identical(cfg, batch_n, feats,
                                   std::min<std::size_t>(n, 256)) &&
          (batch_n == 1 ||
           check_lanes_identical(bench, batch_n, feats, lane_steps));
      all_identical = all_identical && br.bit_identical;
      batch_rows.push_back(br);
      std::printf("%-10s %4zu %16.0f %16.0f %8.2fx %9s\n", br.name.c_str(),
                  br.n, br.lanes_pps, br.stream_pps, br.speedup_vs_n1,
                  br.bit_identical ? "yes" : "NO");
    }
  }

  // Phase 3a: the same comparison end to end — a hybrid run through
  // ApproxCluster with telemetry on, once per inference path. The
  // approx.inference_ns histogram is the per-prediction wall cost as the
  // cluster sees it (feature extraction included).
  esim::core::ExperimentConfig hcfg;
  hcfg.net.spec.clusters = 3;
  hcfg.net.spec.tors_per_cluster = 2;
  hcfg.net.spec.aggs_per_cluster = 2;
  hcfg.net.spec.hosts_per_tor = 2;
  hcfg.net.spec.cores = 2;
  hcfg.load = 0.3;
  hcfg.duration =
      esim::sim::SimTime::from_ms(quick_mode() ? 5 : 40);
  hcfg.model.hidden = 16;
  hcfg.model.layers = 2;
  hcfg.model.seed = 7;
  hcfg.telemetry = true;
  esim::core::TrainedModels models;
  models.ingress = std::make_unique<MicroModel>(hcfg.model);
  models.egress = std::make_unique<MicroModel>(hcfg.model);
  const auto hybrid_session =
      esim::core::run_hybrid_simulation(hcfg, hcfg.net.spec, models);
  std::uint64_t session_count = 0, reference_count = 0;
  double session_ns = -1.0, reference_ns = -1.0;
  bool hybrid_identical = true;
  if (!batch_only) {
    hcfg.approx.reference_inference = true;
    const auto hybrid_reference =
        esim::core::run_hybrid_simulation(hcfg, hcfg.net.spec, models);
    hcfg.approx.reference_inference = false;
    session_ns = hybrid_inference_ns_mean(hybrid_session, &session_count);
    reference_ns = hybrid_inference_ns_mean(hybrid_reference, &reference_count);
    hybrid_identical =
        hybrid_session.events_executed == hybrid_reference.events_executed &&
        hybrid_session.mean_fct_seconds == hybrid_reference.mean_fct_seconds;
    all_identical = all_identical && hybrid_identical;
    std::printf(
        "\nhybrid approx.inference_ns (h=%zu, %llu predictions): "
        "reference %.0f ns -> session %.0f ns (%.2fx), runs identical: %s\n",
        hcfg.model.hidden,
        static_cast<unsigned long long>(session_count), reference_ns,
        session_ns, session_ns > 0.0 ? reference_ns / session_ns : 0.0,
        hybrid_identical ? "yes" : "NO");
  }

  // Phase 3b: the same hybrid run with the prediction queue coalescing
  // up to 16 packets per window. Batching may not change the simulation:
  // every observable except the event count (the flush timers are extra
  // events) must match the unbatched run exactly.
  hcfg.approx.batch_max = 16;
  hcfg.approx.batch_window = esim::sim::SimTime::from_us(2);
  const auto hybrid_batched =
      esim::core::run_hybrid_simulation(hcfg, hcfg.net.spec, models);
  const auto& off_stats = hybrid_session.approx_stats;
  const auto& on_stats = hybrid_batched.approx_stats;
  const bool batch_runs_identical =
      hybrid_batched.flows_launched == hybrid_session.flows_launched &&
      hybrid_batched.flows_completed == hybrid_session.flows_completed &&
      hybrid_batched.mean_fct_seconds == hybrid_session.mean_fct_seconds &&
      on_stats.ingress_packets == off_stats.ingress_packets &&
      on_stats.egress_packets == off_stats.egress_packets &&
      on_stats.predicted_drops == off_stats.predicted_drops &&
      on_stats.backlog_drops == off_stats.backlog_drops &&
      on_stats.conflicts_resolved == off_stats.conflicts_resolved;
  all_identical = all_identical && batch_runs_identical;
  std::printf(
      "hybrid batching on vs off (batch_max=16, window=2us): flows %llu/%llu, "
      "boundary pkts %llu/%llu, observables identical: %s\n",
      static_cast<unsigned long long>(hybrid_batched.flows_completed),
      static_cast<unsigned long long>(hybrid_session.flows_completed),
      static_cast<unsigned long long>(on_stats.ingress_packets +
                                      on_stats.egress_packets),
      static_cast<unsigned long long>(off_stats.ingress_packets +
                                      off_stats.egress_packets),
      batch_runs_identical ? "yes" : "NO");

  TrainPhase train;
  if (!batch_only) {
    train = run_training_phase(reduced);
    for (const TrainRow& r : train.rows) {
      all_identical = all_identical && r.bit_identical;
    }
  }

  if (batch_only) {
    print_note("batch-only mode: no JSON written");
    print_note("checksum " + std::to_string(sink));
    return all_identical ? 0 : 1;
  }

  double geomean = 0.0;
  double max_speedup = 0.0;
  for (const auto& r : rows) {
    geomean += std::log(r.speedup());
    max_speedup = std::max(max_speedup, r.speedup());
  }
  geomean = std::exp(geomean / static_cast<double>(rows.size()));

  esim::telemetry::RunReport report{"inference"};
  report.set("bench", "inference");
  report.set("packets_per_run", static_cast<std::uint64_t>(n));
  report.set("layers", static_cast<std::uint64_t>(2));
  report.set("bit_identical", all_identical);
  report.set("geomean_speedup", geomean);
  report.set("max_speedup", max_speedup);
  for (const auto& r : rows) {
    report.set("configs." + r.name + ".reference_pps", r.reference_pps);
    report.set("configs." + r.name + ".session_pps", r.session_pps);
    report.set("configs." + r.name + ".speedup", r.speedup());
    report.set("configs." + r.name + ".bit_identical", r.bit_identical);
  }
  // Batched sweep (EXPERIMENTS.md): batch.<config>.N<k>.* — lanes mode
  // vs the N=1 session baseline, plus the sequence-mode stream rate.
  for (const auto& br : batch_rows) {
    const std::string key = "batch." + br.name + ".N" + std::to_string(br.n);
    report.set(key + ".lanes_pps", br.lanes_pps);
    report.set(key + ".stream_pps", br.stream_pps);
    report.set(key + ".speedup", br.speedup_vs_n1);
    report.set(key + ".bit_identical", br.bit_identical);
  }
  report.set("hybrid.inference_count", session_count);
  report.set("hybrid.reference_inference_ns_mean", reference_ns);
  report.set("hybrid.session_inference_ns_mean", session_ns);
  report.set("hybrid.inference_ns_speedup",
             session_ns > 0.0 ? reference_ns / session_ns : 0.0);
  report.set("hybrid.runs_identical", hybrid_identical);
  report.set("hybrid.batch_runs_identical", batch_runs_identical);
  // Training phase (EXPERIMENTS.md): train.<config>.* — ns per batch of
  // train_micro_model, oracle vs kernels, median/min/max.
  report.set("train.kernel_isa", std::string{esim::ml::kernels::isa_name()});
  report.set("train.batch_size",
             static_cast<std::uint64_t>(train.config.batch_size));
  report.set("train.seq_len", static_cast<std::uint64_t>(train.config.seq_len));
  report.set("train.batches", static_cast<std::uint64_t>(train.config.batches));
  report.set("train.repetitions",
             static_cast<std::uint64_t>(train.repetitions));
  for (const TrainRow& r : train.rows) {
    const std::string key = "train." + r.name;
    report.set(key + ".oracle_ns_per_batch.median", r.oracle_ns.median);
    report.set(key + ".oracle_ns_per_batch.min", r.oracle_ns.min);
    report.set(key + ".oracle_ns_per_batch.max", r.oracle_ns.max);
    report.set(key + ".kernel_ns_per_batch.median", r.kernel_ns.median);
    report.set(key + ".kernel_ns_per_batch.min", r.kernel_ns.min);
    report.set(key + ".kernel_ns_per_batch.max", r.kernel_ns.max);
    report.set(key + ".speedup", r.speedup());
    report.set(key + ".bit_identical", r.bit_identical);
  }
  const std::string path = "BENCH_inference.json";
  if (report.write(path)) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::printf("WARNING: could not write %s\n", path.c_str());
  }

  print_note(
      "speedup = fused workspace session over naive Tensor step(); both "
      "paths stream the same state and must agree bit-for-bit.");
  print_note("checksum " + std::to_string(sink));
  return all_identical ? 0 : 1;
}
