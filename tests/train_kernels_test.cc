// Training on the packed kernels is bit-identical to the plain scalar
// loops it replaced (tests/train_oracle.h): each rewritten matrix product
// on awkward shapes and special values, whole LSTM/GRU trainings, and the
// two-thread train_from_trace against sequential training. CTest runs
// this suite once per ESIM_INFERENCE_ISA value (scalar, avx2, avx512).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "approx/dataset.h"
#include "approx/evaluation.h"
#include "approx/micro_model.h"
#include "approx/trainer.h"
#include "core/experiment.h"
#include "ml/kernels.h"
#include "ml/tensor.h"
#include "sim/random.h"
#include "train_oracle.h"

namespace esim {
namespace {

using ml::Tensor;

/// Same shape and the same bits in every element.
::testing::AssertionResult bit_equal(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a.data()[i] << " vs "
             << b.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Random values with exact zeros of both signs and denormals mixed in.
Tensor special_tensor(std::size_t rows, std::size_t cols, sim::Rng& rng) {
  Tensor t{rows, cols};
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double u = rng.uniform();
    double v = rng.uniform(-2.0, 2.0);
    if (u < 0.15) {
      v = 0.0;
    } else if (u < 0.3) {
      v = -0.0;
    } else if (u < 0.4) {
      v = rng.uniform(-1.0, 1.0) * 1e-310;  // denormal
    }
    t.data()[i] = v;
  }
  return t;
}

/// Infinities at a few positions: where the matching left-hand factor is
/// zero, the reference's zero-skip keeps them out of matmul/matmul_tn.
void sprinkle_infinities(Tensor& t, sim::Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (rng.uniform() < 0.05) t.data()[i] = rng.bernoulli(0.5) ? inf : -inf;
  }
}

const std::size_t kBatches[] = {1, 3, 32};
const std::size_t kWidths[] = {1, 3, 5, 8, 13, 17, 33};

TEST(TrainKernels, ReportsDispatchedIsa) {
  const std::string isa = ml::kernels::isa_name();
  EXPECT_TRUE(isa == "scalar" || isa == "avx2" || isa == "avx512") << isa;
  std::printf("kernel ISA: %s\n", isa.c_str());
}

TEST(TrainKernels, MatmulNtMatchesOracle) {
  sim::Rng rng{101};
  for (const std::size_t m : kBatches) {
    for (const std::size_t k : kWidths) {
      for (const std::size_t n : kWidths) {
        const Tensor a = special_tensor(m, k, rng);
        const Tensor b = special_tensor(n, k, rng);
        EXPECT_TRUE(bit_equal(ml::matmul_nt(a, b), oracle::matmul_nt(a, b)))
            << m << "x" << k << " * (" << n << "x" << k << ")^T";
      }
    }
  }
}

TEST(TrainKernels, MatmulMatchesOracle) {
  sim::Rng rng{102};
  for (const std::size_t m : kBatches) {
    for (const std::size_t k : kWidths) {
      for (const std::size_t n : kWidths) {
        const Tensor a = special_tensor(m, k, rng);
        Tensor b = special_tensor(k, n, rng);
        sprinkle_infinities(b, rng);
        EXPECT_TRUE(bit_equal(ml::matmul(a, b), oracle::matmul(a, b)))
            << m << "x" << k << " * " << k << "x" << n;
      }
    }
  }
}

TEST(TrainKernels, MatmulTnMatchesOracle) {
  sim::Rng rng{103};
  for (const std::size_t k : kBatches) {
    for (const std::size_t m : kWidths) {
      for (const std::size_t n : kWidths) {
        const Tensor a = special_tensor(k, m, rng);
        Tensor b = special_tensor(k, n, rng);
        sprinkle_infinities(b, rng);
        EXPECT_TRUE(bit_equal(ml::matmul_tn(a, b), oracle::matmul_tn(a, b)))
            << "(" << k << "x" << m << ")^T * " << k << "x" << n;
      }
    }
  }
}

TEST(TrainKernels, ZeroSkipIsObservable) {
  // 0 * inf is NaN, so a product that multiplied through the zero would
  // differ from the reference, which skips the term.
  const double inf = std::numeric_limits<double>::infinity();
  const Tensor a{2, 2, {0.0, 1.0, -0.0, 2.0}};
  const Tensor b{2, 3, {inf, -inf, inf, 1.0, 2.0, 3.0}};
  const Tensor c = ml::matmul(a, b);
  EXPECT_TRUE(bit_equal(c, oracle::matmul(a, b)));
  EXPECT_EQ(c.at(0, 0), 1.0);
  EXPECT_EQ(c.at(1, 2), 6.0);
  const Tensor at{2, 2, {0.0, -0.0, 1.0, 2.0}};  // transpose of a
  EXPECT_TRUE(bit_equal(ml::matmul_tn(at, b), oracle::matmul_tn(at, b)));
  EXPECT_TRUE(bit_equal(ml::matmul_tn(at, b), c));
}

TEST(TrainKernels, AddRowBiasMatchesOracle) {
  sim::Rng rng{104};
  for (const std::size_t m : kBatches) {
    for (const std::size_t n : kWidths) {
      Tensor got = special_tensor(m, n, rng);
      Tensor want = got;
      const Tensor bias = special_tensor(1, n, rng);
      ml::add_row_bias(got, bias);
      oracle::add_row_bias(want, bias);
      EXPECT_TRUE(bit_equal(got, want)) << m << "x" << n;
    }
  }
}

/// Rows shaped like boundary features, with drops and a latency column.
approx::Dataset training_dataset(std::size_t n, std::uint64_t seed) {
  sim::Rng rng{seed};
  approx::Dataset ds;
  double sum = 0.0, sq = 0.0;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    approx::PacketFeatures f;
    for (std::size_t k = 0; k < 8; ++k) f.v[k] = rng.uniform(-1.0, 1.0);
    f.v[8] = rng.bernoulli(0.3) ? 1.0 : 0.0;
    f.v[9 + rng.uniform_int(approx::kMacroStates)] = 1.0;
    const bool drop = f.v[0] > 0.7;
    const double log_us = drop ? 0.0 : 2.0 + f.v[1] + 0.3 * f.v[8];
    ds.features.push_back(f);
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

void expect_same_training(approx::MicroModel& got, approx::MicroModel& want,
                          const approx::TrainReport& got_report,
                          const approx::TrainReport& want_report) {
  const auto gp = got.parameters();
  const auto wp = want.parameters();
  ASSERT_EQ(gp.size(), wp.size());
  for (std::size_t i = 0; i < gp.size(); ++i) {
    EXPECT_EQ(gp[i].name, wp[i].name);
    EXPECT_TRUE(bit_equal(*gp[i].value, *wp[i].value)) << gp[i].name;
  }
  EXPECT_EQ(got_report.initial_loss, want_report.initial_loss);
  EXPECT_EQ(got_report.final_loss, want_report.final_loss);
  EXPECT_EQ(got_report.final_drop_loss, want_report.final_drop_loss);
  EXPECT_EQ(got_report.final_latency_loss, want_report.final_latency_loss);
  EXPECT_EQ(got_report.drop_accuracy, want_report.drop_accuracy);
  EXPECT_EQ(got_report.latency_mae, want_report.latency_mae);
}

/// 20 batches through approx::train_micro_model and through the oracle
/// trainer, from identical initial weights. Hidden sizes 16 (whole
/// packed groups) and 10 (ragged gate rows and hidden-unit tails).
void check_training_matches_oracle(ml::TrunkKind trunk) {
  const approx::Dataset ds = training_dataset(700, 5);
  approx::TrainConfig tcfg;
  tcfg.batch_size = 8;
  tcfg.seq_len = 6;
  tcfg.batches = 20;
  tcfg.learning_rate = 5e-3;
  for (const std::size_t hidden : {16, 10}) {
    SCOPED_TRACE("hidden " + std::to_string(hidden));
    approx::MicroModel::Config mcfg;
    mcfg.trunk = trunk;
    mcfg.hidden = hidden;
    mcfg.layers = 2;
    mcfg.seed = 3;
    approx::MicroModel model{mcfg};
    approx::MicroModel reference{model};
    const auto report = approx::train_micro_model(model, ds, tcfg);
    const auto want = oracle::train_micro_model(reference, ds, tcfg);
    EXPECT_NE(report.initial_loss, report.final_loss);  // weights moved
    expect_same_training(model, reference, report, want);
  }
}

TEST(TrainKernels, LstmTrainingMatchesOracle) {
  check_training_matches_oracle(ml::TrunkKind::Lstm);
}

TEST(TrainKernels, GruTrainingMatchesOracle) {
  check_training_matches_oracle(ml::TrunkKind::Gru);
}

TEST(TrainKernels, ConcurrentTrainFromTraceMatchesSequential) {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = 2;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  cfg.train_duration = sim::SimTime::from_ms(5);
  cfg.model.hidden = 8;
  cfg.train.batches = 12;
  cfg.train.batch_size = 8;
  cfg.train.seq_len = 8;
  cfg.eval_holdout = 0.25;
  const core::BoundaryTrace trace = core::record_boundary_trace(cfg);
  const core::TrainedModels models = core::train_from_trace(cfg, trace);
  ASSERT_TRUE(models.has_eval);

  // The same pipeline, one direction after the other on this thread.
  struct Direction {
    approx::Direction dir;
    approx::MicroModel* got;
    const approx::TrainReport* report;
    const approx::EvalMetrics* eval;
    std::uint64_t seed;
  };
  const Direction dirs[] = {
      {approx::Direction::Ingress, models.ingress.get(),
       &models.ingress_report, &models.ingress_eval, cfg.model.seed},
      {approx::Direction::Egress, models.egress.get(), &models.egress_report,
       &models.egress_eval, cfg.model.seed + 1}};
  for (const Direction& d : dirs) {
    const approx::Dataset ds = approx::build_dataset(
        trace.spec, trace.cluster, d.dir, trace.records, cfg.macro);
    const auto [train, test] =
        approx::split_dataset(ds, 1.0 - cfg.eval_holdout);
    approx::MicroModel::Config mcfg = cfg.model;
    mcfg.seed = d.seed;
    approx::MicroModel want{mcfg};
    const auto want_report = approx::train_micro_model(want, train, cfg.train);
    const auto want_eval = approx::evaluate_micro_model(want, test);
    expect_same_training(*d.got, want, *d.report, want_report);
    EXPECT_EQ(d.eval->rows, want_eval.rows);
    EXPECT_EQ(d.eval->drop_auc, want_eval.drop_auc);
    EXPECT_EQ(d.eval->drop_accuracy, want_eval.drop_accuracy);
    EXPECT_EQ(d.eval->latency_mae, want_eval.latency_mae);
    EXPECT_EQ(d.eval->latency_bias, want_eval.latency_bias);
  }
}

}  // namespace
}  // namespace esim
