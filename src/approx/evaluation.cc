#include "approx/evaluation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace esim::approx {
namespace {

void recompute_normalization(Dataset& ds) {
  double sum = 0, sumsq = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.drop_targets[i] > 0.5) continue;
    sum += ds.latency_log_us[i];
    sumsq += ds.latency_log_us[i] * ds.latency_log_us[i];
    ++n;
  }
  if (n == 0) return;
  ds.mean_log_us = sum / static_cast<double>(n);
  const double var =
      sumsq / static_cast<double>(n) - ds.mean_log_us * ds.mean_log_us;
  ds.std_log_us = var > 1e-12 ? std::sqrt(var) : 1.0;
}

}  // namespace

std::pair<Dataset, Dataset> split_dataset(const Dataset& dataset,
                                          double train_fraction) {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("split_dataset: fraction outside (0,1)");
  }
  const std::size_t cut = static_cast<std::size_t>(
      static_cast<double>(dataset.size()) * train_fraction);
  Dataset train, test;
  auto copy_range = [&](Dataset& out, std::size_t lo, std::size_t hi) {
    out.features.assign(dataset.features.begin() + lo,
                        dataset.features.begin() + hi);
    out.drop_targets.assign(dataset.drop_targets.begin() + lo,
                            dataset.drop_targets.begin() + hi);
    out.latency_log_us.assign(dataset.latency_log_us.begin() + lo,
                              dataset.latency_log_us.begin() + hi);
    recompute_normalization(out);
  };
  copy_range(train, 0, cut);
  copy_range(test, cut, dataset.size());
  return {std::move(train), std::move(test)};
}

EvalMetrics evaluate_micro_model(MicroModel& model, const Dataset& test) {
  EvalMetrics m;
  m.rows = test.size();
  if (test.size() == 0) return m;

  model.reset_state();
  std::vector<double> drop_scores(test.size());
  std::vector<double> lat_errors;
  std::size_t tp = 0, fp = 0, fn = 0, correct = 0, drops = 0;
  double bias = 0;
  const auto score = [&](std::size_t i, const MicroModel::Prediction& pred) {
    drop_scores[i] = pred.drop_probability;
    const bool was_drop = test.drop_targets[i] > 0.5;
    const bool said_drop = pred.drop_probability > 0.5;
    drops += was_drop ? 1 : 0;
    if (said_drop == was_drop) ++correct;
    if (said_drop && was_drop) ++tp;
    if (said_drop && !was_drop) ++fp;
    if (!said_drop && was_drop) ++fn;
    if (!was_drop) {
      // Targets are normalized in the model's frame (the training split's
      // statistics), like its predictions; the test split's own
      // statistics, which split_dataset recomputes, would shift and
      // scale every error.
      const double err = model.normalize_latency(pred.latency_seconds) -
                         model.normalize_log_latency(test.latency_log_us[i]);
      lat_errors.push_back(std::abs(err));
      bias += err;
    }
  };
  model.predict_stream(test.features, score);
  model.reset_state();

  m.drop_accuracy =
      static_cast<double>(correct) / static_cast<double>(test.size());
  m.base_drop_rate =
      static_cast<double>(drops) / static_cast<double>(test.size());
  m.drop_precision =
      tp + fp == 0 ? 0.0
                   : static_cast<double>(tp) / static_cast<double>(tp + fp);
  m.drop_recall =
      tp + fn == 0 ? 0.0
                   : static_cast<double>(tp) / static_cast<double>(tp + fn);

  // AUC via the Mann-Whitney U statistic: probability a random dropped
  // packet scores above a random delivered one (ties count half).
  const std::size_t pos = drops, neg = test.size() - drops;
  if (pos > 0 && neg > 0) {
    std::vector<std::size_t> order(test.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return drop_scores[a] < drop_scores[b];
    });
    // Average ranks with tie handling.
    std::vector<double> rank(test.size());
    std::size_t i = 0;
    while (i < order.size()) {
      std::size_t j = i;
      while (j + 1 < order.size() &&
             drop_scores[order[j + 1]] == drop_scores[order[i]]) {
        ++j;
      }
      const double avg_rank = (static_cast<double>(i) +
                               static_cast<double>(j)) / 2.0 + 1.0;
      for (std::size_t k = i; k <= j; ++k) rank[order[k]] = avg_rank;
      i = j + 1;
    }
    double rank_sum_pos = 0;
    for (std::size_t k = 0; k < test.size(); ++k) {
      if (test.drop_targets[k] > 0.5) rank_sum_pos += rank[k];
    }
    const double u = rank_sum_pos -
                     static_cast<double>(pos) *
                         (static_cast<double>(pos) + 1.0) / 2.0;
    m.drop_auc = u / (static_cast<double>(pos) * static_cast<double>(neg));
  }

  if (!lat_errors.empty()) {
    double sum = 0;
    for (double e : lat_errors) sum += e;
    m.latency_mae = sum / static_cast<double>(lat_errors.size());
    m.latency_bias = bias / static_cast<double>(lat_errors.size());
    std::sort(lat_errors.begin(), lat_errors.end());
    m.latency_p90_abs_error =
        lat_errors[static_cast<std::size_t>(0.9 * (lat_errors.size() - 1))];
  }
  return m;
}

}  // namespace esim::approx
