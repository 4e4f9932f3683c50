// Held-out evaluation of micro models.
//
// The paper's workflow generates "training and testing sets" (§3); this
// module provides the testing half: a chronological train/test split (the
// model must extrapolate forward in time, so random splits would leak)
// and classification/regression metrics beyond raw accuracy — drop
// prediction is a rare-event problem where accuracy alone is nearly
// meaningless, so ranking (AUC) and precision/recall are reported too.
#pragma once

#include <cstddef>
#include <utility>

#include "approx/dataset.h"
#include "approx/micro_model.h"

namespace esim::approx {

/// Held-out quality of one micro model.
struct EvalMetrics {
  // Drop head (classification).
  double drop_auc = 0.5;        ///< ranking quality; 0.5 = chance
  double drop_accuracy = 0.0;   ///< at threshold 0.5
  double drop_precision = 0.0;  ///< of predicted drops, fraction real
  double drop_recall = 0.0;     ///< of real drops, fraction predicted
  double base_drop_rate = 0.0;  ///< test-set drop fraction (context)

  // Latency head (regression, normalized log space).
  double latency_mae = 0.0;     ///< mean |error|
  double latency_bias = 0.0;    ///< mean signed error (under/over)
  double latency_p90_abs_error = 0.0;

  std::size_t rows = 0;
};

/// Splits rows chronologically: the first `train_fraction` become the
/// training set, the rest the test set. Normalization statistics are
/// recomputed for each split from its own delivered rows.
std::pair<Dataset, Dataset> split_dataset(const Dataset& dataset,
                                          double train_fraction);

/// Streams the test set through the model (fresh hidden state) and
/// scores both heads. Latency errors are measured in the model's own
/// normalization frame (the statistics it was trained with), not the
/// test split's. Resets the model's streaming state before and after.
EvalMetrics evaluate_micro_model(MicroModel& model, const Dataset& test);

}  // namespace esim::approx
