// The deep-learning micro model (paper §4.2): a recurrent trunk whose
// multi-dimensional hidden state feeds two fully connected heads, one
// predicting the packet-drop logit and one predicting (log-space,
// normalized) latency. One MicroModel handles one boundary direction.
//
// "The multi-dimensional hidden state output from the LSTM is given to one
//  fully connected layer to predict the latency and another fully
//  connected layer to predict packet drop. This is superior to training
//  two separate models as the neural network representation can learn the
//  joint distribution of drops and latency."
//
// The trunk defaults to the paper's two-layer LSTM; a GRU variant (§7's
// "new LSTM variants") is selectable via Config::trunk.
//
// Train/infer split (DESIGN.md §8): the packet hot path runs through a
// compiled ml::InferenceSession — an immutable snapshot of the weights
// taken at construction/copy/recompile() time — so predict() allocates
// nothing. After optimizer steps mutate the training tensors, call
// recompile() to re-snapshot (train_micro_model does this at train
// completion). predict_reference() keeps the naive Tensor step() path as
// the bit-identical reference. A model loaded via load_inference() is
// *inference-only*: it owns just the session weights and never
// materializes the training-side gradient tensors (trainable() == false;
// training accessors throw).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "approx/features.h"
#include "ml/linear.h"
#include "ml/module.h"
#include "ml/sequence_model.h"
#include "ml/serialize.h"

namespace esim::approx {

/// Recurrent trunk + drop head + latency head, with streaming state.
class MicroModel : public ml::Module {
 public:
  struct Config {
    std::size_t hidden = 32;  ///< paper prototype: 128; smaller by default
    std::size_t layers = 2;   ///< paper prototype: two-layer LSTM
    ml::TrunkKind trunk = ml::TrunkKind::Lstm;
    std::uint64_t seed = 1;   ///< weight initialisation stream
  };

  /// What the model asserts about one packet.
  struct Prediction {
    double drop_probability = 0.0;
    double latency_seconds = 0.0;
  };

  explicit MicroModel(const Config& config);

  /// Deep copies (each ApproxCluster owns private weights + state). The
  /// copy's recurrent state is always reset — streamed history is never
  /// shared between clusters.
  MicroModel(const MicroModel& other);
  MicroModel& operator=(const MicroModel& other);

  /// Streaming inference for one packet: advances the hidden state and
  /// returns the joint prediction. Latency is de-normalized via the stats
  /// set at training time. Runs the fused InferenceSession; performs no
  /// heap allocation. Throws std::logic_error if the compiled session is
  /// stale (weights written since the last recompile()).
  Prediction predict(std::span<const double> features);
  Prediction predict(const PacketFeatures& features) {
    return predict(std::span<const double>{features.v});
  }

  /// Batched streaming inference over n packets in arrival order:
  /// features holds n rows of PacketFeatures::kDim doubles, out receives
  /// n predictions. Recurrent state advances exactly as n predict()
  /// calls would and every prediction is bit-identical to the sequential
  /// path (ml::InferenceSession::predict_batch contract); the layer
  /// weight streams are amortized across the batch. Returns n. Zero heap
  /// allocations once reserve_batch() covers n.
  std::size_t predict_batch(std::span<const double> features,
                            std::span<Prediction> out);

  /// Pre-sizes the session's batch workspace for predict_batch(n <= max_n).
  void reserve_batch(std::size_t max_n);

  /// Streams `rows` in order through predict_batch, a fixed-size chunk at
  /// a time, and calls visit(i, prediction) for each row i: the values
  /// (and final recurrent state) of rows.size() predict() calls. The
  /// chunk buffers live on the stack, so a sweep over a whole dataset
  /// allocates nothing beyond the session's batch workspace.
  template <typename Visit>
  void predict_stream(std::span<const PacketFeatures> rows, Visit&& visit) {
    constexpr std::size_t kChunk = 64;
    constexpr std::size_t kDim = PacketFeatures::kDim;
    std::array<double, kChunk * kDim> chunk;
    std::array<Prediction, kChunk> preds;
    for (std::size_t lo = 0; lo < rows.size(); lo += kChunk) {
      const std::size_t n = std::min(kChunk, rows.size() - lo);
      for (std::size_t t = 0; t < n; ++t) {
        std::copy(rows[lo + t].v.begin(), rows[lo + t].v.end(),
                  chunk.begin() + t * kDim);
      }
      predict_batch({chunk.data(), n * kDim}, preds);
      for (std::size_t t = 0; t < n; ++t) visit(lo + t, preds[t]);
    }
  }

  /// The naive Tensor step() path, kept as the reference implementation
  /// for the bit-identity contract (and the baseline of
  /// bench/bench_inference). Streams its own hidden state, separate from
  /// the session's. Trainable models only.
  Prediction predict_reference(std::span<const double> features);
  Prediction predict_reference(const PacketFeatures& features) {
    return predict_reference(std::span<const double>{features.v});
  }

  /// Clears the streaming hidden state (start of a new simulation) of
  /// both the session and the reference path.
  void reset_state();

  /// Sets the latency-target normalization (mean/std of ln(latency_us))
  /// computed by the trainer over the training set.
  void set_latency_normalization(double mean_log_us, double std_log_us);

  /// Converts a normalized latency-head output to seconds.
  double denormalize_latency(double head_output) const;

  /// Converts a latency in seconds to the normalized training target.
  double normalize_latency(double latency_seconds) const;

  /// Converts ln(latency in microseconds), the Dataset's latency column,
  /// to the normalized training target.
  double normalize_log_latency(double log_us) const;

  /// False for models built by load_inference(): they carry only the
  /// compiled session, no training machinery.
  bool trainable() const { return trunk_ != nullptr; }

  /// Trainer access to the pieces. Throw std::logic_error when
  /// !trainable().
  ml::SequenceModel& trunk();
  ml::Linear& drop_head();
  ml::Linear& latency_head();

  /// Re-snapshots the session from the current weight values. Call after
  /// mutating weights in place (optimizer steps, load_parameters);
  /// sessions are immutable and do not track later tensor writes. Throws
  /// std::logic_error when !trainable().
  void recompile();

  /// The compiled hot-path plan.
  const ml::InferenceSession& session() const { return *session_; }

  const Config& config() const { return config_; }

  /// Saves the v2 model container (architecture header + weights);
  /// load_inference() reads it back without the training structures.
  void save(const std::string& path);

  /// Loads a v2 model file into an inference-only model: one owning
  /// InferenceSession, no Tensors, no gradients. Throws
  /// std::runtime_error on format/shape errors.
  static MicroModel load_inference(const std::string& path);

  /// Includes the trunk, both heads, and the normalization constants (so
  /// serialized models carry them). Throws std::logic_error when
  /// !trainable().
  std::vector<ml::Parameter> parameters() override;

 private:
  MicroModel() = default;  // inference-only shell for load_inference
  void compile();          // snapshots the live weights into session_
  void require_trainable(const char* what) const;

  Config config_;
  std::unique_ptr<ml::SequenceModel> trunk_;  // null when inference-only
  std::optional<ml::Linear> drop_head_;
  std::optional<ml::Linear> latency_head_;
  ml::Tensor norm_{1, 2, {std::log(10.0), 1.0}};  // default: ~10us fabric

  ml::Tensor norm_grad_{1, 2};  // unused, present for the Parameter interface
  std::unique_ptr<ml::InferenceSession> session_;
  std::unique_ptr<ml::SequenceModel::State> ref_state_;  // reference path
};

}  // namespace esim::approx
