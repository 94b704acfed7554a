#pragma once

/// \file normalizer.hpp
/// Per-channel input normalization fitted on the training set (max-abs
/// scaling, robust for non-negative physical maps) plus the fixed label
/// scale that keeps the regression target O(1) during training.

#include <map>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "train/sample.hpp"

namespace irf::train {

/// Labels (volts) are multiplied by this during training; predictions are
/// divided by it before metrics. 100 puts a ~10 mV worst drop at ~1.0.
inline constexpr float kLabelScale = 100.0f;

class Normalizer {
 public:
  /// Fit per-channel max-abs scales over the training samples (both stacks).
  static Normalizer fit(const std::vector<Sample>& train_samples);

  /// Scale factor for a channel (1 / max-abs; 1.0 for unseen channels).
  float scale_for(const std::string& channel_name) const;

  /// Assemble the normalized input tensor [1, C, H, W] for a view.
  nn::Tensor input_tensor(const Sample& sample, FeatureView view) const;

  /// Label tensor [1, 1, H, W], scaled by kLabelScale.
  static nn::Tensor label_tensor(const Sample& sample);

  /// Split a model output [N, 1, H, W] into N maps in volts.
  static std::vector<GridF> prediction_to_volts(const nn::Tensor& output);

  /// Serialization access (pipeline checkpoints).
  const std::map<std::string, float>& scales() const { return scales_; }
  static Normalizer from_scales(std::map<std::string, float> scales);

 private:
  std::map<std::string, float> scales_;
};

}  // namespace irf::train
