#pragma once

/// \file trainer.hpp
/// Training and evaluation drivers shared by all experiments. Training uses
/// Adam, per-sample steps (batch 1), gradient clipping, and optionally the
/// curriculum scheduler; evaluation reports the Table-I metrics plus
/// per-design inference runtime.

#include <vector>

#include "models/ir_model.hpp"
#include "train/curriculum.hpp"
#include "train/metrics.hpp"
#include "train/normalizer.hpp"
#include "train/sample.hpp"

namespace irf::train {

struct TrainOptions {
  int epochs = 6;
  double learning_rate = 2e-3;
  /// Decoupled (AdamW) weight decay; 0 disables.
  double weight_decay = 0.0;
  /// Cosine learning-rate decay floor as a fraction of learning_rate
  /// (1.0 == constant LR).
  double lr_min_ratio = 1.0;
  /// Predefined curriculum (easy fake designs first); false admits every
  /// sample from epoch 0. The oversampling applies either way.
  bool curriculum = true;
  std::uint64_t seed = 1;
};

struct TrainHistory {
  std::vector<double> epoch_loss;  ///< mean train loss per epoch
  double seconds = 0.0;
};

/// Train `model` on `samples` (already augmented/oversampled upstream of the
/// curriculum multipliers) using the channels of `view`.
TrainHistory train_model(models::IrModel& model, const std::vector<Sample>& samples,
                         FeatureView view, const Normalizer& normalizer,
                         const TrainOptions& options);

/// Batched inference in volts, the one code path that runs a fitted model:
/// the normalized inputs of `batch` are stacked into one [N,C,H,W] tensor,
/// one forward runs, and the [N,1,H,W] output comes back as one map per
/// sample, in batch order. Per-sample kernels make every map bit-identical
/// to a one-element call. The forward runs under nn::NoGradGuard, so it
/// records no tape. Throws irf::DimensionError when the samples'
/// input shapes differ or the model returns a wrong shape, irf::CheckError
/// (debug checks) on a non-finite output.
std::vector<GridF> predict_volts(models::IrModel& model,
                                 const std::vector<const Sample*>& batch, FeatureView view,
                                 const Normalizer& normalizer);

/// Evaluate on held-out samples; `extra_runtime_per_design` accounts for the
/// numerical stage of fusion methods (solver + feature time).
AggregateMetrics evaluate_model(models::IrModel& model, const std::vector<Sample>& samples,
                                FeatureView view, const Normalizer& normalizer,
                                double extra_runtime_per_design = 0.0);

}  // namespace irf::train
