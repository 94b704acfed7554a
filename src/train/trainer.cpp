#include "train/trainer.hpp"

#include <cmath>

#include "check/check.hpp"
#include "common/error.hpp"
#include "nn/optimizer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/par.hpp"

namespace irf::train {

namespace {
/// Global gradient-norm bound applied before every optimizer step.
constexpr double kGradClip = 5.0;
}  // namespace

TrainHistory train_model(models::IrModel& model, const std::vector<Sample>& samples,
                         FeatureView view, const Normalizer& normalizer,
                         const TrainOptions& options) {
  if (samples.empty()) throw ConfigError("train_model: empty sample list");
  if (options.lr_min_ratio <= 0.0 || options.lr_min_ratio > 1.0) {
    throw ConfigError("lr_min_ratio must be in (0, 1]");
  }
  obs::ScopedSpan train_span("train_model", "train");
  train_span.add_arg("epochs", options.epochs);
  train_span.add_arg("samples", static_cast<double>(samples.size()));
  model.set_training(true);
  nn::Adam optimizer(model.parameters(), options.learning_rate, 0.9, 0.999, 1e-8,
                     options.weight_decay);
  CurriculumScheduler scheduler(samples, options.epochs, options.curriculum,
                                Rng(options.seed));

  TrainHistory history;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.lr_min_ratio < 1.0 && options.epochs > 1) {
      // Cosine decay from learning_rate to learning_rate * lr_min_ratio.
      const double t = static_cast<double>(epoch) / (options.epochs - 1);
      const double floor = options.learning_rate * options.lr_min_ratio;
      optimizer.lr() = floor + 0.5 * (options.learning_rate - floor) *
                                   (1.0 + std::cos(3.14159265358979323846 * t));
    }
    obs::ScopedSpan epoch_span("train_epoch", "train");
    epoch_span.add_arg("epoch", epoch);
    const std::vector<int> order = scheduler.epoch_indices(epoch);
    double loss_sum = 0.0;
    for (int idx : order) {
      const Sample& sample = samples[static_cast<std::size_t>(idx)];
      nn::Tensor input = normalizer.input_tensor(sample, view);
      nn::Tensor target = Normalizer::label_tensor(sample);
      nn::Tensor pred = model.forward(input);
      nn::Tensor loss = model.loss(pred, target);
      optimizer.zero_grad();
      loss.backward();
      optimizer.clip_grad_norm(kGradClip);
      optimizer.step();
      loss_sum += loss.scalar();
    }
    const double mean_loss = order.empty() ? 0.0 : loss_sum / order.size();
    history.epoch_loss.push_back(mean_loss);
    obs::count("train.samples_trained", order.size());
    obs::set_gauge("train.epoch_loss", mean_loss);
    obs::set_gauge("train.curriculum.hard_fraction", scheduler.hard_fraction(epoch));
    obs::verbose() << "epoch " << epoch << " mean loss " << mean_loss;
  }
  obs::count("train.epochs", static_cast<std::uint64_t>(options.epochs));
  history.seconds = train_span.seconds();
  model.set_training(false);
  return history;
}

std::vector<GridF> predict_volts(models::IrModel& model,
                                 const std::vector<const Sample*>& batch, FeatureView view,
                                 const Normalizer& normalizer) {
  if (batch.empty()) throw ConfigError("predict_volts: empty batch");
  obs::ScopedSpan span("infer", "train");
  obs::count("train.inferences", batch.size());
  model.set_training(false);
  // No tape: each activation dies with its last handle inside the forward.
  const nn::NoGradGuard no_grad;
  nn::Shape shape;
  std::vector<float> data;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const nn::Tensor t = normalizer.input_tensor(*batch[i], view);
    if (i == 0) {
      shape = t.shape();
      data.reserve(static_cast<std::size_t>(shape.numel()) * batch.size());
    } else if (!(t.shape() == shape)) {
      throw DimensionError("predict_volts: mixed input shapes " + shape.str() + " and " +
                           t.shape().str() + " in one batch");
    }
    data.insert(data.end(), t.data().begin(), t.data().end());
  }
  shape.n = static_cast<int>(batch.size());
  const nn::Tensor pred = model.forward(nn::Tensor::from_data(shape, std::move(data)));
  IRF_CHECK_FINITE(pred.data(), "model forward output");
  const nn::Shape& out = pred.shape();
  if (out.n != shape.n || out.c != 1 || out.h != shape.h || out.w != shape.w) {
    throw DimensionError("predict_volts: model returned " + out.str() + " for input " +
                         shape.str());
  }
  return Normalizer::prediction_to_volts(pred);
}

AggregateMetrics evaluate_model(models::IrModel& model, const std::vector<Sample>& samples,
                                FeatureView view, const Normalizer& normalizer,
                                double extra_runtime_per_design) {
  if (samples.empty()) throw ConfigError("evaluate_model: empty sample list");
  model.set_training(false);
  obs::ScopedSpan span("evaluate_model", "train");
  // Inference stays sequential (the conv kernels already fan out inside one
  // forward pass, and module state is not thread-safe); the per-sample map
  // metrics have no shared state, so they fan out one sample per chunk.
  std::vector<GridF> preds;
  preds.reserve(samples.size());
  for (const Sample& sample : samples) {
    preds.push_back(std::move(predict_volts(model, {&sample}, view, normalizer).front()));
  }
  std::vector<MapMetrics> per_design(samples.size());
  par::parallel_for(0, static_cast<std::int64_t>(samples.size()), 1,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        per_design[i] = evaluate_map(preds[i], samples[i].label);
                      }
                    });
  AggregateMetrics agg = aggregate(per_design);
  agg.runtime_seconds =
      span.seconds() / static_cast<double>(samples.size()) + extra_runtime_per_design;
  return agg;
}

}  // namespace irf::train
