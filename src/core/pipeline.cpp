#include "core/pipeline.hpp"

#include <cmath>
#include <memory>

#include "check/check.hpp"
#include "common/error.hpp"
#include "models/unet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace irf::core {

using train::FeatureView;
using train::PreparedDesign;
using train::Sample;

void validate_config(const PipelineConfig& config) {
  if (config.image_size <= 0 || config.image_size % 16 != 0) {
    throw ConfigError("pipeline image_size must be positive and divisible by 16, got " +
                      std::to_string(config.image_size));
  }
  if (config.rough_iterations < 1) {
    throw ConfigError("pipeline needs >= 1 rough iteration, got " +
                      std::to_string(config.rough_iterations));
  }
  if (config.epochs < 1) {
    throw ConfigError("pipeline needs >= 1 training epoch, got " +
                      std::to_string(config.epochs));
  }
  if (config.base_channels < 1) {
    throw ConfigError("pipeline needs >= 1 base channel, got " +
                      std::to_string(config.base_channels));
  }
  if (!std::isfinite(config.learning_rate) || config.learning_rate <= 0.0) {
    throw ConfigError("pipeline learning_rate must be finite and positive, got " +
                      std::to_string(config.learning_rate));
  }
}

IrFusionPipeline::IrFusionPipeline(PipelineConfig config)
    : config_(config), rng_(config.seed) {
  validate_config(config_);
}

IrFusionPipeline IrFusionPipeline::restore(PipelineConfig config,
                                           train::Normalizer normalizer,
                                           std::unique_ptr<models::IrModel> model) {
  if (!model) throw ConfigError("restore: model must not be null");
  IrFusionPipeline pipeline(config);
  pipeline.normalizer_ = std::move(normalizer);
  pipeline.model_ = std::move(model);
  pipeline.model_->set_training(false);
  pipeline.fitted_ = true;
  return pipeline;
}

FeatureView IrFusionPipeline::view() const {
  if (!config_.use_numerical) {
    // Without the numerical solution the hierarchy flag still applies; the
    // non-hierarchical no-numerical view equals the baselines' structural one.
    return config_.use_hierarchical ? FeatureView::kFusionNoNum
                                    : FeatureView::kStructuralFlat;
  }
  return config_.use_hierarchical ? FeatureView::kFusionHier : FeatureView::kFusionFlat;
}

Sample IrFusionPipeline::sample_for(const PreparedDesign& prepared) const {
  return train::make_sample(prepared, config_.rough_iterations, config_.image_size);
}

train::TrainHistory IrFusionPipeline::fit(
    const std::vector<PreparedDesign>& train_designs) {
  if (train_designs.empty()) throw ConfigError("fit: no training designs");
  obs::ScopedSpan fit_span("pipeline_fit", "pipeline");
  fit_span.add_arg("designs", static_cast<double>(train_designs.size()));
  std::vector<Sample> samples = train::make_samples(
      train_designs, config_.rough_iterations, config_.image_size);
  if (config_.use_augmentation) samples = train::augment_rotations(samples);
  if (refines_rough_solution()) {
    // Retarget to the residual the refinement network must learn.
    for (Sample& s : samples) {
      for (std::size_t i = 0; i < s.label.size(); ++i) {
        s.label.data()[i] -= s.rough_bottom.data()[i];
      }
    }
  }
  normalizer_ = train::Normalizer::fit(samples);

  const int channels = train::view_channel_count(samples.front(), view());
  model_ = models::make_ir_fusion_net(channels, config_.base_channels, rng_,
                                      config_.use_inception, config_.use_cbam);

  train::TrainOptions options;
  options.epochs = config_.epochs;
  options.learning_rate = config_.learning_rate;
  options.seed = config_.seed + 1;
  options.curriculum = config_.use_curriculum;
  // Converge the refinement head cleanly: gentle cosine LR decay plus a
  // little decoupled weight decay keep the learned correction's noise floor
  // low at large iteration budgets. The decay floor stays moderate because
  // the curriculum admits the hard (real) designs in later epochs — they
  // still need a workable learning rate when they arrive.
  options.lr_min_ratio = 0.4;
  options.weight_decay = 1e-4;
  train::TrainHistory history =
      train::train_model(*model_, samples, view(), normalizer_, options);
  fitted_ = true;
  return history;
}

GridF IrFusionPipeline::analyze(const pg::PgDesign& design) const {
  return analyze_with_diagnostics(design).prediction;
}

IrFusionPipeline::Diagnostics IrFusionPipeline::analyze_with_diagnostics(
    const pg::PgDesign& design) const {
  if (!fitted_) throw ConfigError("analyze: pipeline not fitted");
  obs::ScopedSpan analyze_span("analyze", "pipeline");
  obs::count("pipeline.analyses");
  Diagnostics diag;
  diag.rough_iterations = config_.rough_iterations;

  // Numerical stage: MNA assembly + AMG setup + rough PCG iterations.
  // (unique_ptr so the span closes at the stage boundary; amg_setup and
  // rough_solve nest inside it.)
  auto solve_span = std::make_unique<obs::ScopedSpan>("numerical_stage", "pipeline");
  pg::PgSolver solver(design);
  const pg::PgSolution rough = solver.solve_rough(config_.rough_iterations);
  diag.solve_seconds = solve_span->seconds();
  solve_span.reset();

  // Fusion stage: hierarchical numerical-structural features + inference;
  // feature_extract and infer spans nest inside it.
  obs::ScopedSpan fusion_span("fusion_stage", "pipeline");
  Sample sample = train::fused_sample(design, rough, config_.image_size);
  sample.label = GridF(config_.image_size, config_.image_size, 0.0f);  // unused

  diag.rough = sample.rough_bottom;
  diag.prediction = std::move(predict({&sample}).front());
  IRF_CHECK_FINITE(diag.prediction.data(), "fusion-stage prediction");
  diag.inference_seconds = fusion_span.seconds();

  diag.correction = diag.prediction;
  for (std::size_t i = 0; i < diag.correction.size(); ++i) {
    diag.correction.data()[i] -= diag.rough.data()[i];
  }
  return diag;
}

std::vector<GridF> IrFusionPipeline::predict(
    const std::vector<const Sample*>& batch) const {
  if (!fitted_) throw ConfigError("predict: pipeline not fitted");
  std::vector<GridF> maps = train::predict_volts(*model_, batch, view(), normalizer_);
  if (refines_rough_solution()) {
    for (std::size_t b = 0; b < maps.size(); ++b) {
      const GridF& rough = batch[b]->rough_bottom;
      for (std::size_t i = 0; i < maps[b].size(); ++i) {
        maps[b].data()[i] += rough.data()[i];
      }
    }
  }
  return maps;
}

train::AggregateMetrics IrFusionPipeline::evaluate(
    const std::vector<PreparedDesign>& test_designs) const {
  if (!fitted_) throw ConfigError("evaluate: pipeline not fitted");
  if (test_designs.empty()) throw ConfigError("evaluate: no test designs");
  std::vector<train::MapMetrics> per_design;
  double runtime = 0.0;
  for (const PreparedDesign& prepared : test_designs) {
    obs::ScopedSpan span("evaluate_design", "pipeline");
    Sample sample = sample_for(prepared);  // rough solve + feature fusion
    const GridF pred = std::move(predict({&sample}).front());
    runtime += span.seconds();
    per_design.push_back(train::evaluate_map(pred, sample.label));
  }
  train::AggregateMetrics agg = train::aggregate(per_design);
  agg.runtime_seconds = runtime / static_cast<double>(test_designs.size());
  return agg;
}

}  // namespace irf::core
