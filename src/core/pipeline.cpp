#include "core/pipeline.hpp"

#include <cmath>
#include <fstream>

#include <memory>

#include "check/check.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "features/extractor.hpp"
#include "models/unet.hpp"
#include "nn/serialize.hpp"
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
  options.curriculum.enabled = config_.use_curriculum;
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
  features::FeatureOptions opts;
  opts.image_size = config_.image_size;
  opts.hierarchical = true;
  opts.include_numerical = true;
  Sample sample;
  sample.design_name = design.name;
  sample.kind = design.kind;
  sample.hier = features::extract_features(design, &rough, opts);
  opts.hierarchical = false;
  sample.flat = features::extract_features(design, &rough, opts);
  sample.label = GridF(config_.image_size, config_.image_size, 0.0f);  // unused
  sample.rough_bottom = features::label_map(design, rough, config_.image_size);

  diag.rough = sample.rough_bottom;
  diag.prediction = predict(sample);
  IRF_CHECK_FINITE(diag.prediction.data(), "fusion-stage prediction");
  diag.inference_seconds = fusion_span.seconds();

  diag.correction = diag.prediction;
  for (std::size_t i = 0; i < diag.correction.size(); ++i) {
    diag.correction.data()[i] -= diag.rough.data()[i];
  }
  return diag;
}

GridF IrFusionPipeline::predict(const Sample& sample) const {
  GridF out = train::predict_volts(*model_, sample, view(), normalizer_);
  if (refines_rough_solution()) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.data()[i] += sample.rough_bottom.data()[i];
    }
  }
  return out;
}

namespace {
constexpr std::uint32_t kPipelineMagic = 0x49524650;  // "IRFP"

void write_string(std::ostream& out, const std::string& s) {
  write_pod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}
std::string read_string(std::istream& in) {
  std::uint32_t n = 0;
  read_pod(in, n);
  std::string s(n, '\0');
  in.read(s.data(), static_cast<std::streamsize>(n));
  return s;
}
}  // namespace

void IrFusionPipeline::save(const std::string& path) const {
  if (!fitted_) throw ConfigError("save: pipeline not fitted");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open pipeline checkpoint for write: " + path);
  write_pod(out, kPipelineMagic);
  write_pod(out, config_);
  write_pod(out, model_->in_channels());
  const auto& scales = normalizer_.scales();
  write_pod(out, static_cast<std::uint32_t>(scales.size()));
  for (const auto& [name, scale] : scales) {
    write_string(out, name);
    write_pod(out, scale);
  }
  nn::save_parameters(model_->parameters(), out);
  nn::save_buffers(model_->buffers(), out);
  if (!out) throw Error("pipeline checkpoint write failed: " + path);
}

IrFusionPipeline IrFusionPipeline::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open pipeline checkpoint for read: " + path);
  std::uint32_t magic = 0;
  read_pod(in, magic);
  if (magic != kPipelineMagic) throw ParseError("not a pipeline checkpoint: " + path);
  PipelineConfig config;
  read_pod(in, config);
  IrFusionPipeline pipeline(config);
  int channels = 0;
  read_pod(in, channels);
  std::uint32_t num_scales = 0;
  read_pod(in, num_scales);
  std::map<std::string, float> scales;
  for (std::uint32_t i = 0; i < num_scales; ++i) {
    std::string name = read_string(in);
    float scale = 0.0f;
    read_pod(in, scale);
    scales.emplace(std::move(name), scale);
  }
  if (!in) throw ParseError("pipeline checkpoint truncated: " + path);
  pipeline.normalizer_ = train::Normalizer::from_scales(std::move(scales));
  pipeline.model_ = models::make_ir_fusion_net(channels, config.base_channels,
                                               pipeline.rng_, config.use_inception,
                                               config.use_cbam);
  std::vector<nn::Tensor> params = pipeline.model_->parameters();
  nn::load_parameters(params, in);
  nn::load_buffers(pipeline.model_->buffers(), in);
  pipeline.model_->set_training(false);
  pipeline.fitted_ = true;
  return pipeline;
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
    GridF pred = predict(sample);
    runtime += span.seconds();
    per_design.push_back(train::evaluate_map(pred, sample.label));
  }
  train::AggregateMetrics agg = train::aggregate(per_design);
  agg.runtime_seconds = runtime / static_cast<double>(test_designs.size());
  return agg;
}

}  // namespace irf::core
