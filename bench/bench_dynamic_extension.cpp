// Extension experiment (beyond the paper's static scope, motivated by its
// MAVIREC citation): dynamic worst-case IR prediction. Designs carry decap
// and clock-gated switching loads; the golden label is the transient
// worst-drop envelope. We compare:
//   * static rough map scored directly (the numerical lower bound),
//   * a structural-features U-Net (MAVIREC-style pure ML),
//   * the fusion recipe (static rough basis + hierarchical features).
// Expected shape: the rough static map under-predicts (dynamic droop above
// DC), pure ML is noisy, and fusion tracks the envelope best.

#include <iomanip>
#include <iostream>

#include "common/env.hpp"
#include "models/unet.hpp"
#include "train/dynamic.hpp"
#include "train/trainer.hpp"
#include "obs/obs.hpp"

int main() {
  using namespace irf;
  try {
    std::cout.setf(std::ios::unitbuf);
    irf::obs::enable_bench_metrics("bench_dynamic_extension");
    const ScaleConfig config = resolve_scale_from_env();
    std::cout << "bench_dynamic_extension — transient worst-case IR prediction\n";
    std::cout << "config: " << config.describe() << "\n";

    train::DynamicDatasetConfig dyn;
    dyn.transient.timestep = 2e-10;
    dyn.transient.duration = 6e-9;
    dyn.activity.pulse_peak_ratio = 5.0;
    dyn.rough_iterations = config.rough_iters;

    std::cout << "building dynamic design set (transient envelopes)...\n";
    train::DynamicDesignSet set = train::build_dynamic_design_set(config, dyn);
    std::vector<train::Sample> train_samples =
        train::make_dynamic_samples(set.train, dyn.rough_iterations, set.image_size);
    train_samples = train::augment_rotations(train_samples);
    std::vector<train::Sample> test_samples =
        train::make_dynamic_samples(set.test, dyn.rough_iterations, set.image_size);
    const train::Normalizer normalizer = train::Normalizer::fit(train_samples);

    train::TrainOptions opts;
    opts.epochs = config.epochs;
    opts.learning_rate = config.learning_rate;
    opts.lr_min_ratio = 0.1;
    opts.seed = config.seed + 99;

    // Numerical lower bound: score the static rough map directly.
    std::vector<train::MapMetrics> rough_metrics;
    for (const train::Sample& s : test_samples) {
      rough_metrics.push_back(train::evaluate_map(s.rough_bottom, s.label));
    }
    const train::AggregateMetrics rough = train::aggregate(rough_metrics);

    // Pure-ML baseline on structural features.
    Rng rng(config.seed + 5);
    const int flat_ch = train::view_channel_count(train_samples.front(),
                                                  train::FeatureView::kStructuralFlat);
    auto baseline = models::make_mavirec(flat_ch, config.base_channels, rng);
    std::cout << "training structural baseline...\n";
    train::train_model(*baseline, train_samples, train::FeatureView::kStructuralFlat,
                       normalizer, opts);
    const train::AggregateMetrics ml = train::evaluate_model(
        *baseline, test_samples, train::FeatureView::kStructuralFlat, normalizer);

    // Fusion: residual on the static rough basis with hierarchical features.
    const int hier_ch = train::view_channel_count(train_samples.front(),
                                                  train::FeatureView::kFusionHier);
    auto fusion = models::make_ir_fusion_net(hier_ch, config.base_channels, rng);
    std::vector<train::Sample> residual_samples = train_samples;
    for (train::Sample& s : residual_samples) {
      for (std::size_t i = 0; i < s.label.size(); ++i) {
        s.label.data()[i] -= s.rough_bottom.data()[i];
      }
    }
    std::cout << "training fusion model...\n";
    train::train_model(*fusion, residual_samples, train::FeatureView::kFusionHier,
                       normalizer, opts);
    std::vector<train::MapMetrics> fusion_metrics;
    for (const train::Sample& s : test_samples) {
      GridF pred = std::move(train::predict_volts(*fusion, {&s},
                                                  train::FeatureView::kFusionHier,
                                                  normalizer)
                                 .front());
      for (std::size_t i = 0; i < pred.size(); ++i) {
        pred.data()[i] += s.rough_bottom.data()[i];
      }
      fusion_metrics.push_back(train::evaluate_map(pred, s.label));
    }
    const train::AggregateMetrics fused = train::aggregate(fusion_metrics);

    std::cout << "\nDynamic extension (MAE/MIRDE in 1e-4 V, labels = transient envelope)\n";
    std::cout << std::left << std::setw(26) << "Method" << std::right << std::setw(10)
              << "MAE" << std::setw(8) << "F1" << std::setw(10) << "MIRDE" << "\n";
    auto row = [](const std::string& name, const train::AggregateMetrics& m) {
      std::cout << std::left << std::setw(26) << name << std::right << std::fixed
                << std::setw(10) << std::setprecision(2) << m.mae_1e4() << std::setw(8)
                << m.f1 << std::setw(10) << m.mirde_1e4() << "\n";
    };
    row("static rough (numerical)", rough);
    row("structural U-Net (ML)", ml);
    row("fusion (rough + ML)", fused);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_dynamic_extension failed: " << e.what() << "\n";
    return 1;
  }
}
