#include "core/experiments.hpp"

#include <filesystem>
#include <functional>
#include <iomanip>

#include "common/image_io.hpp"
#include "common/stopwatch.hpp"
#include "features/extractor.hpp"
#include "models/irpnet.hpp"
#include "models/unet.hpp"
#include "train/trainer.hpp"

namespace irf::core {

using train::DesignSet;
using train::FeatureView;
using train::PreparedDesign;
using train::Sample;

namespace {

train::TrainOptions baseline_train_options(const ScaleConfig& config) {
  train::TrainOptions options;
  options.epochs = config.epochs;
  options.learning_rate = config.learning_rate;
  options.seed = config.seed + 17;
  options.curriculum = false;  // curriculum is IR-Fusion's technique
  return options;
}

PipelineConfig pipeline_config_from(const ScaleConfig& config) {
  PipelineConfig pc;
  pc.image_size = config.image_size;
  pc.rough_iterations = config.rough_iters;
  pc.base_channels = config.base_channels;
  pc.epochs = config.epochs;
  pc.learning_rate = config.learning_rate;
  pc.seed = config.seed + 29;
  return pc;
}

}  // namespace

train::AggregateMetrics evaluate_powerrush(const std::vector<PreparedDesign>& designs,
                                           int iterations, int image_size) {
  std::vector<train::MapMetrics> per_design;
  double runtime = 0.0;
  for (const PreparedDesign& p : designs) {
    Stopwatch timer;
    const pg::PgSolution rough = p.solver->solve_rough(iterations);
    const GridF pred = features::label_map(*p.design, rough, image_size);
    runtime += timer.seconds();
    const GridF golden = features::label_map(*p.design, p.golden, image_size);
    per_design.push_back(train::evaluate_map(pred, golden));
  }
  train::AggregateMetrics agg = train::aggregate(per_design);
  agg.runtime_seconds = runtime / static_cast<double>(designs.size());
  return agg;
}

std::vector<Table1Row> run_table1(const ScaleConfig& config, const DesignSet& designs,
                                  std::ostream& out) {
  out << "[table1] " << config.describe() << "\n";
  out << "[table1] materializing samples (rough_iters=" << config.rough_iters << ")\n";
  std::vector<Sample> train_samples =
      train::make_samples(designs.train, config.rough_iters, designs.image_size);
  train_samples = train::augment_rotations(train_samples);  // all methods use aug data
  std::vector<Sample> test_samples =
      train::make_samples(designs.test, config.rough_iters, designs.image_size);
  const train::Normalizer normalizer = train::Normalizer::fit(train_samples);

  struct MethodSpec {
    std::string name;
    FeatureView view;
    std::function<std::unique_ptr<models::IrModel>(int, Rng&)> make;
  };
  const int b = config.base_channels;
  const std::vector<MethodSpec> baselines = {
      {"IREDGe", FeatureView::kIccadTriplet,
       [b](int ch, Rng& r) { return models::make_iredge(ch, b, r); }},
      {"MAVIREC", FeatureView::kStructuralFlat,
       [b](int ch, Rng& r) { return models::make_mavirec(ch, b, r); }},
      {"IRPnet", FeatureView::kStructuralFlat,
       [b](int ch, Rng& r) { return models::make_irpnet(ch, b, r); }},
      {"PGAU", FeatureView::kStructuralFlat,
       [b](int ch, Rng& r) { return models::make_pgau(ch, b, r); }},
      {"MAUnet", FeatureView::kStructuralFlat,
       [b](int ch, Rng& r) { return models::make_maunet(ch, b, r); }},
      {"ContestWinner", FeatureView::kStructuralFlat,
       [b](int ch, Rng& r) { return models::make_contest_winner(ch, b, r); }},
  };

  std::vector<Table1Row> rows;
  for (const MethodSpec& spec : baselines) {
    Rng rng(config.seed + std::hash<std::string>{}(spec.name));
    const int channels = train::view_channel_count(train_samples.front(), spec.view);
    std::unique_ptr<models::IrModel> model = spec.make(channels, rng);
    out << "[table1] training " << spec.name << " (" << model->num_parameters()
        << " params, " << channels << " input channels)\n";
    train::TrainHistory history = train::train_model(
        *model, train_samples, spec.view, normalizer, baseline_train_options(config));
    train::AggregateMetrics m =
        train::evaluate_model(*model, test_samples, spec.view, normalizer);
    rows.push_back({spec.name, m.mae_1e4(), m.f1, m.runtime_seconds, m.mirde_1e4()});
    out << "[table1]   trained in " << std::fixed << std::setprecision(1)
        << history.seconds << "s, final loss " << std::setprecision(5)
        << history.epoch_loss.back() << "\n";
  }

  // IR-Fusion through the full pipeline (curriculum + numerical runtime).
  out << "[table1] training IR-Fusion pipeline\n";
  IrFusionPipeline pipeline(pipeline_config_from(config));
  pipeline.fit(designs.train);
  train::AggregateMetrics m = pipeline.evaluate(designs.test);
  rows.push_back({"IR-Fusion", m.mae_1e4(), m.f1, m.runtime_seconds, m.mirde_1e4()});

  out << "\nTABLE I  Main results (MAE/MIRDE in 1e-4 V, runtime in s/design)\n";
  out << std::left << std::setw(16) << "Method" << std::right << std::setw(10) << "MAE"
      << std::setw(8) << "F1" << std::setw(12) << "Runtime" << std::setw(10) << "MIRDE"
      << "\n";
  for (const Table1Row& r : rows) {
    out << std::left << std::setw(16) << r.method << std::right << std::fixed
        << std::setw(10) << std::setprecision(2) << r.mae << std::setw(8)
        << std::setprecision(2) << r.f1 << std::setw(12) << std::setprecision(4)
        << r.runtime << std::setw(10) << std::setprecision(2) << r.mirde << "\n";
  }
  return rows;
}

std::vector<TradeoffPoint> run_tradeoff(const ScaleConfig& config,
                                        const DesignSet& designs, int max_iterations,
                                        std::ostream& out) {
  out << "[fig7] " << config.describe() << "\n";
  std::vector<TradeoffPoint> points;
  for (int k = 1; k <= max_iterations; ++k) {
    TradeoffPoint p;
    p.iterations = k;
    const train::AggregateMetrics pr =
        evaluate_powerrush(designs.test, k, designs.image_size);
    p.powerrush_mae = pr.mae_1e4();
    p.powerrush_f1 = pr.f1;

    PipelineConfig pc = pipeline_config_from(config);
    pc.rough_iterations = k;
    pc.seed = config.seed + 100 + static_cast<std::uint64_t>(k);
    IrFusionPipeline pipeline(pc);
    pipeline.fit(designs.train);
    const train::AggregateMetrics fm = pipeline.evaluate(designs.test);
    p.fusion_mae = fm.mae_1e4();
    p.fusion_f1 = fm.f1;
    points.push_back(p);
    out << "[fig7] k=" << k << " PowerRush MAE=" << std::fixed << std::setprecision(2)
        << p.powerrush_mae << " F1=" << p.powerrush_f1 << " | IR-Fusion MAE="
        << p.fusion_mae << " F1=" << p.fusion_f1 << "\n";
  }

  out << "\nFig. 7  Trade-off (MAE in 1e-4 V)\n";
  out << std::right << std::setw(6) << "iters" << std::setw(14) << "PR MAE"
      << std::setw(10) << "PR F1" << std::setw(14) << "Fusion MAE" << std::setw(12)
      << "Fusion F1" << "\n";
  for (const TradeoffPoint& p : points) {
    out << std::right << std::setw(6) << p.iterations << std::fixed << std::setw(14)
        << std::setprecision(2) << p.powerrush_mae << std::setw(10)
        << std::setprecision(3) << p.powerrush_f1 << std::setw(14)
        << std::setprecision(2) << p.fusion_mae << std::setw(12) << std::setprecision(3)
        << p.fusion_f1 << "\n";
  }
  return points;
}

std::vector<AblationRow> run_ablation(const ScaleConfig& config, const DesignSet& designs,
                                      std::ostream& out) {
  out << "[fig8] " << config.describe() << "\n";
  struct Variant {
    std::string removed;
    std::function<void(PipelineConfig&)> apply;
  };
  const std::vector<Variant> variants = {
      {"Num. Solu.", [](PipelineConfig& c) { c.use_numerical = false; }},
      {"Hierarchy", [](PipelineConfig& c) { c.use_hierarchical = false; }},
      {"Inception", [](PipelineConfig& c) { c.use_inception = false; }},
      {"CBAM", [](PipelineConfig& c) { c.use_cbam = false; }},
      {"Data Aug.", [](PipelineConfig& c) { c.use_augmentation = false; }},
      {"Curr. Lear.", [](PipelineConfig& c) { c.use_curriculum = false; }},
  };

  auto run_variant = [&](const std::function<void(PipelineConfig&)>* apply) {
    PipelineConfig pc = pipeline_config_from(config);
    if (apply) (*apply)(pc);
    IrFusionPipeline pipeline(pc);
    pipeline.fit(designs.train);
    return pipeline.evaluate(designs.test);
  };

  out << "[fig8] training full configuration\n";
  const train::AggregateMetrics full = run_variant(nullptr);
  out << "[fig8] full: MAE=" << std::fixed << std::setprecision(2) << full.mae_1e4()
      << " F1=" << std::setprecision(3) << full.f1 << "\n";

  std::vector<AblationRow> rows;
  for (const Variant& v : variants) {
    out << "[fig8] training w/o " << v.removed << "\n";
    const train::AggregateMetrics m = run_variant(&v.apply);
    AblationRow row;
    row.removed = v.removed;
    row.mae_increase = full.mae > 0.0 ? (m.mae - full.mae) / full.mae : 0.0;
    row.f1_decrease = full.f1 > 0.0 ? (full.f1 - m.f1) / full.f1 : 0.0;
    rows.push_back(row);
    out << "[fig8]   MAE=" << std::fixed << std::setprecision(2) << m.mae_1e4()
        << " F1=" << std::setprecision(3) << m.f1 << "\n";
  }

  out << "\nFig. 8  Ablation (ratios vs full IR-Fusion)\n";
  out << std::left << std::setw(16) << "w/o" << std::right << std::setw(14)
      << "MAE incr %" << std::setw(14) << "F1 decr %" << "\n";
  for (const AblationRow& r : rows) {
    out << std::left << std::setw(16) << r.removed << std::right << std::fixed
        << std::setw(14) << std::setprecision(1) << 100.0 * r.mae_increase
        << std::setw(14) << std::setprecision(1) << 100.0 * r.f1_decrease << "\n";
  }
  return rows;
}

Fig6Result run_fig6(const ScaleConfig& config, const DesignSet& designs,
                    const std::string& output_dir, std::ostream& out) {
  out << "[fig6] " << config.describe() << "\n";
  std::filesystem::create_directories(output_dir);

  std::vector<Sample> train_samples =
      train::make_samples(designs.train, config.rough_iters, designs.image_size);
  train_samples = train::augment_rotations(train_samples);
  const train::Normalizer normalizer = train::Normalizer::fit(train_samples);

  // MAUnet baseline.
  Rng rng(config.seed + 3);
  const int channels =
      train::view_channel_count(train_samples.front(), FeatureView::kStructuralFlat);
  std::unique_ptr<models::IrModel> maunet =
      models::make_maunet(channels, config.base_channels, rng);
  out << "[fig6] training MAUnet\n";
  train::train_model(*maunet, train_samples, FeatureView::kStructuralFlat, normalizer,
                     baseline_train_options(config));

  out << "[fig6] training IR-Fusion\n";
  IrFusionPipeline pipeline(pipeline_config_from(config));
  pipeline.fit(designs.train);

  const PreparedDesign& target = designs.test.front();
  Sample sample = train::make_sample(target, config.rough_iters, designs.image_size);
  const GridF golden = sample.label;
  const GridF maunet_pred = std::move(
      train::predict_volts(*maunet, {&sample}, FeatureView::kStructuralFlat, normalizer)
          .front());
  const GridF fusion_pred = pipeline.analyze(*target.design);

  Fig6Result result;
  result.design_name = target.design->name;
  result.maunet_mae = mean_abs_diff(maunet_pred, golden) * 1e4;
  result.fusion_mae = mean_abs_diff(fusion_pred, golden) * 1e4;

  auto dump = [&](const GridF& grid, const std::string& stem) {
    const std::string pgm = output_dir + "/" + stem + ".pgm";
    const std::string csv = output_dir + "/" + stem + ".csv";
    write_pgm(grid, pgm);
    write_csv(grid, csv);
    result.written_files.push_back(pgm);
    result.written_files.push_back(csv);
  };
  dump(golden, "golden");
  dump(maunet_pred, "maunet");
  dump(fusion_pred, "ir_fusion");

  out << "\nFig. 6  Visual comparison on " << result.design_name << "\n";
  out << "  MAUnet    MAE = " << std::fixed << std::setprecision(2) << result.maunet_mae
      << " x1e-4 V\n";
  out << "  IR-Fusion MAE = " << result.fusion_mae << " x1e-4 V\n";
  out << "  maps written to " << output_dir << "\n";
  return result;
}

}  // namespace irf::core
