// Incremental re-analysis benchmark: quantifies what the serve engine's
// warm-start path (frozen AMG hierarchy + seeded PCG + dirty-channel feature
// refresh) buys over a cold rebuild on an ECO-style workload: one large
// design followed by a chain of current-map perturbations of it.
//
// Two engines serve the identical request sequence:
//
//   cold   the cache is cleared before each perturbation, so every one pays
//          MNA assembly, AMG setup, the full rough solve and full feature
//          extraction
//   warm   every perturbation rides the cached hierarchy and rough solution
//          of its predecessor
//
// Per round the served map is scored against a golden solve of that exact
// perturbed design; the fusion contract is that warm serving must not move
// this accuracy (the warm PCG targets the same residual the cold rough solve
// reached). Writes BENCH_incremental_serve.json and exits non-zero unless
//   max |mae_warm - mae_cold| <= 1e-8  AND  every perturbation was actually
// served warm. The warm/cold speedup is recorded, never enforced: speed is
// compared with interleaved perfbench pairs, not with a host-dependent bar.
// Pass --quick for CI-sized inputs.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "features/extractor.hpp"
#include "irf.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace {

using namespace irf;

struct Sizes {
  int design_px = 128;       ///< PDN grid resolution (the MNA/AMG cost driver)
  int image_px = 32;         ///< pipeline raster resolution
  int rounds = 4;            ///< ECO perturbations chained after the base
  int rough_iterations = 50; ///< fully converges the rough solve (fixed count)
};

struct Round {
  int index = 0;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  double mae_cold = 0.0;
  double mae_warm = 0.0;
};

double mae(const GridF& a, const GridF& b) {
  if (a.data().size() != b.data().size() || a.data().empty()) std::abort();
  double sum = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    sum += std::abs(static_cast<double>(a.data()[i]) - b.data()[i]);
  }
  return sum / static_cast<double>(a.data().size());
}

IrFusionPipeline train_pipeline(const Sizes& sz, const pg::PgDesign& base) {
  std::vector<train::PreparedDesign> prepared;
  train::PreparedDesign p;
  p.design = std::make_unique<pg::PgDesign>(base);
  p.solver = std::make_unique<pg::PgSolver>(*p.design);
  p.golden = p.solver->solve_golden();
  prepared.push_back(std::move(p));
  PipelineConfig pc;
  pc.image_size = sz.image_px;
  pc.base_channels = 2;  // model quality is irrelevant here; keep forwards cheap
  pc.epochs = 1;
  pc.rough_iterations = sz.rough_iterations;
  pc.seed = 42;
  IrFusionPipeline pipeline(pc);
  pipeline.fit(prepared);
  return pipeline;
}

/// Serve the base design (uncounted cache fill), then time each perturbation;
/// `cold` clears the cache before each one, so none finds a warm seed.
/// The serve_request timer is reset after the fill so its quantiles cover
/// exactly the perturbation requests of this engine's pass.
std::vector<double> timed_rounds(
    Engine& engine, const std::shared_ptr<const pg::PgDesign>& base,
    const std::vector<std::shared_ptr<const pg::PgDesign>>& perturbed, bool cold,
    std::vector<AnalysisResult>& results) {
  if (!engine.analyze(*base).ok()) std::abort();
  obs::MetricsRegistry::instance().timer("serve_request").reset();
  std::vector<double> seconds;
  for (const auto& d : perturbed) {
    if (cold) engine.clear_cache();
    Stopwatch sw;
    AnalysisResult r = engine.analyze(*d);
    seconds.push_back(sw.seconds());
    if (!r.ok()) std::abort();
    results.push_back(std::move(r));
  }
  return seconds;
}

/// End-to-end latency quantiles of one engine pass, captured from the
/// serve_request timer before the next pass resets it.
struct PassQuantiles {
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
};

PassQuantiles capture_quantiles() {
  const obs::Histogram::Snapshot s =
      obs::MetricsRegistry::instance().timer("serve_request").snapshot();
  return {s.p50(), s.p99()};
}

void write_json(const std::vector<Round>& rounds, double speedup,
                double mae_diff_max, const EngineStats& warm_stats,
                const PassQuantiles& cold_q, const PassQuantiles& warm_q) {
  std::ofstream f("BENCH_incremental_serve.json");
  f << "{\n  \"bench\": \"incremental_serve\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    f << "    {\"round\": " << r.index
      << ", \"cold_seconds\": " << obs::json_number(r.cold_seconds)
      << ", \"warm_seconds\": " << obs::json_number(r.warm_seconds)
      << ", \"mae_cold\": " << obs::json_number(r.mae_cold)
      << ", \"mae_warm\": " << obs::json_number(r.mae_warm) << "}"
      << (i + 1 < rounds.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"summary\": {\"speedup\": " << obs::json_number(speedup)
    << ", \"mae_diff_max\": " << obs::json_number(mae_diff_max)
    << ", \"warm_hits\": " << warm_stats.warm_hits
    << ", \"warm_fallbacks\": " << warm_stats.warm_fallbacks
    << ", \"cold_e2e_p50_seconds\": " << obs::json_number(cold_q.p50_seconds)
    << ", \"cold_e2e_p99_seconds\": " << obs::json_number(cold_q.p99_seconds)
    << ", \"warm_e2e_p50_seconds\": " << obs::json_number(warm_q.p50_seconds)
    << ", \"warm_e2e_p99_seconds\": " << obs::json_number(warm_q.p99_seconds) << "},\n"
    << "  \"metrics\": " << obs::metrics_json() << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Sizes sz;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      sz = Sizes{96, 32, 3, 50};
    } else {
      std::cerr << "usage: bench_incremental_serve [--quick]\n";
      return 1;
    }
  }
  obs::set_metrics_enabled(true);

  Rng rng(1234);
  auto base = std::make_shared<const pg::PgDesign>(
      pg::generate_fake_design(sz.design_px, rng, "eco_base"));

  // The ECO chain: each round rescales every current source slightly —
  // topology untouched, content hash new, exactly the bounded delta the warm
  // path is built for. The edit is small (an incremental activity update),
  // so the seeded PCG starts close and converges in a fraction of the cold
  // solve's fixed iteration budget.
  std::vector<std::shared_ptr<const pg::PgDesign>> perturbed;
  for (int r = 0; r < sz.rounds; ++r) {
    pg::PgDesign d = *base;
    d.name = "eco_round_" + std::to_string(r);
    d.netlist.scale_current_sources(1.0 + 0.0005 * (r + 1));
    perturbed.push_back(std::make_shared<const pg::PgDesign>(std::move(d)));
  }

  IrFusionPipeline pipeline = train_pipeline(sz, *base);
  const std::string checkpoint = "incremental_serve_model.irf";
  save_checkpoint(pipeline, checkpoint);

  std::vector<AnalysisResult> cold_results, warm_results;
  std::vector<double> cold_seconds, warm_seconds;
  PassQuantiles cold_q, warm_q;
  {
    auto engine = Engine::from_checkpoint(checkpoint);
    cold_seconds = timed_rounds(*engine, base, perturbed, /*cold=*/true, cold_results);
    cold_q = capture_quantiles();
  }
  EngineStats warm_stats;
  {
    auto engine = Engine::from_checkpoint(checkpoint);
    warm_seconds = timed_rounds(*engine, base, perturbed, /*cold=*/false, warm_results);
    warm_q = capture_quantiles();
    warm_stats = engine->stats();
  }

  // Score both request streams against a golden solve of each perturbation.
  std::vector<Round> rounds;
  double cold_total = 0.0, warm_total = 0.0, mae_diff_max = 0.0;
  bool all_warm = true;
  for (int r = 0; r < sz.rounds; ++r) {
    pg::PgSolver solver(*perturbed[r]);
    const GridF golden =
        features::label_map(*perturbed[r], solver.solve_golden(), sz.image_px);
    Round round;
    round.index = r;
    round.cold_seconds = cold_seconds[r];
    round.warm_seconds = warm_seconds[r];
    round.mae_cold = mae(cold_results[r].ir_drop, golden);
    round.mae_warm = mae(warm_results[r].ir_drop, golden);
    rounds.push_back(round);
    cold_total += round.cold_seconds;
    warm_total += round.warm_seconds;
    mae_diff_max = std::max(mae_diff_max, std::abs(round.mae_warm - round.mae_cold));
    all_warm = all_warm && warm_results[r].warm_start;
  }
  const double speedup = warm_total > 0.0 ? cold_total / warm_total : 0.0;

  write_json(rounds, speedup, mae_diff_max, warm_stats, cold_q, warm_q);

  std::cout << "round   cold_s     warm_s     mae_cold      mae_warm\n";
  for (const Round& r : rounds) {
    std::printf("%5d %8.4f %10.4f %12.3e %13.3e\n", r.index, r.cold_seconds,
                r.warm_seconds, r.mae_cold, r.mae_warm);
  }
  std::cout << "warm speedup: " << speedup << "x, mae_diff_max: " << mae_diff_max
            << ", warm_hits: " << warm_stats.warm_hits
            << "/" << sz.rounds << "\n"
            << "wrote BENCH_incremental_serve.json\n";

  // Correctness bars: unchanged accuracy, with every perturbation actually
  // served through the warm path.
  const bool pass = mae_diff_max <= 1e-8 && all_warm &&
                    warm_stats.warm_hits == static_cast<std::uint64_t>(sz.rounds);
  return pass ? 0 : 1;
}
