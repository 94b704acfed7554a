// Serving throughput benchmark: quantifies what the irf::serve engine's
// per-design cache and cross-request batching buy over the naive baseline
// (a cold IrFusionPipeline::analyze call per request). Trains a tiny
// pipeline, then serves the same request mix three ways:
//
//   cold_direct   per-request pipeline.analyze() — re-assembles the MNA
//                 system, AMG hierarchy and features every time
//   cold_engine   engine with an empty cache (first round pays the build)
//   warm_engine   engine with a warmed cache at batch sizes 1/4/16 — the
//                 steady-state serving configuration
//
// Writes BENCH_serve_throughput.json with one entry per configuration, the
// best warm/cold throughput ratio, and the engine's obs metrics snapshot
// (cache hit/miss counters, queue gauge). The ratio is recorded, never
// enforced: speed is compared with interleaved perfbench pairs, not with a
// host-dependent bar. Pass --quick for CI-sized inputs (the ctest artifact
// check uses it).

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "irf.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace {

using namespace irf;

struct Entry {
  std::string mode;
  int batch = 1;
  int requests = 0;
  bool cache_warm = false;
  double seconds = 0.0;
  double rps = 0.0;
  // Per-mode latency quantiles from the serve_queue_wait / serve_request
  // timers (reset before each measured pass). Zero for cold_direct, which
  // never goes through the engine.
  double queue_p50_seconds = 0.0;
  double queue_p99_seconds = 0.0;
  double e2e_p50_seconds = 0.0;
  double e2e_p99_seconds = 0.0;
};

/// Reset the per-request latency timers so the next pass's quantiles are
/// mode-pure (counters and gauges keep accumulating across modes).
void reset_latency_timers() {
  obs::MetricsRegistry::instance().timer("serve_queue_wait").reset();
  obs::MetricsRegistry::instance().timer("serve_request").reset();
}

void fill_quantiles(Entry& e) {
  const obs::Histogram::Snapshot queue =
      obs::MetricsRegistry::instance().timer("serve_queue_wait").snapshot();
  const obs::Histogram::Snapshot e2e =
      obs::MetricsRegistry::instance().timer("serve_request").snapshot();
  e.queue_p50_seconds = queue.p50();
  e.queue_p99_seconds = queue.p99();
  e.e2e_p50_seconds = e2e.p50();
  e.e2e_p99_seconds = e2e.p99();
}

struct Sizes {
  int image_px = 32;
  int num_designs = 4;
  int rounds = 4;  ///< each design is requested this many times
  int epochs = 1;
};

std::vector<std::shared_ptr<const pg::PgDesign>> make_designs(const Sizes& sz) {
  std::vector<std::shared_ptr<const pg::PgDesign>> designs;
  for (int i = 0; i < sz.num_designs; ++i) {
    Rng rng(900 + i);
    designs.push_back(std::make_shared<pg::PgDesign>(
        pg::generate_fake_design(sz.image_px, rng, "serve_" + std::to_string(i))));
  }
  return designs;
}

IrFusionPipeline train_pipeline(
    const Sizes& sz, const std::vector<std::shared_ptr<const pg::PgDesign>>& designs) {
  std::vector<train::PreparedDesign> prepared;
  for (const auto& d : designs) {
    train::PreparedDesign p;
    p.design = std::make_unique<pg::PgDesign>(*d);
    p.solver = std::make_unique<pg::PgSolver>(*p.design);
    p.golden = p.solver->solve_golden();
    prepared.push_back(std::move(p));
  }
  PipelineConfig pc;
  pc.image_size = sz.image_px;
  pc.base_channels = 4;
  pc.epochs = sz.epochs;
  pc.rough_iterations = 3;
  pc.seed = 42;
  IrFusionPipeline pipeline(pc);
  pipeline.fit(prepared);
  return pipeline;
}

/// Serve `rounds` passes over the design list through `engine`, async.
double serve_rounds(Engine& engine,
                    const std::vector<std::shared_ptr<const pg::PgDesign>>& designs,
                    int rounds) {
  Stopwatch sw;
  std::vector<Engine::Ticket> tickets;
  tickets.reserve(designs.size() * static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    for (const auto& d : designs) {
      AnalysisRequest request;
      request.design = d;
      tickets.push_back(engine.submit(std::move(request)));
    }
  }
  for (Engine::Ticket& t : tickets) {
    AnalysisResult result = t.result.get();
    if (!result.has_map()) std::abort();  // keep the serve observable
  }
  return sw.seconds();
}

void write_json(const std::vector<Entry>& entries, double warm_over_cold) {
  std::ofstream f("BENCH_serve_throughput.json");
  f << "{\n  \"bench\": \"serve_throughput\",\n  \"warm_over_cold_speedup\": "
    << obs::json_number(warm_over_cold) << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    f << "    {\"mode\": \"" << obs::json_escape(e.mode) << "\""
      << ", \"batch\": " << e.batch << ", \"requests\": " << e.requests
      << ", \"cache_warm\": " << (e.cache_warm ? "true" : "false")
      << ", \"seconds\": " << obs::json_number(e.seconds)
      << ", \"rps\": " << obs::json_number(e.rps)
      << ", \"queue_p50_seconds\": " << obs::json_number(e.queue_p50_seconds)
      << ", \"queue_p99_seconds\": " << obs::json_number(e.queue_p99_seconds)
      << ", \"e2e_p50_seconds\": " << obs::json_number(e.e2e_p50_seconds)
      << ", \"e2e_p99_seconds\": " << obs::json_number(e.e2e_p99_seconds) << "}"
      << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"metrics\": " << obs::metrics_json() << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Sizes sz;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      sz = Sizes{32, 3, 3, 1};
    } else {
      std::cerr << "usage: bench_serve_throughput [--quick]\n";
      return 1;
    }
  }
  obs::set_metrics_enabled(true);  // serve.* instruments go into the artifact

  const auto designs = make_designs(sz);
  IrFusionPipeline pipeline = train_pipeline(sz, designs);
  const int requests = static_cast<int>(designs.size()) * sz.rounds;
  std::vector<Entry> entries;

  // Baseline: a fresh end-to-end analyze per request, nothing shared.
  {
    Stopwatch sw;
    for (int r = 0; r < sz.rounds; ++r) {
      for (const auto& d : designs) {
        GridF map = pipeline.analyze(*d);
        if (map.data().empty()) std::abort();
      }
    }
    const double s = sw.seconds();
    entries.push_back({"cold_direct", 1, requests, false, s, requests / s});
  }

  const std::string checkpoint = "serve_throughput_model.irf";
  save_checkpoint(pipeline, checkpoint);

  for (int batch : {1, 4, 16}) {
    EngineOptions opts;
    opts.max_batch = batch;
    opts.queue_capacity = std::max(64, requests);
    auto engine = Engine::from_checkpoint(checkpoint, opts);

    // Cold pass at batch 1 doubles as the engine-overhead datapoint.
    if (batch == 1) {
      reset_latency_timers();
      const double s = serve_rounds(*engine, designs, sz.rounds);
      Entry e{"cold_engine", batch, requests, false, s, requests / s};
      fill_quantiles(e);
      entries.push_back(e);
      engine->clear_cache();
    }
    // Warm the per-design cache, then measure steady state.
    serve_rounds(*engine, designs, 1);
    reset_latency_timers();
    const double s = serve_rounds(*engine, designs, sz.rounds);
    Entry e{"warm_engine", batch, requests, true, s, requests / s};
    fill_quantiles(e);
    entries.push_back(e);
  }

  std::cout << "mode          batch   requests   seconds      req/s   queue_p99   e2e_p99\n";
  double cold_rps = 0.0, best_warm_rps = 0.0;
  bool quantiles_ok = true;
  for (const Entry& e : entries) {
    std::printf("%-13s %5d %10d %9.4f %10.1f %11.6f %9.6f\n", e.mode.c_str(),
                e.batch, e.requests, e.seconds, e.rps, e.queue_p99_seconds,
                e.e2e_p99_seconds);
    if (e.mode == "cold_direct") cold_rps = e.rps;
    if (e.mode == "warm_engine") best_warm_rps = std::max(best_warm_rps, e.rps);
    // Every engine-served mode must report real latency quantiles.
    if (e.mode != "cold_direct") {
      quantiles_ok = quantiles_ok && e.queue_p99_seconds > 0.0 && e.e2e_p99_seconds > 0.0;
    }
  }
  const double speedup = best_warm_rps / cold_rps;
  write_json(entries, speedup);
  std::cout << "warm/cold speedup: " << speedup << "x\n"
            << "wrote BENCH_serve_throughput.json\n";
  // Correctness bar only: the latency quantiles must be live.
  if (!quantiles_ok) {
    std::cerr << "FAIL: an engine mode reported zero queue/e2e p99\n";
    return 1;
  }
  return 0;
}
