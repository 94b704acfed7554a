// irf_cli — command-line front end for the IR-Fusion library.
//
// Subcommands (run `irf_cli <command> --help` for the full flag table —
// help text is generated from the same tables that drive parsing):
//
//   generate     synthesize a design set and export it (ICCAD-2023 layout)
//   solve        AMG-PCG solve of one SPICE PG deck
//   train        fit the IR-Fusion pipeline and save a model checkpoint
//   analyze      one-shot end-to-end analysis with a saved model
//   serve-batch  persistent engine: batched, cached analysis of a deck set
//   serve-load   sharded router under open-loop Poisson load (N engine shards)
//   json-check   validate a JSON artifact (CI helper)
//
// Flags are kebab-case. Every subcommand also accepts the global telemetry
// flags --trace-out / --metrics-out and honors IRF_TRACE / IRF_METRICS /
// IRF_LOG_LEVEL (docs/OBSERVABILITY.md).
// The library surface used here is the public facade, src/irf.hpp
// (docs/API.md).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_parser.hpp"
#include "common/image_io.hpp"
#include "features/extractor.hpp"
#include "irf.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "train/iccad_io.hpp"

namespace {

using namespace irf;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Command tables: one CommandSpec per subcommand drives parsing AND --help.

const cli::CommandSpec kGenerateSpec = {
    "generate",
    "",
    "Generate a synthetic design set, golden-solve it, and export it.",
    {
        {"out", "DIR", "output directory (required)"},
        {"fake-designs", "N", "number of fake (easy) designs"},
        {"real-designs", "M", "number of realistic (hard) designs"},
        {"pixels", "P", "map resolution in pixels"},
        {"seed", "S", "generator seed"},
    }};

const cli::CommandSpec kSolveSpec = {
    "solve",
    "NETLIST.sp",
    "Parse a SPICE PG deck and solve it with AMG-PCG.",
    {
        {"rough-iters", "K",
         "run exactly K rough iterations (default: golden solve to 1e-10)"},
        {"pixels", "P", "resolution of the rasterized IR map"},
        {"out", "MAP.csv", "write the bottom-layer IR map as CSV"},
    }};

const cli::CommandSpec kTrainSpec = {
    "train",
    "",
    "Fit the IR-Fusion pipeline on a design directory and save a checkpoint.",
    {
        {"designs", "DIR", "directory of <design>/netlist.sp decks (required)"},
        {"save-model", "MODEL.irf", "checkpoint output path (required)"},
        {"epochs", "E", "training epochs"},
        {"pixels", "P", "training image size"},
        {"rough-iters", "K", "AMG-PCG iterations for rough solutions"},
        {"seed", "S", "training seed"},
    }};

const cli::CommandSpec kAnalyzeSpec = {
    "analyze",
    "NETLIST.sp",
    "Restore a trained pipeline and run end-to-end analysis on one deck.",
    {
        {"load-model", "MODEL.irf", "checkpoint to load (required)"},
        {"out", "MAP.csv", "write the predicted IR map as CSV"},
    }};

const cli::CommandSpec kServeBatchSpec = {
    "serve-batch",
    "",
    "Serve a design set through the persistent engine (cached, batched).",
    {
        {"load-model", "MODEL.irf",
         "checkpoint to serve; missing file or omitted flag degrades to the "
         "rough numerical map"},
        {"designs", "DIR", "directory of <design>/netlist.sp decks (required)"},
        {"out-dir", "DIR", "write one <design>.csv per served map"},
        {"batch", "N", "max requests fused into one model forward"},
        {"repeat", "R", "serve the design list R times (cache warm-up demo)"},
        {"timeout-seconds", "T", "per-request deadline (0 = none)"},
        {"cache-mb", "MB", "per-design cache budget"},
    }};

const cli::CommandSpec kServeLoadSpec = {
    "serve-load",
    "",
    "Drive open-loop Poisson load through the sharded serving router.",
    {
        {"load-model", "MODEL.irf",
         "checkpoint to serve; missing file or omitted flag degrades to the "
         "rough numerical map"},
        {"designs", "DIR", "directory of <design>/netlist.sp decks (required)"},
        {"shards", "N", "engine shards behind the router"},
        {"rate", "RPS",
         "offered Poisson arrival rate in requests/second (0 = closed loop, "
         "submit as fast as backpressure allows)"},
        {"requests", "K", "total requests to submit"},
        {"batch", "N", "max requests fused into one model forward"},
        {"cache-mb", "MB", "per-shard per-design cache budget"},
        {"timeout-seconds", "T", "per-request deadline (0 = none)"},
        {"seed", "S", "arrival-schedule seed"},
    }};

const cli::CommandSpec kJsonCheckSpec = {
    "json-check",
    "FILE.json",
    "Validate that FILE.json parses as JSON (exit non-zero otherwise).",
    {}};

const std::vector<const cli::CommandSpec*>& all_commands() {
  static const std::vector<const cli::CommandSpec*> kCommands = {
      &kGenerateSpec,   &kSolveSpec,     &kTrainSpec,     &kAnalyzeSpec,
      &kServeBatchSpec, &kServeLoadSpec, &kJsonCheckSpec};
  return kCommands;
}

// ---------------------------------------------------------------------------

int cmd_generate(const cli::ParsedArgs& args) {
  const std::string out = args.require("out");
  ScaleConfig cfg = make_scale_config(Scale::kCi);
  cfg.num_fake_designs = args.flag_int_at_least("fake-designs", cfg.num_fake_designs, 0);
  cfg.num_real_designs = args.flag_int_at_least("real-designs", cfg.num_real_designs, 0);
  cfg.image_size = args.flag_int_at_least("pixels", cfg.image_size, 8);
  cfg.seed = static_cast<std::uint64_t>(args.flag_int("seed", 1));
  obs::info() << "generating " << cfg.num_fake_designs << " fake + "
              << cfg.num_real_designs << " real designs at " << cfg.image_size
              << " px...";
  train::DesignSet set = train::build_design_set(cfg);
  std::vector<std::string> dirs = train::export_design_set(set, out);
  obs::info() << "wrote " << dirs.size() << " design directories under " << out;
  return 0;
}

int cmd_solve(const cli::ParsedArgs& args) {
  if (args.positional.empty()) throw ConfigError("solve: need a netlist path");
  pg::PgDesign design = load_design(args.positional[0]);
  pg::PgSolver solver(design);
  const int iters = args.flag_int_at_least("rough-iters", 0, 0);
  const int px = args.flag_int_at_least("pixels", 64, 1);
  pg::PgSolution sol = iters > 0 ? solver.solve_rough(iters) : solver.solve_golden();
  // Rasterize the bottom-layer map for the hotspot summary (and --out).
  const GridF map = features::label_map(design, sol, px);
  double worst = 0.0;
  for (double v : sol.ir_drop) worst = std::max(worst, v);
  obs::info() << design.netlist.num_nodes() << " nodes | "
              << (iters > 0 ? "rough " + std::to_string(iters) + "-iteration"
                            : "golden (" + std::to_string(sol.iterations) + " iterations)")
              << " solve | worst IR drop " << worst * 1e3 << " mV";
  obs::verbose() << "map hotspot (" << px << "x" << px << " px): " << map.max_value() * 1e3
                 << " mV | setup " << sol.setup_seconds << " s | iterate "
                 << sol.solve_seconds << " s";
  const std::string out = args.flag("out");
  if (!out.empty()) {
    write_csv(map, out);
    obs::info() << "bottom-layer IR map (" << px << "x" << px << ") written to " << out;
  }
  return 0;
}

/// Load every <dir>/*/netlist.sp; names starting with "real" are hard designs.
std::vector<std::string> deck_directories(const std::string& dir) {
  std::vector<std::string> deck_dirs;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory() && fs::exists(entry.path() / "netlist.sp")) {
      deck_dirs.push_back(entry.path().string());
    }
  }
  std::sort(deck_dirs.begin(), deck_dirs.end());
  if (deck_dirs.empty()) throw ConfigError("no */netlist.sp under " + dir);
  return deck_dirs;
}

/// Engine queue room for four dispatch batches, at least 64. The product is
/// taken in 64 bits and clamped, so a huge --batch cannot overflow int.
int queue_capacity_for(int max_batch) {
  const std::int64_t wanted = std::max<std::int64_t>(64, std::int64_t{max_batch} * 4);
  return static_cast<int>(std::min<std::int64_t>(wanted, std::numeric_limits<int>::max()));
}

int cmd_train(const cli::ParsedArgs& args) {
  const std::string dir = args.require("designs");
  const std::string out = args.require("save-model");
  const int px = args.flag_int_at_least("pixels", 32, 8);

  std::vector<train::PreparedDesign> train_designs;
  std::vector<train::PreparedDesign> held_out;
  int real_index = 0;
  for (const std::string& d : deck_directories(dir)) {
    const std::string name = fs::path(d).filename().string();
    const bool is_real = name.rfind("real", 0) == 0;
    // Any design named real_<i> with odd i is held out for validation.
    train::PreparedDesign p;
    p.design = std::make_unique<pg::PgDesign>(
        load_design((fs::path(d) / "netlist.sp").string(),
                    is_real ? pg::DesignKind::kReal : pg::DesignKind::kFake));
    p.solver = std::make_unique<pg::PgSolver>(*p.design);
    p.golden = p.solver->solve_golden();
    if (is_real && (real_index++ % 2 == 1)) {
      held_out.push_back(std::move(p));
    } else {
      train_designs.push_back(std::move(p));
    }
  }
  obs::info() << "loaded " << train_designs.size() << " training designs, "
              << held_out.size() << " held out";

  PipelineConfig pc;
  pc.image_size = px;
  pc.epochs = args.flag_int_at_least("epochs", 5, 1);
  pc.rough_iterations = args.flag_int_at_least("rough-iters", 3, 1);
  pc.seed = static_cast<std::uint64_t>(args.flag_int("seed", 7));
  IrFusionPipeline pipeline(pc);
  train::TrainHistory hist = pipeline.fit(train_designs);
  obs::info() << "trained " << hist.epoch_loss.size() << " epochs in " << hist.seconds
              << " s";
  if (!held_out.empty()) {
    train::AggregateMetrics m = pipeline.evaluate(held_out);
    obs::info() << "held-out: MAE " << m.mae_1e4() << " x1e-4 V, F1 " << m.f1
                << ", MIRDE " << m.mirde_1e4() << " x1e-4 V";
  }
  save_checkpoint(pipeline, out);
  obs::info() << "model checkpoint saved to " << out;
  return 0;
}

int cmd_analyze(const cli::ParsedArgs& args) {
  const std::string model = args.require("load-model");
  if (args.positional.empty()) throw ConfigError("analyze: need a netlist path");
  IrFusionPipeline pipeline = load_checkpoint(model);
  pg::PgDesign design = load_design(args.positional[0]);
  IrFusionPipeline::Diagnostics diag = pipeline.analyze_with_diagnostics(design);
  obs::info() << "predicted worst IR drop: " << diag.prediction.max_value() * 1e3 << " mV";
  obs::verbose() << "numerical stage " << diag.solve_seconds << " s | fusion stage "
                 << diag.inference_seconds << " s (" << diag.rough_iterations
                 << " rough iterations)";
  const std::string out = args.flag("out");
  if (!out.empty()) {
    write_csv(diag.prediction, out);
    obs::info() << "IR map written to " << out;
  }
  return 0;
}

int cmd_serve_batch(const cli::ParsedArgs& args) {
  const std::string dir = args.require("designs");
  EngineOptions opts;
  opts.max_batch = args.flag_int_at_least("batch", 8, 1);
  opts.queue_capacity = queue_capacity_for(opts.max_batch);
  opts.cache_budget_bytes =
      static_cast<std::size_t>(args.flag_int_at_least("cache-mb", 256, 1)) << 20;
  opts.default_timeout_seconds = args.flag_double("timeout-seconds", 0.0);
  const int repeat = args.flag_int_at_least("repeat", 1, 1);

  const std::string model = args.flag("load-model");
  std::unique_ptr<Engine> engine =
      model.empty() ? std::make_unique<Engine>(opts)
                    : Engine::from_checkpoint(model, opts);
  if (!engine->has_model()) {
    obs::info() << "serving without a model: every map is the rough numerical "
                   "fallback (degraded)";
  }

  std::vector<std::shared_ptr<const pg::PgDesign>> designs;
  for (const std::string& d : deck_directories(dir)) {
    designs.push_back(std::make_shared<pg::PgDesign>(
        load_design((fs::path(d) / "netlist.sp").string())));
  }
  obs::info() << "serving " << designs.size() << " designs x " << repeat
              << " rounds (batch " << opts.max_batch << ")...";

  obs::ScopedSpan serve_span("serve_batch_cmd", "cli");
  std::vector<Engine::Ticket> tickets;
  tickets.reserve(designs.size() * static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    for (const auto& design : designs) {
      AnalysisRequest request;
      request.design = design;
      tickets.push_back(engine->submit(std::move(request)));
    }
  }

  const std::string out_dir = args.flag("out-dir");
  if (!out_dir.empty()) fs::create_directories(out_dir);
  int ok = 0, degraded = 0, other = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    AnalysisResult r = tickets[i].result.get();
    if (r.ok()) ++ok;
    else if (r.status == ResultStatus::kDegraded) ++degraded;
    else ++other;
    // Keep the map of each design's final round.
    if (!out_dir.empty() && r.has_map() && i + designs.size() >= tickets.size()) {
      write_csv(r.ir_drop, (fs::path(out_dir) / (r.design_name + ".csv")).string());
    }
    if (!r.has_map()) {
      obs::info() << r.design_name << ": " << status_name(r.status)
                  << (r.error.empty() ? "" : " (" + r.error + ")");
    }
  }
  const double seconds = serve_span.seconds();
  const EngineStats stats = engine->stats();
  obs::info() << "served " << tickets.size() << " requests in " << seconds << " s ("
              << static_cast<double>(tickets.size()) / std::max(seconds, 1e-9)
              << " req/s): " << ok << " ok, " << degraded << " degraded, " << other
              << " other";
  obs::info() << "cache: " << stats.cache_hits << " hits, " << stats.cache_misses
              << " misses, " << stats.cache_evictions << " evictions, "
              << stats.cache_bytes / (1024.0 * 1024.0) << " MiB resident";
  if (!out_dir.empty()) obs::info() << "maps written to " << out_dir;
  return other == 0 ? 0 : 1;
}

int cmd_serve_load(const cli::ParsedArgs& args) {
  const std::string dir = args.require("designs");
  RouterOptions ropts;
  ropts.num_shards = args.flag_int_at_least("shards", 2, 1);
  ropts.engine.max_batch = args.flag_int_at_least("batch", 8, 1);
  ropts.engine.queue_capacity = queue_capacity_for(ropts.engine.max_batch);
  ropts.engine.cache_budget_bytes =
      static_cast<std::size_t>(args.flag_int_at_least("cache-mb", 256, 1)) << 20;
  ropts.engine.default_timeout_seconds = args.flag_double("timeout-seconds", 0.0);

  const std::string model = args.flag("load-model");
  std::unique_ptr<Router> router = model.empty()
                                       ? std::make_unique<Router>(ropts)
                                       : Router::from_checkpoint(model, ropts);
  if (!router->has_model()) {
    obs::info() << "serving without a model: every map is the rough numerical "
                   "fallback (degraded)";
  }

  std::vector<std::shared_ptr<const pg::PgDesign>> designs;
  for (const std::string& d : deck_directories(dir)) {
    designs.push_back(std::make_shared<pg::PgDesign>(
        load_design((fs::path(d) / "netlist.sp").string())));
  }
  if (designs.empty()) throw ConfigError("serve-load: no designs under " + dir);

  const int requests = args.flag_int_at_least("requests", 64, 1);
  const double rate = args.flag_double("rate", 0.0);
  std::mt19937_64 rng(static_cast<std::uint64_t>(args.flag_int("seed", 1)));
  std::exponential_distribution<double> interarrival(rate > 0.0 ? rate : 1.0);

  obs::info() << "offering " << requests << " requests over " << designs.size()
              << " designs to " << ropts.num_shards << " shard(s)"
              << (rate > 0.0 ? " at " + std::to_string(rate) + " req/s (Poisson)"
                             : " closed-loop");

  // Open loop: each request has a scheduled arrival; latency is measured
  // from that schedule (not from the possibly backpressure-delayed submit),
  // so queueing delay is never hidden by a stalled submitter.
  const auto start = std::chrono::steady_clock::now();
  std::vector<Engine::Ticket> tickets;
  std::vector<double> submit_delay(static_cast<std::size_t>(requests), 0.0);
  tickets.reserve(static_cast<std::size_t>(requests));
  double scheduled = 0.0;
  for (int i = 0; i < requests; ++i) {
    if (rate > 0.0) {
      scheduled += interarrival(rng);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(scheduled)));
    }
    AnalysisRequest request;
    request.design = designs[static_cast<std::size_t>(i) % designs.size()];
    tickets.push_back(router->submit(std::move(request)));
    submit_delay[static_cast<std::size_t>(i)] = std::max(
        0.0, std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                     .count() -
                 scheduled);
  }

  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  int ok = 0, degraded = 0, other = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    AnalysisResult r = tickets[i].result.get();
    if (r.ok()) ++ok;
    else if (r.status == ResultStatus::kDegraded) ++degraded;
    else ++other;
    if (r.has_map()) {
      latencies.push_back(submit_delay[i] + r.stages.total_seconds);
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::sort(latencies.begin(), latencies.end());
  const auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(idx, latencies.size() - 1)];
  };
  const EngineStats total = router->stats();
  obs::info() << "served " << ok + degraded << "/" << requests << " maps in " << wall
              << " s (" << static_cast<double>(ok + degraded) / std::max(wall, 1e-9)
              << " req/s): " << ok << " ok, " << degraded << " degraded, " << other
              << " other";
  obs::info() << "latency from scheduled arrival: p50 " << quantile(0.5) * 1e3
              << " ms, p99 " << quantile(0.99) * 1e3 << " ms";
  obs::info() << "router: " << total.cache_hits << " cache hits / "
              << total.cache_misses << " misses";
  for (int i = 0; i < router->num_shards(); ++i) {
    const EngineStats s = router->shard(i).stats();
    obs::verbose() << "  shard " << i << ": " << s.submitted << " submitted, "
                   << s.completed << " completed, " << s.cache_hits << " hits, "
                   << s.cache_evictions << " evictions";
  }
  return other == 0 ? 0 : 1;
}

int cmd_json_check(const cli::ParsedArgs& args) {
  if (args.positional.empty()) throw ConfigError("json-check: need a file path");
  const std::string& path = args.positional[0];
  std::ifstream in(path);
  if (!in) throw Error("json-check: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  obs::parse_json(text.str());  // throws ParseError on malformed input
  obs::info() << path << ": valid JSON";
  return 0;
}

void usage() {
  std::cout << "usage: irf_cli <command> [options]\n";
  for (const cli::CommandSpec* spec : all_commands()) {
    std::cout << "  " << spec->name;
    for (std::size_t pad = spec->name.size(); pad < 13; ++pad) std::cout << ' ';
    std::cout << spec->summary << "\n";
  }
  std::cout << "run 'irf_cli <command> --help' for the per-command flag table\n"
            << "telemetry (any subcommand; see docs/OBSERVABILITY.md):\n"
            << "  --trace-out FILE.json   write Chrome trace-event spans for the run\n"
            << "  --metrics-out FILE.json write the metrics snapshot for the run\n"
            << "  env: IRF_TRACE, IRF_METRICS, IRF_LOG_LEVEL=quiet|normal|verbose\n";
}

/// Apply --trace-out/--metrics-out before a subcommand runs.
void begin_telemetry(const cli::ParsedArgs& args) {
  obs::init_from_env();  // IRF_TRACE / IRF_METRICS / IRF_LOG_LEVEL
  if (args.has("trace-out")) obs::set_trace_enabled(true);
  if (args.has("metrics-out")) obs::set_metrics_enabled(true);
}

/// Export the artifacts the flags asked for once the subcommand finished.
void end_telemetry(const cli::ParsedArgs& args) {
  const std::string trace_out = args.flag("trace-out");
  if (!trace_out.empty()) {
    obs::write_chrome_trace(trace_out);
    obs::info() << "trace written to " << trace_out;
  }
  const std::string metrics_out = args.flag("metrics-out");
  if (!metrics_out.empty()) {
    obs::write_metrics_json(metrics_out);
    obs::info() << "metrics written to " << metrics_out;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::cout.setf(std::ios::unitbuf);
    if (argc < 2) {
      usage();
      return 2;
    }
    const std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
      usage();
      return 0;
    }
    const cli::CommandSpec* spec = nullptr;
    for (const cli::CommandSpec* s : all_commands()) {
      if (s->name == command) spec = s;
    }
    if (spec == nullptr) {
      usage();
      return 2;
    }
    const cli::ParsedArgs args = parse_command_line(*spec, argc, argv, 2);
    if (args.has("help")) {
      std::cout << cli::help_text(*spec);
      return 0;
    }
    begin_telemetry(args);
    int rc = 2;
    if (spec == &kGenerateSpec) rc = cmd_generate(args);
    else if (spec == &kSolveSpec) rc = cmd_solve(args);
    else if (spec == &kTrainSpec) rc = cmd_train(args);
    else if (spec == &kAnalyzeSpec) rc = cmd_analyze(args);
    else if (spec == &kServeBatchSpec) rc = cmd_serve_batch(args);
    else if (spec == &kServeLoadSpec) rc = cmd_serve_load(args);
    else if (spec == &kJsonCheckSpec) rc = cmd_json_check(args);
    end_telemetry(args);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "irf_cli: " << e.what() << "\n";
    return 1;
  }
}
