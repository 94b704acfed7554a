// Sharded-serving load benchmark: open-loop Poisson arrivals over a mixed
// design population, swept across router shard counts {1, 2, 4} plus one
// equal-budget single engine. At the same offered load, each configuration's
// p99 latency and throughput are recorded relative to the single-shard
// baseline. The ratios are never enforced:
// speed is compared with interleaved perfbench pairs, not with a
// host-dependent bar. The bench exits non-zero only when the single-shard
// baseline is missing or the stats invariant breaks.
//
// Why sharding wins here: two effects, separated by the last entry.
//
//  * Cache partitioning. Every shard runs the same per-shard LRU budget,
//    sized so the whole population does NOT fit in one shard but DOES fit
//    once the router partitions it by design hash. The single-shard
//    baseline therefore thrashes (every request pays the numerical stage
//    again), while 2 and 4 shards serve steady-state cache hits. This part
//    of the win is N x the cache budget, not the router.
//  * Dispatcher parallelism. The last entry is one engine holding the
//    2-shard configuration's total budget, with one extra pool worker so
//    it has as many compute threads as the 2-shard entry. It fits the
//    whole population too (same hit rate, 0 evictions), so what remains of
//    the gap is parallelism: two dispatchers serve independent batches at
//    once, while one dispatcher's pool worker speeds up little at these
//    grid sizes. On a 4-vCPU host (three runs, IRF_THREADS=1) the thrashing
//    baseline had p50 0.5-0.9 s, the equal-budget engine 12-49 ms and the
//    2-shard router 4.7-5.2 ms.
//
// The offered rate is calibrated between the measured single-shard and
// two-shard capacities (geometric mean), so the baseline saturates while
// the sharded configs keep headroom; the same pre-generated arrival
// schedule, design sequence and priority mix are replayed against every
// configuration.
//
// Latency is anchored at the SCHEDULED arrival, not the actual submit: a
// submitter stalled by backpressure counts the stall into every later
// request's latency (no coordinated omission).
//
// Writes BENCH_serve_load.json (one entry per configuration with its total
// cache budget and thread counts, plus the calibration block and the obs
// metrics snapshot). Pass --quick for the CI-sized run (the ctest artifact
// check uses it).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "irf.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"

namespace {

using namespace irf;

struct Sizes {
  int design_px = 64;  ///< PG grid size: sets the numerical-stage cost
  int image_px = 32;   ///< NN raster size: keeps the per-request floor small
  int epochs = 1;
  int requests = 600;  ///< open-loop requests per shard configuration
};

struct Entry {
  int shards = 0;
  std::size_t total_cache_budget_bytes = 0;  ///< shards x per-shard budget
  int pool_threads = 0;                      ///< irf::par pool width
  /// Threads that can run compute at once: one dispatcher per shard plus
  /// the shared pool's extra workers (pool width - 1).
  int compute_threads = 0;
  int requests = 0;
  double offered_rps = 0.0;     ///< Poisson arrival rate replayed
  double throughput_rps = 0.0;  ///< served maps / wall time
  double e2e_p50_seconds = 0.0;
  double e2e_p99_seconds = 0.0;
  double queue_wait_p50_seconds = 0.0;  ///< StageTimings::queue_wait_seconds
  double queue_wait_p99_seconds = 0.0;
  double cache_hit_rate = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t evictions = 0;
  int served = 0;
  double throughput_over_single = 0.0;  ///< throughput / single-shard throughput
  double p99_over_single = 0.0;         ///< p99 / single-shard p99
};

constexpr int kPopulation = 8;

/// Two designs per topology-hash residue class mod 4: the population
/// splits exactly evenly across both 2 and 4 shards, so no sharded
/// configuration gets an unlucky hot shard by construction. Real designs
/// (randomly placed blockages perturb the grid structure) give distinct
/// topologies per seed; fake designs all share one topology per size and
/// would collapse onto a single shard. Ordered class-interleaved so a
/// round-robin request sequence alternates shards.
std::vector<std::shared_ptr<const pg::PgDesign>> make_population(const Sizes& sz) {
  std::vector<std::shared_ptr<const pg::PgDesign>> population(kPopulation);
  std::array<int, 4> filled{};
  std::vector<std::uint64_t> seen;
  int found = 0;
  for (int seed = 0; seed < 4000 && found < kPopulation; ++seed) {
    Rng rng(1300 + seed);
    auto d = std::make_shared<pg::PgDesign>(pg::generate_real_design(
        sz.design_px, rng, "load_" + std::to_string(seed)));
    const std::uint64_t h = serve::design_topology_hash(*d);
    if (std::find(seen.begin(), seen.end(), h) != seen.end()) continue;
    const int r = static_cast<int>(h % 4);
    if (filled[static_cast<std::size_t>(r)] >= kPopulation / 4) continue;
    seen.push_back(h);
    population[static_cast<std::size_t>(r + 4 * filled[static_cast<std::size_t>(r)])] = d;
    ++filled[static_cast<std::size_t>(r)];
    ++found;
  }
  if (found < kPopulation) {
    std::cerr << "FAIL: could not balance " << kPopulation
              << " designs across 4 residue classes\n";
    std::exit(1);
  }
  return population;
}

IrFusionPipeline train_pipeline(
    const Sizes& sz, const std::vector<std::shared_ptr<const pg::PgDesign>>& designs) {
  std::vector<train::PreparedDesign> prepared;
  for (int i = 0; i < 3; ++i) {  // a tiny fitted model is all the bench needs
    train::PreparedDesign p;
    p.design = std::make_unique<pg::PgDesign>(*designs[static_cast<std::size_t>(i)]);
    p.solver = std::make_unique<pg::PgSolver>(*p.design);
    p.golden = p.solver->solve_golden();
    prepared.push_back(std::move(p));
  }
  PipelineConfig pc;
  pc.image_size = sz.image_px;
  pc.base_channels = 4;
  pc.epochs = sz.epochs;
  // A deliberately heavy numerical stage (large grid, more AMG-PCG
  // iterations) against a small NN raster: cache hits skip the former, so
  // the hit/miss cost ratio — the thing sharding protects — is realistic.
  pc.rough_iterations = 8;
  pc.seed = 42;
  IrFusionPipeline pipeline(pc);
  pipeline.fit(prepared);
  return pipeline;
}

RouterOptions router_options(int shards, std::size_t budget_bytes) {
  RouterOptions opts;
  opts.num_shards = shards;
  opts.engine.max_batch = 8;
  opts.engine.queue_capacity = 64;
  opts.engine.cache_budget_bytes = budget_bytes;
  return opts;
}

/// Closed-loop capacity probe: `rounds` round-robin passes submitted all
/// at once, in steady state (one warm-up pass first). Returns requests/s.
double measure_capacity(Router& router,
                        const std::vector<std::shared_ptr<const pg::PgDesign>>& designs,
                        int rounds) {
  const auto pass = [&](int n) {
    std::vector<Engine::Ticket> tickets;
    for (int r = 0; r < n; ++r) {
      for (const auto& d : designs) {
        AnalysisRequest request;
        request.design = d;
        tickets.push_back(router.submit(std::move(request)));
      }
    }
    for (Engine::Ticket& t : tickets) {
      if (!t.result.get().has_map()) std::abort();
    }
    return static_cast<int>(tickets.size());
  };
  pass(1);  // reach steady state (warm caches where they fit; thrash where not)
  Stopwatch sw;
  const int n = pass(rounds);
  return n / std::max(sw.seconds(), 1e-9);
}

/// One open-loop measured configuration: replay the arrival schedule +
/// priority mix against a fresh router with `shards` shards, each holding
/// `budget_bytes`, at the current pool width.
Entry run_config(const std::string& checkpoint, int shards, std::size_t budget_bytes,
                 const std::vector<std::shared_ptr<const pg::PgDesign>>& designs,
                 const std::vector<double>& schedule,
                 const std::vector<Priority>& priorities, double offered_rps) {
  std::unique_ptr<Router> router =
      Router::from_checkpoint(checkpoint, router_options(shards, budget_bytes));

  // Warm-up: one pass so shards that CAN hold their partition start warm.
  for (const auto& d : designs) {
    if (!router->analyze(*d).has_map()) std::abort();
  }

  const int requests = static_cast<int>(schedule.size());
  std::vector<Engine::Ticket> tickets;
  tickets.reserve(schedule.size());
  std::vector<double> submit_delay(schedule.size(), 0.0);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(schedule[static_cast<std::size_t>(i)])));
    AnalysisRequest request;
    request.design = designs[static_cast<std::size_t>(i) % designs.size()];
    request.priority = priorities[static_cast<std::size_t>(i)];
    tickets.push_back(router->submit(std::move(request)));
    // Open-loop accounting: how late backpressure made this submission.
    submit_delay[static_cast<std::size_t>(i)] = std::max(
        0.0,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() -
            schedule[static_cast<std::size_t>(i)]);
  }

  Entry e;
  e.shards = shards;
  e.total_cache_budget_bytes = budget_bytes * static_cast<std::size_t>(shards);
  e.pool_threads = par::num_threads();
  e.compute_threads = shards + e.pool_threads - 1;
  e.requests = requests;
  e.offered_rps = offered_rps;
  std::vector<double> latencies, queue_waits;
  latencies.reserve(tickets.size());
  queue_waits.reserve(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    AnalysisResult r = tickets[i].result.get();
    if (!r.has_map()) continue;  // shed/failed requests deliver no map
    ++e.served;
    latencies.push_back(submit_delay[i] + r.stages.total_seconds);
    queue_waits.push_back(r.stages.queue_wait_seconds);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  e.throughput_rps = e.served / std::max(wall, 1e-9);
  const auto quantile = [](std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx =
        static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
  };
  e.e2e_p50_seconds = quantile(latencies, 0.50);
  e.e2e_p99_seconds = quantile(latencies, 0.99);
  e.queue_wait_p50_seconds = quantile(queue_waits, 0.50);
  e.queue_wait_p99_seconds = quantile(queue_waits, 0.99);
  const EngineStats total = router->stats();
  const std::uint64_t lookups = total.cache_hits + total.cache_misses;
  e.cache_hit_rate =
      lookups > 0 ? static_cast<double>(total.cache_hits) / lookups : 0.0;
  e.shed = total.shed;
  e.evictions = total.cache_evictions;
  if (total.completed > total.submitted) std::abort();  // stats invariant
  return e;
}

void write_json(const std::vector<Entry>& entries, double c1_rps, double c2_rps,
                double offered_rps, std::size_t budget_bytes) {
  std::ofstream f("BENCH_serve_load.json");
  f << "{\n  \"bench\": \"serve_load\",\n"
    << "  \"threads\": " << par::num_threads() << ",\n"
    << "  \"population\": " << kPopulation << ",\n"
    << "  \"shard_cache_budget_bytes\": " << budget_bytes << ",\n"
    << "  \"calibration\": {\"single_shard_rps\": " << obs::json_number(c1_rps)
    << ", \"two_shard_rps\": " << obs::json_number(c2_rps)
    << ", \"offered_rps\": " << obs::json_number(offered_rps) << "},\n"
    << "  \"offered_load\": " << obs::json_number(offered_rps) << ",\n"
    << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    f << "    {\"shards\": " << e.shards
      << ", \"total_cache_budget_bytes\": " << e.total_cache_budget_bytes
      << ", \"pool_threads\": " << e.pool_threads
      << ", \"compute_threads\": " << e.compute_threads
      << ", \"requests\": " << e.requests
      << ", \"served\": " << e.served
      << ", \"offered_rps\": " << obs::json_number(e.offered_rps)
      << ", \"throughput_rps\": " << obs::json_number(e.throughput_rps)
      << ", \"e2e_p50_seconds\": " << obs::json_number(e.e2e_p50_seconds)
      << ", \"e2e_p99_seconds\": " << obs::json_number(e.e2e_p99_seconds)
      << ", \"queue_wait_p50_seconds\": " << obs::json_number(e.queue_wait_p50_seconds)
      << ", \"queue_wait_p99_seconds\": " << obs::json_number(e.queue_wait_p99_seconds)
      << ", \"cache_hit_rate\": " << obs::json_number(e.cache_hit_rate)
      << ", \"shed\": " << e.shed << ", \"evictions\": " << e.evictions
      << ", \"throughput_over_single\": " << obs::json_number(e.throughput_over_single)
      << ", \"p99_over_single\": " << obs::json_number(e.p99_over_single) << "}"
      << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"metrics\": " << obs::metrics_json() << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Sizes sz;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      sz = Sizes{64, 32, 1, 200};
    } else {
      std::cerr << "usage: bench_serve_load [--quick]\n";
      return 1;
    }
  }
  obs::set_metrics_enabled(true);  // serve.* / serve.shard.* go into the artifact

  const auto designs = make_population(sz);
  IrFusionPipeline pipeline = train_pipeline(sz, designs);
  const std::string checkpoint = "serve_load_model.irf";
  save_checkpoint(pipeline, checkpoint);

  // Size the PER-SHARD cache budget off one real entry footprint: ~5.5
  // entries fit, so the 8-design population thrashes a single shard but
  // fits once 2 or 4 shards partition it (4 resp. 2 designs per shard).
  std::size_t budget = 0;
  {
    EngineOptions probe_opts;
    auto probe = Engine::from_checkpoint(checkpoint, probe_opts);
    if (!probe->analyze(*designs.front()).ok()) std::abort();
    const std::size_t footprint = probe->stats().cache_bytes;
    budget = footprint * 11 / 2;
    std::cout << "per-entry footprint " << footprint / 1024.0 << " KiB -> per-shard budget "
              << budget / 1024.0 << " KiB\n";
  }

  // Calibrate the offered rate between the single-shard (thrashing) and
  // two-shard (partitioned) closed-loop capacities: the geometric mean
  // overloads the baseline while leaving the sharded configs headroom.
  double c1 = 0.0, c2 = 0.0;
  {
    auto r1 = Router::from_checkpoint(checkpoint, router_options(1, budget));
    c1 = measure_capacity(*r1, designs, 3);
  }
  {
    auto r2 = Router::from_checkpoint(checkpoint, router_options(2, budget));
    c2 = measure_capacity(*r2, designs, 3);
  }
  double offered = std::sqrt(c1 * c2);
  offered = std::min(offered, 0.8 * c2);
  offered = std::max(offered, 1.1 * c1);
  std::cout << "capacity: 1 shard " << c1 << " req/s, 2 shards " << c2
            << " req/s -> offering " << offered << " req/s\n";

  // One schedule + priority mix, replayed against every configuration.
  std::mt19937_64 rng(7);
  std::exponential_distribution<double> interarrival(offered);
  std::uniform_int_distribution<int> pct(0, 99);
  std::vector<double> schedule(static_cast<std::size_t>(sz.requests));
  std::vector<Priority> priorities(static_cast<std::size_t>(sz.requests));
  double t = 0.0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    t += interarrival(rng);
    schedule[i] = t;
    const int p = pct(rng);
    priorities[i] = p < 10 ? Priority::kInteractive
                  : p < 20 ? Priority::kBatch
                           : Priority::kNormal;
  }

  std::vector<Entry> entries;
  for (int shards : {1, 2, 4}) {
    entries.push_back(
        run_config(checkpoint, shards, budget, designs, schedule, priorities, offered));
  }
  // Equal-budget, equal-threads comparison for the 2-shard entry: one engine
  // holding both shards' budget, with one extra pool worker standing in for
  // the second dispatcher. Recorded, not enforced.
  const int pool_threads = par::num_threads();
  par::set_num_threads(pool_threads + 1);
  entries.push_back(
      run_config(checkpoint, 1, 2 * budget, designs, schedule, priorities, offered));
  par::set_num_threads(pool_threads);

  const auto single =
      std::find_if(entries.begin(), entries.end(), [&](const Entry& e) {
        return e.shards == 1 && e.total_cache_budget_bytes == budget;
      });
  if (single == entries.end()) {
    std::cerr << "FAIL: no single-shard baseline entry\n";
    return 1;
  }
  for (Entry& e : entries) {
    e.throughput_over_single = e.throughput_rps / std::max(single->throughput_rps, 1e-9);
    e.p99_over_single = e.e2e_p99_seconds / std::max(single->e2e_p99_seconds, 1e-12);
  }
  write_json(entries, c1, c2, offered, budget);

  std::cout << "shards  budget_KiB  threads   served      req/s     p50_ms     p99_ms"
               "  qw_p50_ms  qw_p99_ms  hit_rate  evict  shed  tput/1  p99/1\n";
  for (const Entry& e : entries) {
    std::printf("%6d %11.0f %8d %8d %10.1f %10.2f %10.2f %10.2f %10.2f %9.3f %6llu %5llu %7.2f"
                " %6.2f\n",
                e.shards, e.total_cache_budget_bytes / 1024.0, e.compute_threads,
                e.served, e.throughput_rps, e.e2e_p50_seconds * 1e3,
                e.e2e_p99_seconds * 1e3, e.queue_wait_p50_seconds * 1e3,
                e.queue_wait_p99_seconds * 1e3, e.cache_hit_rate,
                static_cast<unsigned long long>(e.evictions),
                static_cast<unsigned long long>(e.shed), e.throughput_over_single,
                e.p99_over_single);
  }
  std::cout << "wrote BENCH_serve_load.json\n";
  return 0;
}
