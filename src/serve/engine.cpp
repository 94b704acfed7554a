#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "check/check.hpp"
#include "common/error.hpp"
#include "features/extractor.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pg/delta.hpp"
#include "serve/checkpoint.hpp"
#include "train/sample.hpp"

namespace irf::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Rough-iteration budget and raster of the served map: the loaded
// pipeline's config, or 3 iterations on a 64 px raster without a model.
struct MapBudget {
  int rough_iterations = 3;
  int image_size = 64;
};

MapBudget map_budget(const std::optional<core::IrFusionPipeline>& pipeline) {
  if (!pipeline) return {};
  return {pipeline->config().rough_iterations, pipeline->config().image_size};
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void validate_options(const EngineOptions& options) {
  if (options.max_batch < 1) {
    throw ConfigError("serve: max_batch must be >= 1");
  }
  if (options.queue_capacity < 1) {
    throw ConfigError("serve: queue_capacity must be >= 1");
  }
}

double unix_seconds_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct Engine::CacheEntry {
  std::shared_ptr<const pg::PgDesign> design;
  std::unique_ptr<pg::PgSolver> solver;  ///< assembled MNA + AMG hierarchy
  train::Sample sample;                  ///< fused feature stacks + rough map
  pg::PgSolution rough;                  ///< rough solution (warm-start seed)
  std::uint64_t topology_hash = 0;       ///< warm-candidate lookup key
  std::size_t bytes = 0;
  std::uint64_t last_used = 0;

  /// Every heap byte this entry keeps alive: both feature stacks, the
  /// label/rough grids, the node-space rough solution, and the whole
  /// MNA + AMG state. This is what the LRU budget must see — the grids
  /// alone are a fraction of it.
  std::size_t footprint_bytes() const {
    std::size_t total = sample.hier.memory_bytes() + sample.flat.memory_bytes();
    total += (sample.label.size() + sample.rough_bottom.size()) * sizeof(float);
    total += (rough.node_voltage.capacity() + rough.ir_drop.capacity()) * sizeof(double);
    if (solver) total += solver->memory_bytes();
    return total;
  }
};

Engine::Engine(core::IrFusionPipeline pipeline, EngineOptions options)
    : options_(options), pipeline_(std::move(pipeline)) {
  if (!pipeline_->is_fitted()) {
    throw ConfigError("serve: engine needs a fitted pipeline (fit() or checkpoint)");
  }
  start();
}

Engine::Engine(EngineOptions options) : options_(options) { start(); }

std::unique_ptr<Engine> Engine::from_checkpoint(const std::string& path,
                                                EngineOptions options) {
  if (!std::filesystem::exists(path)) {
    obs::info() << "serve: checkpoint " << path
                << " missing; engine starts degraded (numerical map only)";
    return std::make_unique<Engine>(options);
  }
  return std::make_unique<Engine>(load_checkpoint(path), options);
}

void Engine::start() {
  validate_options(options_);
  // Register the serving instruments up front so queue depth, cache
  // hit/miss and degraded counts appear in metrics snapshots even before
  // (or without) traffic — the dashboards key on their presence.
  obs::set_gauge("serve.queue.depth", 0.0);
  obs::set_gauge("serve.cache.bytes", 0.0);
  obs::set_gauge("serve.cache.entries", 0.0);
  obs::count("serve.requests", 0);
  obs::count("serve.cache.hits", 0);
  obs::count("serve.cache.misses", 0);
  obs::count("serve.cache.evictions", 0);
  obs::count("serve.warm_hits", 0);
  obs::count("serve.warm_fallbacks", 0);
  obs::count("serve.degraded", 0);
  obs::count("serve.timeouts", 0);
  obs::count("serve.cancelled", 0);
  obs::count("serve.failures", 0);
  obs::count("serve.shed", 0);
  obs::count("serve.flight_dumps", 0);
  dispatcher_ = std::thread([this] { run_dispatcher(); });
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Anything still queued resolves as cancelled so waiters never hang.
  std::deque<std::shared_ptr<Pending>> leftover;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    leftover.swap(queue_);
  }
  for (const std::shared_ptr<Pending>& p : leftover) {
    fulfil_without_service(p, ResultStatus::kCancelled, nullptr);
  }
}

void Engine::fulfil_without_service(const std::shared_ptr<Pending>& pending,
                                    ResultStatus status, const char* error) {
  AnalysisResult r;
  r.status = status;
  if (error) r.error = error;
  r.design_name = pending->request.design ? pending->request.design->name : "";
  fulfil(*pending, std::move(r));
}

Engine::Ticket Engine::submit(AnalysisRequest request) {
  if (!request.design) throw ConfigError("serve: request has no design");
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->enqueued = Clock::now();
  pending->submit_unix_seconds = unix_seconds_now();
  const double timeout = pending->request.timeout_seconds > 0.0
                             ? pending->request.timeout_seconds
                             : options_.default_timeout_seconds;
  // A deadline the clock cannot represent is no deadline. The range check
  // runs in double, so an out-of-range timeout is never converted; the
  // integer check after the cast absorbs double rounding at the edge.
  const Clock::duration headroom = Clock::time_point::max() - pending->enqueued;
  if (timeout > 0.0 && timeout < std::chrono::duration<double>(headroom).count()) {
    const auto wait = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(timeout));
    if (wait < headroom) pending->deadline = pending->enqueued + wait;
  }
  Ticket ticket;
  ticket.result = pending->promise.get_future();

  const int cls = static_cast<int>(pending->request.priority);
  std::shared_ptr<Pending> shed_victim;  // evicted by this (higher-class) arrival
  bool shutdown = false;
  {
    // One lock acquisition covers the whole admission decision (shed or
    // wait) AND the enqueue.
    std::unique_lock<std::mutex> lk(mutex_);
    const auto queue_full = [&] {
      return queue_.size() >= static_cast<std::size_t>(options_.queue_capacity);
    };
    if (!stop_ && queue_full()) {
      // Shed-lowest-first: a saturated queue admits a higher class by
      // evicting the oldest queued request of the lowest class present —
      // but only a class strictly below the arrival's. Equal-class traffic
      // keeps the plain backpressure semantics.
      auto victim = queue_.end();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (static_cast<int>((*it)->request.priority) >= cls) continue;
        if (victim == queue_.end() ||
            static_cast<int>((*it)->request.priority) <
                static_cast<int>((*victim)->request.priority)) {
          victim = it;
        }
      }
      if (victim != queue_.end()) {
        shed_victim = *victim;
        queue_.erase(victim);
      } else {
        space_cv_.wait(lk, [&] { return stop_ || !queue_full(); });
      }
    }
    pending->id = next_id_;
    next_id_ += id_step_;
    ticket.id = pending->id;
    shutdown = stop_;
    // Count the submission before the request can possibly be fulfilled so
    // completed <= submitted holds at every observation point — including
    // the immediate shutdown resolution below. Taking cache_mutex_
    // under mutex_ follows the declared engine lock order.
    {
      std::lock_guard<std::mutex> ck(cache_mutex_);
      ++stats_.submitted;
    }
    if (!shutdown) {
      queue_.push_back(pending);
      pending->queue_depth_at_admission = static_cast<int>(queue_.size());
      obs::set_gauge("serve.queue.depth", static_cast<double>(queue_.size()));
    }
  }
  obs::count("serve.requests");
  if (shed_victim) {
    flight_.record("shed", shed_victim->id, static_cast<double>(cls),
                   shed_victim->request.design->name);
    fulfil_without_service(shed_victim, ResultStatus::kShed,
                           "shed by a higher-priority arrival under saturation");
  }
  if (shutdown) {
    fulfil_without_service(pending, ResultStatus::kCancelled, nullptr);
    return ticket;
  }
  obs::record_histogram("serve.queue.depth_at_admission",
                        static_cast<double>(pending->queue_depth_at_admission));
  flight_.record("submit", pending->id,
                 static_cast<double>(pending->queue_depth_at_admission),
                 pending->request.design->name);
  work_cv_.notify_one();
  return ticket;
}

void Engine::configure_shard(std::uint64_t first_id, std::uint64_t id_step) {
  std::lock_guard<std::mutex> lk(mutex_);
  next_id_ = first_id;
  id_step_ = id_step;
}

AnalysisResult Engine::analyze(const pg::PgDesign& design) {
  AnalysisRequest request;
  request.design = std::make_shared<pg::PgDesign>(design);
  Ticket ticket = submit(std::move(request));
  return ticket.result.get();
}

void Engine::pause() {
  std::lock_guard<std::mutex> lk(mutex_);
  paused_ = true;
}

void Engine::resume() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lk(cache_mutex_);
  return stats_;
}

int Engine::queue_depth() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return static_cast<int>(queue_.size());
}

std::string Engine::dump_flight_recorder(const std::string& path) const {
  std::string json = flight_.dump_json();
  if (!path.empty()) flight_.write_json(path);
  return json;
}

void Engine::maybe_dump_flight(const char* reason) {
  if (options_.flight_dump_path.empty()) return;
  try {
    flight_.write_json(options_.flight_dump_path);
    obs::count("serve.flight_dumps");
    obs::verbose() << "serve: flight recorder dumped to "
                   << options_.flight_dump_path << " (" << reason << ")";
  } catch (const std::exception& e) {
    obs::info() << "serve: flight-recorder dump failed: " << e.what();
  }
}

void Engine::clear_cache() {
  std::lock_guard<std::mutex> lk(cache_mutex_);
  cache_.clear();
  stats_.cache_bytes = 0;
  stats_.cache_entries = 0;
  obs::set_gauge("serve.cache.bytes", 0.0);
  obs::set_gauge("serve.cache.entries", 0.0);
}

void Engine::run_dispatcher() {
  while (true) {
    std::vector<std::shared_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      work_cv_.wait(lk, [&] { return stop_ || (!paused_ && !queue_.empty()); });
      if (stop_) return;
      const int take =
          std::min<int>(options_.max_batch, static_cast<int>(queue_.size()));
      batch.assign(queue_.begin(), queue_.begin() + take);
      queue_.erase(queue_.begin(), queue_.begin() + take);
      obs::set_gauge("serve.queue.depth", static_cast<double>(queue_.size()));
    }
    space_cv_.notify_all();
    process_batch(std::move(batch));
  }
}

void Engine::fulfil(Pending& pending, AnalysisResult result) {
  // Close the request's trace context: id + anchors, end-to-end timing, the
  // unattributed respond remainder, and the request-level span that feeds
  // the serve_request latency histogram.
  result.req_id = pending.id;
  result.submit_unix_seconds = pending.submit_unix_seconds;
  result.queue_depth_at_admission = pending.queue_depth_at_admission;
  const Clock::time_point now = Clock::now();
  result.stages.total_seconds = seconds_between(pending.enqueued, now);
  // Completed-work-wins deadline policy: a deadline that expired after the
  // last pre-inference check never discards the finished map, it only gets
  // flagged (docs/API.md "Deadlines").
  if (now > pending.deadline &&
      (result.status == ResultStatus::kOk ||
       result.status == ResultStatus::kDegraded)) {
    result.deadline_exceeded = true;
    flight_.record("deadline_exceeded", pending.id, result.stages.total_seconds,
                   status_name(result.status));
  }
  const double attributed =
      result.stages.queue_wait_seconds + result.stages.batch_form_seconds +
      result.stages.setup_seconds + result.stages.solve_seconds +
      result.stages.feature_seconds + result.stages.inference_seconds;
  result.stages.respond_seconds =
      std::max(0.0, result.stages.total_seconds - attributed);
  obs::emit_span("serve_request", "serve", pending.enqueued, now,
                 {{"req_id", static_cast<double>(pending.id)},
                  {"status", static_cast<double>(static_cast<int>(result.status))},
                  {"batch", static_cast<double>(result.batch_size)},
                  {"queue_depth", static_cast<double>(pending.queue_depth_at_admission)}});
  flight_.record("respond", pending.id, result.stages.total_seconds,
                 status_name(result.status));
  {
    std::lock_guard<std::mutex> lk(cache_mutex_);
    ++stats_.completed;
    switch (result.status) {
      case ResultStatus::kOk: ++stats_.served_ok; break;
      case ResultStatus::kDegraded: ++stats_.degraded; break;
      case ResultStatus::kTimedOut: ++stats_.timeouts; break;
      case ResultStatus::kCancelled: ++stats_.cancelled; break;
      case ResultStatus::kFailed: ++stats_.failures; break;
      case ResultStatus::kShed: ++stats_.shed; break;
    }
  }
  switch (result.status) {
    case ResultStatus::kOk: break;
    case ResultStatus::kDegraded: obs::count("serve.degraded"); break;
    case ResultStatus::kTimedOut: obs::count("serve.timeouts"); break;
    case ResultStatus::kCancelled: obs::count("serve.cancelled"); break;
    case ResultStatus::kFailed: obs::count("serve.failures"); break;
    case ResultStatus::kShed: obs::count("serve.shed"); break;
  }
  pending.promise.set_value(std::move(result));
}

std::shared_ptr<Engine::CacheEntry> Engine::lookup_or_build(
    const AnalysisRequest& request, AnalysisResult& result) {
  const std::uint64_t hash = design_content_hash(*request.design);
  const std::uint64_t topo_hash = design_topology_hash(*request.design);
  result.design_hash = hash;
  std::shared_ptr<CacheEntry> warm_candidate;
  {
    std::lock_guard<std::mutex> lk(cache_mutex_);
    auto it = cache_.find(hash);
    if (it != cache_.end()) {
      it->second->last_used = ++lru_tick_;
      ++stats_.cache_hits;
      result.cache_hit = true;
      obs::count("serve.cache.hits");
      return it->second;
    }
    // Most recently used entry with the same topology; its solver may
    // already have been stolen by an earlier warm build, so require one.
    for (const auto& [key, candidate] : cache_) {
      (void)key;
      if (candidate->topology_hash != topo_hash || !candidate->solver) continue;
      if (!warm_candidate || candidate->last_used > warm_candidate->last_used) {
        warm_candidate = candidate;
      }
    }
  }
  obs::count("serve.cache.misses");
  if (warm_candidate) {
    std::shared_ptr<CacheEntry> warm =
        build_warm(request, hash, topo_hash, warm_candidate, result);
    if (warm) return warm;
  }
  obs::ScopedSpan span("serve_numerical", "serve");
  span.add_arg("warm", 0);
  span.add_arg("req_id", static_cast<double>(result.req_id));
  const MapBudget budget = map_budget(pipeline_);
  auto entry = std::make_shared<CacheEntry>();
  entry->design = request.design;
  entry->topology_hash = topo_hash;
  const Clock::time_point setup_start = Clock::now();
  entry->solver = std::make_unique<pg::PgSolver>(*entry->design);
  result.stages.setup_seconds = seconds_between(setup_start, Clock::now());
  const Clock::time_point solve_start = Clock::now();
  entry->rough = entry->solver->solve_rough(budget.rough_iterations);
  result.stages.solve_seconds = seconds_between(solve_start, Clock::now());
  const pg::PgSolution& rough = entry->rough;

  const Clock::time_point feature_start = Clock::now();
  train::Sample& sample = entry->sample;
  if (pipeline_) {
    // Mirror IrFusionPipeline::analyze exactly: full stacks regardless of
    // the ablation flags (the view() selects channels at inference time).
    sample = train::fused_sample(*entry->design, rough, budget.image_size);
  } else {
    sample.design_name = entry->design->name;
    sample.kind = entry->design->kind;
    sample.rough_bottom = features::label_map(*entry->design, rough, budget.image_size);
  }
  sample.label = GridF(budget.image_size, budget.image_size, 0.0f);  // unused by inference
  result.stages.feature_seconds = seconds_between(feature_start, Clock::now());
  insert_entry(hash, entry, /*warm=*/false);
  return entry;
}

std::shared_ptr<Engine::CacheEntry> Engine::build_warm(
    const AnalysisRequest& request, std::uint64_t content_hash,
    std::uint64_t topology_hash, const std::shared_ptr<CacheEntry>& base,
    AnalysisResult& result) {
  const pg::DesignDelta delta = pg::classify_design_delta(
      *base->design, *request.design, options_.max_stamp_edits);
  if (!delta.compatible) {
    obs::verbose() << "serve: warm candidate for " << request.design->name
                   << " rejected (" << delta.describe() << "); cold build";
    warm_fallback(result.req_id, delta.describe());
    return nullptr;
  }
  // Steal the base entry's solver (MNA + AMG hierarchy). The base entry may
  // still back in-flight batch work through its sample, so the sample is
  // COPIED below and only the solver moves. The solver-less base stays
  // cached — it can still serve exact content hits, it just cannot seed
  // another warm build — with its byte size shrunk accordingly.
  std::unique_ptr<pg::PgSolver> solver;
  {
    std::lock_guard<std::mutex> lk(cache_mutex_);
    solver = std::move(base->solver);
    // The candidate scan only picks entries that own a solver, and only the
    // dispatcher thread scans and steals. clear_cache() may have dropped
    // the base since the scan; cache_bytes is re-summed on the next insert.
    IRF_CHECK(solver, "serve: warm candidate has no solver");
    base->bytes = base->footprint_bytes();
  }
  try {
    obs::ScopedSpan span("serve_numerical", "serve");
    span.add_arg("warm", 1);
    span.add_arg("req_id", static_cast<double>(result.req_id));
    const MapBudget budget = map_budget(pipeline_);
    auto entry = std::make_shared<CacheEntry>();
    entry->design = request.design;
    entry->topology_hash = topology_hash;
    entry->sample = base->sample;  // copy: base may be referenced by in-flight work
    entry->sample.design_name = request.design->name;
    entry->sample.kind = request.design->kind;

    // Re-target the cached context: new matrix values under the frozen AMG
    // hierarchy (rebind throws if the topology check above was fooled), then
    // warm-start PCG from the cached rough solution toward the same residual
    // quality the cold rough solve achieved.
    const Clock::time_point setup_start = Clock::now();
    solver->rebind(*entry->design);
    result.stages.setup_seconds = seconds_between(setup_start, Clock::now());
    const double target_residual =
        std::max(base->rough.final_relative_residual, 1e-14);
    const int max_iterations = std::max(2 * budget.rough_iterations, 8);
    const Clock::time_point solve_start = Clock::now();
    entry->rough =
        solver->solve_warm(base->rough.node_voltage, target_residual, max_iterations);
    result.stages.solve_seconds = seconds_between(solve_start, Clock::now());
    entry->solver = std::move(solver);

    const Clock::time_point feature_start = Clock::now();
    // Refresh only the feature groups the delta actually dirtied; geometry
    // maps (eff_dist, pdn_density_*) carry over untouched.
    features::DirtyChannels dirty;
    dirty.numerical = delta.currents_changed || delta.supply_changed ||
                      delta.resistor_edits > 0;
    dirty.currents = delta.currents_changed || delta.resistor_edits > 0;
    dirty.wire_values = delta.resistor_edits > 0;
    if (pipeline_) {
      features::FeatureOptions opts;
      opts.image_size = budget.image_size;
      opts.hierarchical = true;
      opts.include_numerical = true;
      features::refresh_features(entry->sample.hier, *entry->design, &entry->rough,
                                 opts, dirty);
      opts.hierarchical = false;
      features::refresh_features(entry->sample.flat, *entry->design, &entry->rough,
                                 opts, dirty);
    }
    if (dirty.numerical) {
      entry->sample.rough_bottom =
          features::label_map(*entry->design, entry->rough, budget.image_size);
    }
    result.stages.feature_seconds = seconds_between(feature_start, Clock::now());
    result.warm_start = true;
    span.add_arg("resistor_edits", delta.resistor_edits);
    span.add_arg("warm_iterations", entry->rough.iterations);
    insert_entry(content_hash, entry, /*warm=*/true);
    return entry;
  } catch (const std::exception& e) {
    // The stolen solver dies with this frame; the base keeps serving exact
    // content hits from its sample. The caller rebuilds cold.
    obs::info() << "serve: warm re-analysis of " << request.design->name
                << " failed (" << e.what() << "); cold rebuild";
    warm_fallback(result.req_id, e.what());
    return nullptr;
  }
}

void Engine::warm_fallback(std::uint64_t req_id, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lk(cache_mutex_);
    ++stats_.warm_fallbacks;
  }
  obs::count("serve.warm_fallbacks");
  flight_.record("warm_fallback", req_id, 0.0, reason);
  maybe_dump_flight("warm fallback");
}

void Engine::insert_entry(std::uint64_t content_hash,
                          const std::shared_ptr<CacheEntry>& entry, bool warm) {
  // Account every retained byte — feature stacks, rough solution, and the
  // full MNA + AMG hierarchy — so the LRU budget matches reality.
  entry->bytes = entry->footprint_bytes();
  {
    std::lock_guard<std::mutex> lk(cache_mutex_);
    entry->last_used = ++lru_tick_;
    ++stats_.cache_misses;
    if (warm) ++stats_.warm_hits;
    cache_.emplace(content_hash, entry);
    evict_to_budget();
  }
  if (warm) obs::count("serve.warm_hits");
}

void Engine::evict_to_budget() {
  // cache_mutex_ held. cache_bytes is re-summed over the cached entries
  // rather than kept as a running total, so an entry that clear_cache()
  // dropped while a warm build resized it cannot skew it. Evict
  // least-recently-used entries until we are back under budget; a single
  // oversized entry is kept (evicting the design we are about to serve
  // would thrash).
  stats_.cache_bytes = 0;
  for (const auto& kv : cache_) stats_.cache_bytes += kv.second->bytes;
  while (stats_.cache_bytes > options_.cache_budget_bytes && cache_.size() > 1) {
    auto victim = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second->last_used < victim->second->last_used) victim = it;
    }
    stats_.cache_bytes -= victim->second->bytes;
    cache_.erase(victim);
    ++stats_.cache_evictions;
    obs::count("serve.cache.evictions");
  }
  stats_.cache_entries = static_cast<int>(cache_.size());
  obs::set_gauge("serve.cache.bytes", static_cast<double>(stats_.cache_bytes));
  obs::set_gauge("serve.cache.entries", static_cast<double>(cache_.size()));
}

void Engine::process_batch(std::vector<std::shared_ptr<Pending>> batch) {
  obs::ScopedSpan batch_span("serve_batch", "serve");
  batch_span.add_arg("requests", static_cast<double>(batch.size()));
  {
    std::lock_guard<std::mutex> lk(cache_mutex_);
    ++stats_.batches;
  }
  const Clock::time_point t0 = Clock::now();

  struct Work {
    std::shared_ptr<Pending> pending;
    AnalysisResult result;
    std::shared_ptr<CacheEntry> entry;
  };
  std::vector<Work> work;
  work.reserve(batch.size());
  for (std::shared_ptr<Pending>& p : batch) {
    AnalysisResult r;
    r.req_id = p->id;
    // Every result reports the dispatch batch it rode in — failed and
    // timed-out requests included; the ok/degraded paths overwrite this
    // with their (possibly smaller) surviving cohort.
    r.batch_size = static_cast<int>(batch.size());
    r.stages.queue_wait_seconds = seconds_between(p->enqueued, t0);
    r.design_name = p->request.design->name;
    obs::emit_span("serve_queue_wait", "serve", p->enqueued, t0,
                   {{"req_id", static_cast<double>(p->id)},
                    {"queue_depth", static_cast<double>(p->queue_depth_at_admission)}});
    flight_.record("dequeue", p->id, r.stages.queue_wait_seconds);
    if (t0 > p->deadline) {
      r.status = ResultStatus::kTimedOut;
      r.error = "deadline expired while queued";
      flight_.record("deadline_missed", p->id, r.stages.queue_wait_seconds, r.error);
      // Dump before fulfilment: a waiter unblocked by the promise may read
      // the dump file immediately.
      maybe_dump_flight("deadline miss");
      fulfil(*p, std::move(r));
      continue;
    }
    work.push_back(Work{std::move(p), std::move(r), nullptr});
  }
  const Clock::time_point formed = Clock::now();
  for (Work& w : work) {
    w.result.stages.batch_form_seconds = seconds_between(t0, formed);
  }
  obs::record_histogram("serve.batch.size", static_cast<double>(work.size()));

  // Stage A: per-design numerical + feature state, cached across requests.
  std::vector<Work> alive;
  alive.reserve(work.size());
  for (Work& w : work) {
    try {
      w.entry = lookup_or_build(w.pending->request, w.result);
      w.result.solver_iterations = w.entry->rough.iterations;
      w.result.solver_final_residual = w.entry->rough.final_relative_residual;
    } catch (const CheckError& e) {
      // An invariant tripped inside the numerical stage: preserve the ring
      // for post-mortem before failing the request like any other error.
      w.result.status = ResultStatus::kFailed;
      w.result.error = e.what();
      flight_.record("check_error", w.result.req_id, 0.0, e.what());
      maybe_dump_flight("check error");
      fulfil(*w.pending, std::move(w.result));
      continue;
    } catch (const std::exception& e) {
      w.result.status = ResultStatus::kFailed;
      w.result.error = e.what();
      fulfil(*w.pending, std::move(w.result));
      continue;
    }
    // Deadline recheck at the stage boundary: a request that spent its
    // budget inside the numerical stage must not occupy a batch slot.
    if (Clock::now() > w.pending->deadline) {
      w.result.status = ResultStatus::kTimedOut;
      w.result.error = "deadline expired during numerical stage";
      flight_.record("deadline_missed", w.result.req_id,
                     seconds_between(w.pending->enqueued, Clock::now()), w.result.error);
      maybe_dump_flight("deadline miss");
      fulfil(*w.pending, std::move(w.result));
      continue;
    }
    alive.push_back(std::move(w));
  }
  if (alive.empty()) return;

  // Stage B: one batched forward for every surviving request.
  bool model_ok = pipeline_.has_value();
  std::string model_error = model_ok ? "" : "no model loaded";
  if (model_ok) {
    try {
      obs::ScopedSpan infer_span("serve_infer", "serve");
      const int n = static_cast<int>(alive.size());
      infer_span.add_arg("batch", static_cast<double>(n));
      std::vector<const train::Sample*> samples;
      samples.reserve(alive.size());
      for (const Work& w : alive) samples.push_back(&w.entry->sample);
      const Clock::time_point infer_start = Clock::now();
      std::vector<GridF> maps = pipeline_->predict(samples);
      const Clock::time_point infer_end = Clock::now();
      const double infer_seconds = seconds_between(infer_start, infer_end);
      for (int i = 0; i < n; ++i) {
        Work& w = alive[static_cast<std::size_t>(i)];
        w.result.ir_drop = std::move(maps[static_cast<std::size_t>(i)]);
        w.result.status = ResultStatus::kOk;
        w.result.batch_size = n;
        w.result.stages.inference_seconds = infer_seconds;
        // Per-request view of the shared forward: same interval, the
        // request's own id — so a trace filtered by req_id still shows the
        // inference stage.
        obs::emit_span("serve_infer_share", "serve", infer_start, infer_end,
                       {{"req_id", static_cast<double>(w.result.req_id)},
                        {"batch", static_cast<double>(n)}});
      }
      obs::set_gauge("serve.batch.last_size", static_cast<double>(n));
    } catch (const CheckError& e) {
      model_ok = false;
      model_error = e.what();
      flight_.record("check_error", 0, static_cast<double>(alive.size()), e.what());
      maybe_dump_flight("check error");
      obs::info() << "serve: inference failed (" << model_error
                  << "); degrading batch of " << alive.size();
    } catch (const std::exception& e) {
      model_ok = false;
      model_error = e.what();
      obs::info() << "serve: inference failed (" << model_error
                  << "); degrading batch of " << alive.size();
    }
  }
  if (!model_ok) {
    // Graceful degradation: the rough numerical map is still a usable
    // answer. Flag it so callers can tell refined from degraded output.
    for (Work& w : alive) {
      w.result.status = ResultStatus::kDegraded;
      w.result.ir_drop = w.entry->sample.rough_bottom;
      w.result.batch_size = static_cast<int>(alive.size());
      w.result.error = model_error;
      flight_.record("degraded", w.result.req_id, 0.0, model_error);
    }
    maybe_dump_flight("degradation");
  }
  for (Work& w : alive) fulfil(*w.pending, std::move(w.result));
}

}  // namespace irf::serve
