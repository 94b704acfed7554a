#pragma once

/// \file engine.hpp
/// The persistent analysis engine: a long-lived service wrapper around a
/// fitted IrFusionPipeline that amortizes everything amortizable across
/// requests (see docs/API.md):
///
///  * bounded work queue — submit() enqueues and returns a Ticket with a
///    std::future; a single dispatcher thread drains the queue in batches
///    (the numerical kernels underneath fan out on the irf::par pool);
///  * per-design cache keyed by design_content_hash(): the assembled MNA
///    system + AMG hierarchy (the PgSolver) and the fused feature stacks
///    are computed once per design and reused, LRU-evicted under a byte
///    budget;
///  * cross-request batched inference: every request in a dispatch batch
///    rides one IrFusionPipeline::predict call — one [N,C,H,W] forward in
///    train::predict_volts, the same code analyze() runs with N = 1.
///    Per-sample kernels make this bit-identical to serial analyze()
///    (tests/test_serve.cpp pins it);
///  * robustness: per-request deadlines checked at stage boundaries and
///    graceful degradation to the rough numerical map — flagged in the
///    result — when no model is loaded or inference throws.
///
///  * incremental re-analysis: a content-cache miss whose design matches a
///    cached entry's topology up to a bounded value delta reuses that
///    entry's AMG hierarchy and rough solution (warm-started PCG) and
///    refreshes only the delta-dependent feature maps (docs/API.md).
///
/// Telemetry: serve.queue.depth / serve.cache.bytes gauges, cache
/// hit/miss/eviction + warm_hits/warm_fallbacks + degraded/timeout
/// counters, serve.batch.size / serve.queue.depth_at_admission histograms,
/// and request-scoped spans — serve_queue_wait / serve_numerical /
/// serve_infer_share / serve_request all carry the request's `req_id` arg,
/// alongside the batch-level serve_batch / serve_infer spans (the model's
/// own `infer` span nests inside serve_infer). Each AnalysisResult returns
/// the per-stage latency breakdown (StageTimings) and the solver
/// convergence behind its rough map. A flight recorder retains the last
/// 256 engine events and is dumped as JSON on degradation, deadline miss,
/// warm fallback or CheckError (docs/OBSERVABILITY.md).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/flight.hpp"
#include "serve/api.hpp"

namespace irf::serve {

/// Monotonic counters + cache occupancy, readable from any thread. This is
/// the engine's own bookkeeping and stays live even when obs metrics are
/// globally disabled.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< fulfilled with any status
  std::uint64_t served_ok = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t warm_hits = 0;       ///< misses served by incremental re-analysis
  std::uint64_t warm_fallbacks = 0;  ///< warm candidates rejected or failed
  std::uint64_t degraded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failures = 0;
  std::uint64_t shed = 0;  ///< evicted by a higher-priority arrival (kShed)
  std::uint64_t batches = 0;
  std::size_t cache_bytes = 0;
  int cache_entries = 0;
};

class Engine {
 public:
  /// Handle to an in-flight request. The future resolves exactly once, with
  /// every terminal status expressed in AnalysisResult::status (the promise
  /// never carries an exception).
  struct Ticket {
    std::uint64_t id = 0;
    std::future<AnalysisResult> result;
  };

  /// Serve from a fitted (trained or checkpoint-restored) pipeline.
  explicit Engine(core::IrFusionPipeline pipeline, EngineOptions options = {});

  /// Model-less engine: every request is answered by the rough numerical
  /// map (3 AMG-PCG iterations on a 64 px raster) in degraded mode.
  explicit Engine(EngineOptions options = {});

  /// Load a checkpoint and serve it. A *missing* file gives a model-less
  /// engine (has_model() is false, every result kDegraded, counted in
  /// serve.degraded); an unreadable or corrupt file throws.
  static std::unique_ptr<Engine> from_checkpoint(const std::string& path,
                                                 EngineOptions options = {});

  /// Joins the dispatcher; queued requests resolve as kCancelled.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueue a request. Blocks while the queue is at capacity
  /// (backpressure) unless the request sheds a lower-priority one; throws
  /// irf::ConfigError on a null design.
  Ticket submit(AnalysisRequest request);

  /// Synchronous convenience: copies the design, submits, waits. Examples
  /// and tools use this; throughput-sensitive callers should submit shared
  /// designs asynchronously instead.
  AnalysisResult analyze(const pg::PgDesign& design);

  /// Pause/resume dispatch. Requests keep queueing while paused (deadlines
  /// keep ticking — a paused engine can time requests out). Pausing right
  /// after construction holds back every request: nothing is dispatched
  /// from an empty queue.
  void pause();
  void resume();

  bool has_model() const { return pipeline_.has_value(); }

  EngineStats stats() const;
  int queue_depth() const;
  /// Drop every cached entry. Safe on any thread while requests are in
  /// flight: a request that already picked its warm donor still finishes
  /// warm, and cache_bytes stays the sum over the entries still cached.
  void clear_cache();

  /// Flight-recorder JSON dump on demand: returns the document and, when
  /// `path` is non-empty, also writes it there (overwrite; throws
  /// irf::Error on write failure).
  std::string dump_flight_recorder(const std::string& path = std::string()) const;

 private:
  friend class Router;  // shard wiring: ticket-id striding

  using Clock = std::chrono::steady_clock;

  /// One queued request, shared between the queue and the dispatcher.
  struct Pending {
    std::uint64_t id = 0;
    AnalysisRequest request;
    std::promise<AnalysisResult> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline = Clock::time_point::max();
    double submit_unix_seconds = 0.0;  ///< wall-clock anchor for the trace context
    int queue_depth_at_admission = 0;  ///< queue size right after this push
  };

  struct CacheEntry;
  void start();
  void run_dispatcher();
  /// Resolve an accepted-but-not-served request (shed victim, or queued at
  /// shutdown). Counts submitted+completed exactly once each.
  void fulfil_without_service(const std::shared_ptr<Pending>& pending,
                              ResultStatus status, const char* error);

  /// Router hook: stride the ticket-id sequence so ids are unique across
  /// shards and encode the admitting shard: shard i issues i+1, i+1+n, ...
  void configure_shard(std::uint64_t first_id, std::uint64_t id_step);
  void process_batch(std::vector<std::shared_ptr<Pending>> batch);
  std::shared_ptr<CacheEntry> lookup_or_build(const AnalysisRequest& request,
                                              AnalysisResult& result);
  /// Incremental fast path: serve a content-cache miss from a
  /// topology-identical cached entry (delta-classified, hierarchy reused,
  /// PCG warm-started, dirty features refreshed). Returns nullptr — after
  /// counting a warm fallback — when the delta is incompatible or the warm
  /// build fails; the caller then runs the cold path.
  std::shared_ptr<CacheEntry> build_warm(const AnalysisRequest& request,
                                         std::uint64_t content_hash,
                                         std::uint64_t topology_hash,
                                         const std::shared_ptr<CacheEntry>& base,
                                         AnalysisResult& result);
  /// Count a rejected or failed warm build (stats, counter, flight record,
  /// auto-dump); the caller then builds cold.
  void warm_fallback(std::uint64_t req_id, const std::string& reason);
  /// Size a freshly built entry, count the miss (and the warm hit), cache it
  /// under `content_hash` and evict down to the budget.
  void insert_entry(std::uint64_t content_hash, const std::shared_ptr<CacheEntry>& entry,
                    bool warm);
  void evict_to_budget();
  void fulfil(Pending& pending, AnalysisResult result);
  /// Auto-dump the flight recorder to options_.flight_dump_path (no-op when
  /// unset; export failures are logged, never thrown into the serve path).
  void maybe_dump_flight(const char* reason);

  EngineOptions options_;
  std::optional<core::IrFusionPipeline> pipeline_;

  // Lock order through the serve path (verified by irf_analyze, see
  // docs/ANALYSIS.md). submit counts the submission under cache_mutex_
  // while still holding the queue mutex, so completed <= submitted holds at
  // every observation point. Nothing called under cache_mutex_ takes a
  // serve, solver or linalg lock (only obs's leaf locks, which take none).
  // A Router adds no lock of its own: every request stays on the shard
  // that admitted it.
  // irf-lock-order: engine.mutex_ < engine.cache_mutex_
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable space_cv_;
  std::deque<std::shared_ptr<Pending>> queue_;
  bool stop_ = false;
  bool paused_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t id_step_ = 1;  ///< ticket-id stride (num shards under a Router)

  // Cache + stats: the dispatcher builds, inserts and evicts entries;
  // callers' threads count submissions, resolve shed requests, clear the
  // cache and read stats. Guarded by cache_mutex_.
  mutable std::mutex cache_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<CacheEntry>> cache_;
  std::uint64_t lru_tick_ = 0;
  EngineStats stats_;

  obs::FlightRecorder flight_;  ///< FlightRecorder::kDefaultCapacity events

  std::thread dispatcher_;
};

}  // namespace irf::serve
