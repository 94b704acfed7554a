#pragma once

/// \file router.hpp
/// Sharded serving: N engine shards behind one submit surface.
///
/// A Router owns `num_shards` independent Engines — each with its own
/// dispatcher thread, bounded queue and LRU cache — and routes every
/// request by design hash, so all traffic for one design (and for every
/// topology-identical variant of it) lands on the same shard. That keeps
/// the per-design cache entries AND the warm-start candidate set
/// shard-local: sharding never splits a design's amortizable state, it
/// only partitions the population's working set across shards.
///
/// A request never leaves the shard that admitted it: it is queued,
/// served and counted there. Admission control (priority classes,
/// shed-lowest-first) is each shard's own Engine::submit. The Router holds
/// no mutable state and no lock; it adds Engine-compatible aggregate
/// stats() and the `serve.shard.s<i>.*` gauges (docs/OBSERVABILITY.md).
///
/// The Router offers Engine's submit/analyze/stats/has_model surface, so
/// callers scale from one engine to N shards by swapping the type; per-shard
/// control (pause, queue depth, cache) goes through shard(i). Ticket ids
/// stay globally unique, so a trace tells requests apart, and name their
/// shard: shard i issues i+1, i+1+N, ...

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace irf::serve {

/// Router construction knobs. `engine` is applied to every shard as-is
/// (cache budgets and queue capacities are PER SHARD; a non-empty
/// flight_dump_path gets a ".s<i>" suffix per shard so dumps never
/// clobber each other).
struct RouterOptions {
  int num_shards = 2;
  EngineOptions engine;
};

class Router {
 public:
  /// Shard a fitted pipeline: the model state is cloned into every shard
  /// (bit-identical weights, so any shard serves any request identically).
  explicit Router(core::IrFusionPipeline pipeline, RouterOptions options = {});

  /// Model-less router: every shard answers with the rough numerical map
  /// in degraded mode.
  explicit Router(RouterOptions options = {});

  /// Load a checkpoint once and clone it across shards. A missing file gives
  /// a model-less router (every result kDegraded); an unreadable or corrupt
  /// file throws (same contract as Engine::from_checkpoint).
  static std::unique_ptr<Router> from_checkpoint(const std::string& path,
                                                 RouterOptions options = {});

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Route by design hash and enqueue on the owning shard. Same contract
  /// as Engine::submit (blocks on that shard's backpressure; admission
  /// control may resolve the ticket immediately as kShed).
  Engine::Ticket submit(AnalysisRequest request);

  /// Synchronous convenience: copies the design, submits, waits.
  AnalysisResult analyze(const pg::PgDesign& design);

  /// Engine-compatible counters summed over shards (also refreshes the
  /// serve.shard.* gauges). shard(i).stats() gives one shard's share.
  EngineStats stats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard index a design routes to. Exposed so tests and tools can
  /// pin affinity; stable for the Router's lifetime.
  int shard_for(const pg::PgDesign& design) const;

  /// Direct access to one shard (pause/resume, queue depth, cache, per-shard
  /// flight dumps).
  Engine& shard(int index);
  const Engine& shard(int index) const;

  bool has_model() const;

 private:
  void wire_shards();
  EngineOptions shard_options(int index) const;

  RouterOptions options_;
  std::vector<std::string> shard_queue_gauges_;  ///< serve.shard.s<i>.queue.depth
  std::vector<std::string> shard_cache_gauges_;  ///< serve.shard.s<i>.cache.bytes
  std::vector<std::unique_ptr<Engine>> shards_;
};

}  // namespace irf::serve
