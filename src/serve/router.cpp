#include "serve/router.hpp"

#include <filesystem>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "models/unet.hpp"
#include "nn/serialize.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"

namespace irf::serve {

namespace {

void validate_router_options(const RouterOptions& options) {
  if (options.num_shards < 1) {
    throw ConfigError("serve: router num_shards must be >= 1");
  }
}

/// Clone a fitted pipeline for an extra shard: rebuild the architecture
/// from its config and copy the full trainable state through an in-memory
/// stream. The clone's weights are bit-identical, so every shard computes
/// the same refinement for the same request. The source is non-const only
/// because weight traversal is a mutable operation on the module tree; it
/// is not modified.
core::IrFusionPipeline clone_fitted(core::IrFusionPipeline& source) {
  const core::PipelineConfig& config = source.config();
  std::stringstream state(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_state(source.model(), state);
  Rng rng(config.seed);
  std::unique_ptr<models::IrModel> model = models::make_ir_fusion_net(
      source.model().in_channels(), config.base_channels, rng,
      config.use_inception, config.use_cbam);
  nn::load_state(*model, state);
  return core::IrFusionPipeline::restore(config, source.normalizer(),
                                         std::move(model));
}

}  // namespace

Router::Router(core::IrFusionPipeline pipeline, RouterOptions options)
    : options_(options) {
  validate_router_options(options_);
  if (!pipeline.is_fitted()) {
    throw ConfigError("serve: router needs a fitted pipeline (fit() or checkpoint)");
  }
  shards_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int i = 0; i + 1 < options_.num_shards; ++i) {
    shards_.push_back(
        std::make_unique<Engine>(clone_fitted(pipeline), shard_options(i)));
  }
  shards_.push_back(std::make_unique<Engine>(
      std::move(pipeline), shard_options(options_.num_shards - 1)));
  wire_shards();
}

Router::Router(RouterOptions options) : options_(options) {
  validate_router_options(options_);
  shards_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Engine>(shard_options(i)));
  }
  wire_shards();
}

std::unique_ptr<Router> Router::from_checkpoint(const std::string& path,
                                                RouterOptions options) {
  if (!std::filesystem::exists(path)) {
    obs::info() << "serve: checkpoint " << path
                << " missing; router starts degraded (numerical map only)";
    return std::make_unique<Router>(options);
  }
  return std::make_unique<Router>(load_checkpoint(path), options);
}

EngineOptions Router::shard_options(int index) const {
  EngineOptions opts = options_.engine;
  if (!opts.flight_dump_path.empty() && options_.num_shards > 1) {
    opts.flight_dump_path += ".s" + std::to_string(index);
  }
  return opts;
}

void Router::wire_shards() {
  const std::uint64_t n = static_cast<std::uint64_t>(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // Globally unique, shard-attributable ticket ids: shard i issues
    // i+1, i+1+n, i+1+2n, ... so owner = (id - 1) % n.
    shards_[i]->configure_shard(static_cast<std::uint64_t>(i) + 1, n);
    shard_queue_gauges_.push_back("serve.shard.s" + std::to_string(i) +
                                  ".queue.depth");
    shard_cache_gauges_.push_back("serve.shard.s" + std::to_string(i) +
                                  ".cache.bytes");
    obs::set_gauge(shard_queue_gauges_.back(), 0.0);
    obs::set_gauge(shard_cache_gauges_.back(), 0.0);
  }
}

int Router::shard_for(const pg::PgDesign& design) const {
  // Route on the TOPOLOGY hash: identical content implies identical
  // topology, so exact re-submissions hit the same shard's LRU entry, and
  // value-only variants (the warm-start candidates) land there too —
  // sharding never separates a design from its warm-start seed.
  return static_cast<int>(design_topology_hash(design) %
                          static_cast<std::uint64_t>(shards_.size()));
}

Engine::Ticket Router::submit(AnalysisRequest request) {
  if (!request.design) throw ConfigError("serve: request has no design");
  Engine& target = *shards_[static_cast<std::size_t>(shard_for(*request.design))];
  return target.submit(std::move(request));
}

AnalysisResult Router::analyze(const pg::PgDesign& design) {
  AnalysisRequest request;
  request.design = std::make_shared<pg::PgDesign>(design);
  Engine::Ticket ticket = submit(std::move(request));
  return ticket.result.get();
}

EngineStats Router::stats() const {
  EngineStats total;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const EngineStats s = shards_[i]->stats();
    total.submitted += s.submitted;
    total.completed += s.completed;
    total.served_ok += s.served_ok;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_evictions += s.cache_evictions;
    total.warm_hits += s.warm_hits;
    total.warm_fallbacks += s.warm_fallbacks;
    total.degraded += s.degraded;
    total.timeouts += s.timeouts;
    total.cancelled += s.cancelled;
    total.failures += s.failures;
    total.shed += s.shed;
    total.batches += s.batches;
    total.cache_bytes += s.cache_bytes;
    total.cache_entries += s.cache_entries;
    // Refresh the per-shard gauges on every aggregate observation.
    obs::set_gauge(shard_queue_gauges_[i],
                   static_cast<double>(shards_[i]->queue_depth()));
    obs::set_gauge(shard_cache_gauges_[i], static_cast<double>(s.cache_bytes));
  }
  return total;
}

Engine& Router::shard(int index) {
  return *shards_.at(static_cast<std::size_t>(index));
}

const Engine& Router::shard(int index) const {
  return *shards_.at(static_cast<std::size_t>(index));
}

bool Router::has_model() const {
  return !shards_.empty() && shards_.front()->has_model();
}

}  // namespace irf::serve
