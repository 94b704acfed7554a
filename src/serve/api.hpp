#pragma once

/// \file api.hpp
/// The stable public request/response vocabulary of the serving layer (see
/// docs/API.md). Callers build an AnalysisRequest around a PG design, hand
/// it to an irf::serve::Engine, and receive an AnalysisResult whose status
/// says exactly where the map came from: the full fusion path, the degraded
/// numerical-only fallback, or not at all (timeout / shutdown / error).
/// These types are re-exported at the top level by the irf.hpp facade.

#include <cstdint>
#include <memory>
#include <string>

#include "common/grid2d.hpp"
#include "pg/design.hpp"

namespace irf::serve {

/// Where an AnalysisResult came from — and whether it exists at all.
enum class ResultStatus {
  kOk,        ///< full pipeline: numerical stage + model refinement
  kDegraded,  ///< rough numerical map only (no model, or inference failed)
  kTimedOut,  ///< deadline expired before the engine finished the request
  kCancelled, ///< still queued when the engine shut down
  kFailed,    ///< hard error; see AnalysisResult::error
};

/// Human-readable status label ("ok", "degraded", ...), for logs and JSON.
const char* status_name(ResultStatus status);

/// One unit of serving work. The design is shared ownership: the engine's
/// per-design cache may keep it alive past the request (cached MNA/AMG
/// state references the design), so callers hand in a shared_ptr rather
/// than a borrowed reference.
struct AnalysisRequest {
  std::shared_ptr<const pg::PgDesign> design;

  /// Per-request deadline in seconds from submission; 0 uses the engine's
  /// default_timeout_seconds (and 0 there means "no deadline"). Deadlines
  /// are checked at stage boundaries — dequeue and pre-inference — so a
  /// timed-out request never occupies a batch slot.
  double timeout_seconds = 0.0;
};

/// Per-stage wall-clock breakdown of one served request, measured by the
/// engine at stage boundaries. Stages a request never entered stay 0 (a
/// cache hit has no setup/solve/features time; a timed-out request may only
/// have queue_wait). respond_seconds is the residual of total_seconds not
/// attributed to a named stage (dispatcher bookkeeping, result copies).
struct StageTimings {
  double queue_wait_seconds = 0.0;  ///< submit -> dequeued by the dispatcher
  double batch_form_seconds = 0.0;  ///< dequeue -> admission checks done
  double setup_seconds = 0.0;       ///< MNA assembly + AMG setup (cold) or rebind (warm)
  double solve_seconds = 0.0;       ///< rough / warm-started PCG iterations
  double feature_seconds = 0.0;     ///< feature extraction or delta refresh
  double inference_seconds = 0.0;   ///< share of the batched model forward
  double respond_seconds = 0.0;     ///< unattributed remainder before fulfilment
  double total_seconds = 0.0;       ///< submit -> promise fulfilled
};

/// The engine's answer. `ir_drop` is only populated for kOk/kDegraded.
struct AnalysisResult {
  ResultStatus status = ResultStatus::kFailed;
  /// Final bottom-layer IR-drop image (volts): the refined map for kOk,
  /// the rough numerical map for kDegraded.
  GridF ir_drop;

  bool cache_hit = false;   ///< numerical+feature stage served from cache
  bool warm_start = false;  ///< incremental re-analysis: cached hierarchy +
                            ///< rough solution reused, only the delta recomputed

  /// Completed-work-wins: the deadline expired after the last pre-inference
  /// check, so the request finished (status kOk/kDegraded, map populated)
  /// but later than asked. Deadlines are enforced at stage boundaries —
  /// dequeue and pre-inference — and never discard a finished map; this
  /// flag is the indication that the enforcement window was overrun
  /// (docs/API.md "Deadlines").
  bool deadline_exceeded = false;

  /// Size of the dispatch batch this request was formed into. For
  /// kOk/kDegraded it equals the NN-forward / degraded cohort; requests
  /// that fail or time out inside the batch report the batch they rode in.
  int batch_size = 0;
  std::uint64_t design_hash = 0;  ///< content hash used as the cache key
  std::string design_name;

  /// Request-scoped trace context: the engine-monotonic request id every
  /// span of this request carries as a `req_id` arg, the wall-clock anchor
  /// taken at submission, and the queue depth right after admission.
  std::uint64_t req_id = 0;
  double submit_unix_seconds = 0.0;
  int queue_depth_at_admission = 0;

  StageTimings stages;  ///< per-stage latency breakdown

  /// Convergence telemetry of the numerical stage that produced the rough
  /// solution (cold rough solve or warm-started PCG; cached values on a
  /// cache hit).
  int solver_iterations = 0;
  double solver_final_residual = 0.0;

  std::string error;  ///< populated for kFailed (and degraded-by-exception)

  bool ok() const { return status == ResultStatus::kOk; }
  bool has_map() const {
    return status == ResultStatus::kOk || status == ResultStatus::kDegraded;
  }
};

/// Engine construction knobs. Defaults suit an interactive tool; a serving
/// deployment raises queue_capacity/cache_budget_bytes to its memory share.
struct EngineOptions {
  int max_batch = 8;            ///< max requests fused into one NN forward
  int queue_capacity = 64;      ///< bounded work queue; submit blocks when full
  std::size_t cache_budget_bytes = std::size_t{256} << 20;  ///< per-design cache
  double default_timeout_seconds = 0.0;  ///< 0 = requests never expire

  /// Warm start is always on: a content-cache miss whose design matches a
  /// cached entry's topology up to a bounded value delta (new current map,
  /// scaled supply, a few resistor edits) reuses that entry's AMG hierarchy
  /// and rough solution (docs/API.md "Incremental serving"). This bounds the
  /// resistor value edits that still count as such a delta.
  int max_stamp_edits = 8;
};

/// Content hash of a design: geometry, supply, and every netlist element —
/// but not the name, so re-parsed copies of one deck share a cache entry.
std::uint64_t design_content_hash(const pg::PgDesign& design);

/// Structure-only hash: node names, physical extent, and element endpoints,
/// with every value (ohms/amps/volts/farads) excluded. Two designs that
/// differ only in values collide here — exactly the candidates the warm
/// path wants to find; pg::classify_design_delta then verifies for real.
std::uint64_t design_topology_hash(const pg::PgDesign& design);

}  // namespace irf::serve
