#pragma once

/// \file irf.hpp
/// The single public facade of the IR-Fusion library (see docs/API.md).
/// Applications — the examples, irf_cli, and external embedders — include
/// this header and use the `irf::` aliases below; everything else under
/// src/ is implementation detail whose layout may change between releases.
///
/// The facade covers the full lifecycle:
///
///   // train once
///   irf::PipelineConfig config;
///   irf::IrFusionPipeline pipeline(config);
///   pipeline.fit(designs);
///   irf::save_checkpoint(pipeline, "model.irf");
///
///   // serve forever
///   auto engine = irf::Engine::from_checkpoint("model.irf");
///   irf::AnalysisResult r = engine->analyze(design);
///   if (r.has_map()) use(r.ir_drop);   // r.status tells you which path
///
/// Request/response types (AnalysisRequest, AnalysisResult, EngineOptions,
/// ResultStatus) are the serving vocabulary. save_checkpoint /
/// load_checkpoint are the one persistence format: a versioned,
/// checksummed header over the config, normalization and weights.

#include "common/error.hpp"
#include "common/grid2d.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "pg/design.hpp"
#include "pg/generator.hpp"
#include "pg/solve.hpp"
#include "serve/api.hpp"
#include "serve/checkpoint.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "train/dataset.hpp"

namespace irf {

// --- training / direct analysis ---------------------------------------
using core::IrFusionPipeline;
using core::PipelineConfig;

// --- serving -----------------------------------------------------------
using serve::AnalysisRequest;
using serve::AnalysisResult;
using serve::Engine;
using serve::EngineOptions;
using serve::EngineStats;
using serve::ResultStatus;
using serve::Router;
using serve::RouterOptions;
using serve::design_content_hash;
using serve::load_checkpoint;
using serve::save_checkpoint;
using serve::status_name;

/// Parse a SPICE PG deck into an analyzable design (coordinates infer the
/// die extent; the deck's first voltage source sets vdd).
using pg::load_design;

}  // namespace irf
