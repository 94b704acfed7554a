#pragma once

/// \file checkpoint.hpp
/// Versioned binary checkpoints for a fitted IrFusionPipeline: train once
/// with `fit()`, persist, then serve forever from the saved weights. The
/// format is self-describing and corruption-evident:
///
///   header   magic "IRFS" (u32) | version (u32) | payload_bytes (u64)
///            | fnv1a64(payload) (u64)
///   payload  PipelineConfig written field by field (never as a raw struct,
///            so layout changes cannot silently corrupt old files)
///            | model in_channels | normalization scales | model state
///            (parameters + buffers via nn::save_state)
///
/// Round-trips are exact: a loaded pipeline produces bit-identical
/// analyze() output to the pipeline that was saved, for any IRF_THREADS
/// value (tests/test_serve.cpp). This is the only persistence format of a
/// fitted pipeline.

#include <string>

#include "core/pipeline.hpp"

namespace irf::serve {

inline constexpr std::uint32_t kCheckpointMagic = 0x49524653;  // "IRFS"
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Write a fitted pipeline to `path`. Throws irf::ConfigError when the
/// pipeline is not fitted, irf::Error on I/O failure. (The pipeline
/// reference is non-const only because weight traversal is a mutable
/// operation on the module tree; the pipeline is not modified.)
void save_checkpoint(core::IrFusionPipeline& pipeline, const std::string& path);

/// Restore a pipeline saved by save_checkpoint(). Verifies the header
/// checksum before trusting any payload byte, and never allocates more than
/// the file holds; throws irf::ParseError on a foreign file, version from
/// the future, checksum mismatch, truncation or a malformed payload.
core::IrFusionPipeline load_checkpoint(const std::string& path);

}  // namespace irf::serve
