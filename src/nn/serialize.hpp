#pragma once

/// \file serialize.hpp
/// Binary stream sections for a parameter list. Format: magic, count, then
/// per tensor shape + raw float payload. Parameter order must match between
/// save and load (models are deterministic, so it does). The one file format
/// that embeds them is the serve checkpoint (serve/checkpoint.hpp).

#include <iosfwd>
#include <vector>

#include "nn/tensor.hpp"

namespace irf::nn {

void save_parameters(const std::vector<Tensor>& params, std::ostream& out);

/// Load into existing parameters (shapes must match exactly).
void load_parameters(std::vector<Tensor>& params, std::istream& in);

/// Persist/restore module buffers (e.g. BatchNorm running statistics).
/// Sizes must match exactly on load.
void save_buffers(const std::vector<std::vector<float>*>& buffers, std::ostream& out);
void load_buffers(const std::vector<std::vector<float>*>& buffers, std::istream& in);

class Module;

/// Full trainable state of a module tree — parameters followed by buffers —
/// as one stream section. This is the unit the pipeline/serve checkpoint
/// formats embed; keeping it here means the weight wire format has a single
/// owner. Parameter/buffer order must match between save and load (module
/// construction is deterministic, so it does).
void save_state(Module& module, std::ostream& out);
void load_state(Module& module, std::istream& in);

}  // namespace irf::nn
