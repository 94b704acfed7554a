#pragma once

/// \file init.hpp
/// Weight initialization (Kaiming/He for ReLU networks).

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace irf::nn {

/// He-normal init for a conv weight [Cout, Cin, kh, kw]: N(0, sqrt(2/fan_in)).
void kaiming_normal_(Tensor& weight, Rng& rng);

}  // namespace irf::nn
