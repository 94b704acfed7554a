#include "nn/init.hpp"

#include <cmath>

namespace irf::nn {

void kaiming_normal_(Tensor& weight, Rng& rng) {
  const Shape& s = weight.shape();
  const double fan_in = static_cast<double>(s.c) * s.h * s.w;
  const double stddev = std::sqrt(2.0 / fan_in);
  for (float& v : weight.data()) v = static_cast<float>(rng.normal(0.0, stddev));
}

}  // namespace irf::nn
