#pragma once

/// \file curriculum.hpp
/// Predefined curriculum learning (Section III-E, Fig. 5): a predefined
/// difficulty measurer (fake designs = easy, real designs = hard) and a
/// continuous training scheduler that grows the hard fraction each epoch.
/// Oversampling follows the paper's setup: fake x2, real x5.

#include <vector>

#include "common/rng.hpp"
#include "train/sample.hpp"

namespace irf::train {

/// Produces the sample-index sequence for each epoch. With `enabled`, the
/// hard fraction ramps linearly to 1 by half of `total_epochs`; without it,
/// every sample is admitted from epoch 0.
class CurriculumScheduler {
 public:
  CurriculumScheduler(const std::vector<Sample>& samples, int total_epochs, bool enabled,
                      Rng rng);

  /// Shuffled indices (into the sample vector) to visit in `epoch`.
  std::vector<int> epoch_indices(int epoch);

  /// Fraction of hard samples admitted at `epoch` (for tests/logging).
  double hard_fraction(int epoch) const;

 private:
  std::vector<int> easy_;
  std::vector<int> hard_;
  int total_epochs_;
  bool enabled_;
  Rng rng_;
};

}  // namespace irf::train
