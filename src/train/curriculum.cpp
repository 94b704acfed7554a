#include "train/curriculum.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace irf::train {

namespace {
/// Epoch (fraction of total) by which all hard samples are included.
constexpr double kFullHardBy = 0.5;
/// Oversampling per epoch: each fake design twice, each real design 5 times.
constexpr int kFakeOversample = 2;
constexpr int kRealOversample = 5;
}  // namespace

CurriculumScheduler::CurriculumScheduler(const std::vector<Sample>& samples,
                                         int total_epochs, bool enabled, Rng rng)
    : total_epochs_(total_epochs), enabled_(enabled), rng_(rng) {
  if (total_epochs < 1) throw ConfigError("curriculum needs >= 1 epoch");
  for (int i = 0; i < static_cast<int>(samples.size()); ++i) {
    if (samples[static_cast<std::size_t>(i)].kind == pg::DesignKind::kFake) {
      easy_.push_back(i);
    } else {
      hard_.push_back(i);
    }
  }
}

double CurriculumScheduler::hard_fraction(int epoch) const {
  if (!enabled_) return 1.0;
  if (total_epochs_ <= 1) return 1.0;
  const double ramp_end = std::max(1.0, kFullHardBy * total_epochs_);
  return std::min(1.0, static_cast<double>(epoch + 1) / ramp_end);
}

std::vector<int> CurriculumScheduler::epoch_indices(int epoch) {
  const double frac = hard_fraction(epoch);
  const int num_hard = static_cast<int>(std::round(frac * hard_.size()));

  std::vector<int> indices;
  for (int idx : easy_) {
    for (int r = 0; r < kFakeOversample; ++r) indices.push_back(idx);
  }
  // The continuous scheduler adjusts the admitted hard subset every epoch;
  // rotate which hard samples enter first so all of them are seen early.
  for (int k = 0; k < num_hard; ++k) {
    const int idx = hard_[static_cast<std::size_t>((k + epoch) % hard_.size())];
    for (int r = 0; r < kRealOversample; ++r) indices.push_back(idx);
  }
  rng_.shuffle(indices);
  return indices;
}

}  // namespace irf::train
