#include "train/normalizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace irf::train {

Normalizer Normalizer::fit(const std::vector<Sample>& train_samples) {
  Normalizer norm;
  std::map<std::string, float> max_abs;
  auto scan = [&](const features::FeatureStack& stack) {
    for (int c = 0; c < stack.size(); ++c) {
      float& m = max_abs[stack.names[static_cast<std::size_t>(c)]];
      for (float v : stack.channels[static_cast<std::size_t>(c)].data()) {
        m = std::max(m, std::abs(v));
      }
    }
  };
  for (const Sample& s : train_samples) {
    scan(s.hier);
    scan(s.flat);
  }
  for (const auto& [name, m] : max_abs) {
    norm.scales_[name] = m > 0.0f ? 1.0f / m : 1.0f;
  }
  return norm;
}

Normalizer Normalizer::from_scales(std::map<std::string, float> scales) {
  Normalizer norm;
  norm.scales_ = std::move(scales);
  return norm;
}

float Normalizer::scale_for(const std::string& channel_name) const {
  auto it = scales_.find(channel_name);
  return it == scales_.end() ? 1.0f : it->second;
}

nn::Tensor Normalizer::input_tensor(const Sample& sample, FeatureView view) const {
  const std::vector<std::string> names = view_channels(sample, view);
  if (names.empty()) throw ConfigError("view selects no channels");

  auto find_channel = [&](const std::string& name) -> const GridF& {
    for (int c = 0; c < sample.hier.size(); ++c) {
      if (sample.hier.names[static_cast<std::size_t>(c)] == name) {
        return sample.hier.channels[static_cast<std::size_t>(c)];
      }
    }
    for (int c = 0; c < sample.flat.size(); ++c) {
      if (sample.flat.names[static_cast<std::size_t>(c)] == name) {
        return sample.flat.channels[static_cast<std::size_t>(c)];
      }
    }
    throw ConfigError("channel '" + name + "' not present in sample " +
                      sample.design_name);
  };

  const GridF& first = find_channel(names.front());
  const int h = first.height();
  const int w = first.width();
  std::vector<float> data;
  data.reserve(names.size() * static_cast<std::size_t>(h) * w);
  for (const std::string& name : names) {
    const GridF& g = find_channel(name);
    if (g.height() != h || g.width() != w) {
      throw DimensionError("channel '" + name + "' has mismatched shape");
    }
    const float scale = scale_for(name);
    for (float v : g.data()) data.push_back(v * scale);
  }
  return nn::Tensor::from_data(
      nn::Shape{1, static_cast<int>(names.size()), h, w}, std::move(data));
}

nn::Tensor Normalizer::label_tensor(const Sample& sample) {
  std::vector<float> data = sample.label.data();
  for (float& v : data) v *= kLabelScale;
  return nn::Tensor::from_data(
      nn::Shape{1, 1, sample.label.height(), sample.label.width()}, std::move(data));
}

std::vector<GridF> Normalizer::prediction_to_volts(const nn::Tensor& output) {
  const nn::Shape& s = output.shape();
  if (s.c != 1) {
    throw DimensionError("prediction must be [N,1,H,W], got " + s.str());
  }
  std::vector<GridF> maps;
  maps.reserve(static_cast<std::size_t>(s.n));
  for (int n = 0; n < s.n; ++n) {
    GridF grid = output.to_grid(n, 0);
    for (float& v : grid.data()) v /= kLabelScale;
    maps.push_back(std::move(grid));
  }
  return maps;
}

}  // namespace irf::train
