#include "train/iccad_io.hpp"

#include <filesystem>

#include "common/error.hpp"
#include "common/image_io.hpp"
#include "features/extractor.hpp"
#include "spice/writer.hpp"

namespace irf::train {

namespace fs = std::filesystem;

std::string export_design(const PreparedDesign& prepared, const std::string& root,
                          int image_size) {
  const fs::path dir = fs::path(root) / prepared.design->name;
  fs::create_directories(dir);

  spice::write_file(prepared.design->netlist, (dir / "netlist.sp").string());

  // Contest image triplet from the structural extractor (collapsed view) —
  // a rough solution is not part of the contest data, so exclude numerics.
  features::FeatureOptions opts;
  opts.image_size = image_size;
  opts.hierarchical = false;
  opts.include_numerical = false;
  features::FeatureStack stack =
      features::extract_features(*prepared.design, nullptr, opts);
  auto channel = [&](const std::string& name) -> const GridF& {
    for (int c = 0; c < stack.size(); ++c) {
      if (stack.names[static_cast<std::size_t>(c)] == name) {
        return stack.channels[static_cast<std::size_t>(c)];
      }
    }
    throw ConfigError("exporter: channel '" + name + "' missing");
  };
  write_csv(channel("current_all"), (dir / "current_map.csv").string());
  write_csv(channel("eff_dist"), (dir / "eff_dist_map.csv").string());
  write_csv(channel("pdn_density_all"), (dir / "pdn_density.csv").string());

  const GridF label =
      features::label_map(*prepared.design, prepared.golden, image_size);
  write_csv(label, (dir / "ir_drop_map.csv").string());
  return dir.string();
}

std::vector<std::string> export_design_set(const DesignSet& set, const std::string& root) {
  std::vector<std::string> dirs;
  for (const PreparedDesign& p : set.train) {
    dirs.push_back(export_design(p, root, set.image_size));
  }
  for (const PreparedDesign& p : set.test) {
    dirs.push_back(export_design(p, root, set.image_size));
  }
  return dirs;
}

}  // namespace irf::train
