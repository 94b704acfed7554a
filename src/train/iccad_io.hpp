#pragma once

/// \file iccad_io.hpp
/// Export in the ICCAD-2023 contest's directory layout: one folder per
/// design holding the SPICE deck plus image-formatted CSV matrices (current
/// map, effective distance map, PDN density map, golden IR drop, one value
/// per 1x1 um pixel). Exporting the generated designs in this layout makes
/// them consumable by external contest-style tooling; `irf_cli generate`
/// writes every dataset through it. Nothing here reads the CSV images back.
///
/// Layout per design directory:
///   <dir>/<name>/netlist.sp
///   <dir>/<name>/current_map.csv
///   <dir>/<name>/eff_dist_map.csv
///   <dir>/<name>/pdn_density.csv
///   <dir>/<name>/ir_drop_map.csv

#include <string>
#include <vector>

#include "train/dataset.hpp"

namespace irf::train {

/// Write one prepared design (SPICE + contest image CSVs) under
/// `root/<design name>/`. Returns the design directory path.
std::string export_design(const PreparedDesign& prepared, const std::string& root,
                          int image_size);

/// Export every design of the set (train and test). Returns the directories.
std::vector<std::string> export_design_set(const DesignSet& set, const std::string& root);

}  // namespace irf::train
