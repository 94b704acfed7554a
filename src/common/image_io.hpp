#pragma once

/// \file image_io.hpp
/// Writers used to dump feature maps and IR-drop predictions (Fig. 6 style
/// visualizations) as portable grayscale images and CSV matrices.

#include <string>

#include "common/grid2d.hpp"

namespace irf {

/// Write a grid as an 8-bit binary PGM, linearly normalized to [0, 255]
/// between the grid's min and max (a constant grid maps to 0).
void write_pgm(const GridF& grid, const std::string& path);

/// Write a grid as a CSV matrix with `precision` significant digits.
void write_csv(const GridF& grid, const std::string& path, int precision = 6);

}  // namespace irf
