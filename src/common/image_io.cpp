#include "common/image_io.hpp"

#include <fstream>
#include <iomanip>

#include "common/error.hpp"

namespace irf {

void write_pgm(const GridF& grid, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open for write: " + path);
  out << "P5\n" << grid.width() << " " << grid.height() << "\n255\n";
  const float lo = grid.empty() ? 0.0f : grid.min_value();
  const float hi = grid.empty() ? 0.0f : grid.max_value();
  const float span = hi - lo;
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      float v = span > 0.0f ? (grid(y, x) - lo) / span : 0.0f;
      out.put(static_cast<char>(static_cast<unsigned char>(v * 255.0f + 0.5f)));
    }
  }
  if (!out) throw Error("write failed: " + path);
}

void write_csv(const GridF& grid, const std::string& path, int precision) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for write: " + path);
  out << std::setprecision(precision);
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      if (x) out << ',';
      out << grid(y, x);
    }
    out << '\n';
  }
  if (!out) throw Error("write failed: " + path);
}

}  // namespace irf
