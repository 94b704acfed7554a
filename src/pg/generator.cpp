#include "pg/generator.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "common/error.hpp"
#include "pg/solve.hpp"

namespace irf::pg {

using spice::Netlist;
using spice::NodeCoords;
using spice::NodeId;

std::vector<LayerSpec> default_layer_stack() {
  // M1 fine horizontal rails up to M9 coarse vertical straps. Strides are
  // successive multiples so vias align at stripe crossings; per-um resistance
  // falls with height as upper metals are thicker.
  return {
      {/*metal=*/1, /*horizontal=*/true, /*stride_units=*/1, /*ohms_per_um=*/0.80},
      {/*metal=*/4, /*horizontal=*/false, /*stride_units=*/2, /*ohms_per_um=*/0.30},
      {/*metal=*/7, /*horizontal=*/true, /*stride_units=*/4, /*ohms_per_um=*/0.10},
      {/*metal=*/9, /*horizontal=*/false, /*stride_units=*/8, /*ohms_per_um=*/0.04},
  };
}

GeneratorConfig fake_design_config(int image_px) {
  if (image_px < 16) throw ConfigError("fake_design_config: image must be >= 16 px");
  GeneratorConfig cfg;
  cfg.unit_nm = 2000;
  cfg.units_x = image_px / 2;  // 1 px == 1 um, 1 unit == 2 um
  cfg.units_y = image_px / 2;
  cfg.layers = default_layer_stack();
  cfg.pads_x = 3;
  cfg.pads_y = 3;
  cfg.num_hotspots = 3;
  cfg.hotspot_sigma_units = std::max(2.0, cfg.units_x / 8.0);
  cfg.hotspot_peak_ratio = 8.0;
  cfg.target_worst_ir_volts = 6e-3;
  return cfg;
}

GeneratorConfig real_design_config(int image_px) {
  GeneratorConfig cfg = fake_design_config(image_px);
  // The "hard" family: sparser, irregular power delivery with process spread.
  cfg.pads_x = 2;
  cfg.pads_y = 2;
  cfg.perimeter_pads = true;
  cfg.num_hotspots = 5;
  cfg.hotspot_sigma_units = std::max(1.5, cfg.units_x / 12.0);
  cfg.hotspot_peak_ratio = 14.0;
  cfg.rail_damage_prob = 0.04;
  cfg.num_blockages = 2;
  cfg.resistance_sigma = 0.25;
  cfg.target_worst_ir_volts = 9e-3;
  return cfg;
}

namespace {

std::uint64_t node_key(int layer_idx, int xu, int yu) {
  return (static_cast<std::uint64_t>(layer_idx) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(xu)) << 24) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(yu));
}

/// Multiples of `stride` in [0, extent].
std::vector<int> stripe_positions(int stride, int extent) {
  std::vector<int> out;
  for (int p = 0; p <= extent; p += stride) out.push_back(p);
  return out;
}

struct GridBuilder {
  const GeneratorConfig& cfg;
  Rng& rng;
  Netlist net;
  std::unordered_map<std::uint64_t, NodeId> node_ids;
  int resistor_count = 0;
  int source_count = 0;
  int pad_count = 0;

  NodeId node_at(int layer_idx, int xu, int yu) {
    const std::uint64_t key = node_key(layer_idx, xu, yu);
    auto it = node_ids.find(key);
    if (it != node_ids.end()) return it->second;
    NodeCoords coords;
    coords.net = 1;
    coords.layer = cfg.layers[static_cast<std::size_t>(layer_idx)].metal;
    coords.x_nm = static_cast<std::int64_t>(xu) * cfg.unit_nm;
    coords.y_nm = static_cast<std::int64_t>(yu) * cfg.unit_nm;
    NodeId id = net.intern_node(spice::make_node_name(coords));
    node_ids.emplace(key, id);
    return id;
  }

  double perturbed(double ohms) {
    if (cfg.resistance_sigma > 0.0) {
      ohms *= std::exp(rng.normal(0.0, cfg.resistance_sigma));
    }
    return ohms;
  }

  void add_wire(NodeId a, NodeId b, double ohms, bool damageable) {
    ohms = perturbed(ohms);
    if (damageable && cfg.rail_damage_prob > 0.0 && rng.bernoulli(cfg.rail_damage_prob)) {
      ohms *= 1000.0;  // damaged rail: electrically near-open, graph stays connected
    }
    net.add_resistor("R" + std::to_string(++resistor_count), a, b, ohms);
  }
};

/// Node positions along a stripe of layer `i`: crossings with the adjacent
/// layers below and above.
std::vector<int> on_stripe_positions(const GeneratorConfig& cfg, int layer_idx,
                                     int extent) {
  std::set<int> merged;
  const int last = static_cast<int>(cfg.layers.size()) - 1;
  if (layer_idx > 0) {
    for (int p : stripe_positions(cfg.layers[layer_idx - 1].stride_units, extent)) {
      merged.insert(p);
    }
  }
  if (layer_idx < last) {
    for (int p : stripe_positions(cfg.layers[layer_idx + 1].stride_units, extent)) {
      merged.insert(p);
    }
  }
  return {merged.begin(), merged.end()};
}

void validate_config(const GeneratorConfig& cfg) {
  if (cfg.layers.size() < 2) throw ConfigError("generator needs >= 2 layers");
  if (cfg.units_x < 4 || cfg.units_y < 4) throw ConfigError("die extent too small");
  if (cfg.unit_nm <= 0) throw ConfigError("unit_nm must be positive");
  for (std::size_t i = 0; i + 1 < cfg.layers.size(); ++i) {
    if (cfg.layers[i].horizontal == cfg.layers[i + 1].horizontal) {
      throw ConfigError("adjacent layers must alternate routing direction");
    }
    if (cfg.layers[i + 1].stride_units % cfg.layers[i].stride_units != 0) {
      throw ConfigError("upper layer stride must be a multiple of the lower one");
    }
    if (cfg.layers[i + 1].metal <= cfg.layers[i].metal) {
      throw ConfigError("layer metal indices must increase bottom to top");
    }
  }
  for (const LayerSpec& l : cfg.layers) {
    if (l.stride_units <= 0 || l.ohms_per_um <= 0.0) {
      throw ConfigError("layer stride and resistance must be positive");
    }
  }
  if (cfg.pads_x < 1 || cfg.pads_y < 1) throw ConfigError("need at least one pad");
  if (cfg.via_ohms <= 0.0) throw ConfigError("via resistance must be positive");
}

struct Blockage {
  int x0, y0, x1, y1;
  bool contains(int x, int y) const { return x >= x0 && x <= x1 && y >= y0 && y <= y1; }
  bool on_ring(int x, int y, int margin) const {
    return !contains(x, y) && x >= x0 - margin && x <= x1 + margin && y >= y0 - margin &&
           y <= y1 + margin;
  }
};

}  // namespace

PgDesign generate_design(const GeneratorConfig& cfg, Rng& rng, std::string name,
                         DesignKind kind) {
  validate_config(cfg);
  GridBuilder b{cfg, rng, {}, {}, 0, 0, 0};
  const int num_layers = static_cast<int>(cfg.layers.size());
  const double unit_um = static_cast<double>(cfg.unit_nm) / 1000.0;

  // --- Stripes and segment resistors ------------------------------------
  for (int li = 0; li < num_layers; ++li) {
    const LayerSpec& layer = cfg.layers[static_cast<std::size_t>(li)];
    const int perp_extent = layer.horizontal ? cfg.units_y : cfg.units_x;
    const int along_extent = layer.horizontal ? cfg.units_x : cfg.units_y;
    const std::vector<int> stripes = stripe_positions(layer.stride_units, perp_extent);
    const std::vector<int> on_stripe = on_stripe_positions(cfg, li, along_extent);
    const bool damageable = li + 1 < num_layers;  // keep top straps pristine
    for (int stripe : stripes) {
      for (std::size_t k = 0; k + 1 < on_stripe.size(); ++k) {
        const int p0 = on_stripe[k];
        const int p1 = on_stripe[k + 1];
        const double ohms = layer.ohms_per_um * (p1 - p0) * unit_um;
        NodeId a = layer.horizontal ? b.node_at(li, p0, stripe) : b.node_at(li, stripe, p0);
        NodeId c = layer.horizontal ? b.node_at(li, p1, stripe) : b.node_at(li, stripe, p1);
        b.add_wire(a, c, ohms, damageable);
      }
    }
  }

  // --- Vias at stripe crossings of adjacent layers -----------------------
  for (int li = 0; li + 1 < num_layers; ++li) {
    const LayerSpec& lower = cfg.layers[static_cast<std::size_t>(li)];
    const LayerSpec& upper = cfg.layers[static_cast<std::size_t>(li + 1)];
    const LayerSpec& hor = lower.horizontal ? lower : upper;
    const LayerSpec& ver = lower.horizontal ? upper : lower;
    for (int y : stripe_positions(hor.stride_units, cfg.units_y)) {
      for (int x : stripe_positions(ver.stride_units, cfg.units_x)) {
        b.add_wire(b.node_at(li, x, y), b.node_at(li + 1, x, y), cfg.via_ohms,
                   /*damageable=*/false);
      }
    }
  }

  // --- Cell current loads on the bottom layer ----------------------------
  struct Hotspot {
    double cx, cy, sx, sy, peak;
  };
  std::vector<Hotspot> hotspots;
  for (int h = 0; h < cfg.num_hotspots; ++h) {
    Hotspot hs;
    hs.cx = rng.uniform(0.1, 0.9) * cfg.units_x;
    hs.cy = rng.uniform(0.1, 0.9) * cfg.units_y;
    const double aniso = kind == DesignKind::kReal ? rng.uniform(0.5, 2.0) : 1.0;
    hs.sx = cfg.hotspot_sigma_units * rng.uniform(0.6, 1.6) * aniso;
    hs.sy = cfg.hotspot_sigma_units * rng.uniform(0.6, 1.6) / aniso;
    hs.peak = cfg.background_density * cfg.hotspot_peak_ratio * rng.uniform(0.5, 1.5);
    hotspots.push_back(hs);
  }
  std::vector<Blockage> blockages;
  for (int k = 0; k < cfg.num_blockages; ++k) {
    const int w = std::max(2, static_cast<int>(cfg.units_x * rng.uniform(0.12, 0.3)));
    const int h = std::max(2, static_cast<int>(cfg.units_y * rng.uniform(0.12, 0.3)));
    const int x0 = rng.uniform_int(0, std::max(0, cfg.units_x - w));
    const int y0 = rng.uniform_int(0, std::max(0, cfg.units_y - h));
    blockages.push_back({x0, y0, x0 + w, y0 + h});
  }

  const LayerSpec& bottom = cfg.layers.front();
  const int bottom_perp = bottom.horizontal ? cfg.units_y : cfg.units_x;
  const int bottom_along = bottom.horizontal ? cfg.units_x : cfg.units_y;
  const double cell_area = bottom.stride_units * unit_um * bottom.stride_units * unit_um;
  for (int stripe : stripe_positions(bottom.stride_units, bottom_perp)) {
    for (int pos : on_stripe_positions(cfg, 0, bottom_along)) {
      const int x = bottom.horizontal ? pos : stripe;
      const int y = bottom.horizontal ? stripe : pos;
      double density = cfg.background_density;
      for (const Hotspot& hs : hotspots) {
        const double dx = (x - hs.cx) / hs.sx;
        const double dy = (y - hs.cy) / hs.sy;
        density += hs.peak * std::exp(-0.5 * (dx * dx + dy * dy));
      }
      for (const Blockage& blk : blockages) {
        if (blk.contains(x, y)) {
          density *= 0.05;  // macro body draws through its own grid, not M1
        } else if (blk.on_ring(x, y, 2)) {
          density *= 2.5;  // crowding at the macro boundary
        }
      }
      density *= rng.uniform(0.85, 1.15);
      const double amps = 1e-4 * density * cell_area;  // rescaled later
      b.net.add_current_source("I" + std::to_string(++b.source_count),
                               b.node_at(0, x, y), amps);
    }
  }

  // --- Pads on the top layer ---------------------------------------------
  const int top = num_layers - 1;
  const LayerSpec& top_layer = cfg.layers.back();
  const std::vector<int> top_perp = stripe_positions(
      top_layer.stride_units, top_layer.horizontal ? cfg.units_y : cfg.units_x);
  const std::vector<int> top_along = on_stripe_positions(
      cfg, top, top_layer.horizontal ? cfg.units_x : cfg.units_y);
  auto snap = [](const std::vector<int>& grid, double target) {
    int best = grid.front();
    for (int g : grid) {
      if (std::abs(g - target) < std::abs(best - target)) best = g;
    }
    return best;
  };
  std::set<NodeId> pad_nodes;
  auto add_pad_near = [&](double fx, double fy) {
    // (fx, fy) are fractions of the die; snap onto an existing top-layer node.
    const double tx = fx * cfg.units_x;
    const double ty = fy * cfg.units_y;
    int x, y;
    if (top_layer.horizontal) {
      y = snap(top_perp, ty);
      x = snap(top_along, tx);
    } else {
      x = snap(top_perp, tx);
      y = snap(top_along, ty);
    }
    pad_nodes.insert(b.node_at(top, x, y));
  };
  if (cfg.perimeter_pads) {
    const int total = std::max(1, cfg.pads_x * cfg.pads_y);
    for (int k = 0; k < total; ++k) {
      // Walk the perimeter; jitter so real designs differ from each other.
      const double t = (k + rng.uniform(0.0, 0.8)) / total;
      const double s = t * 4.0;
      double fx = 0.0, fy = 0.0;
      if (s < 1.0) {
        fx = s;
        fy = 0.02;
      } else if (s < 2.0) {
        fx = 0.98;
        fy = s - 1.0;
      } else if (s < 3.0) {
        fx = 3.0 - s;
        fy = 0.98;
      } else {
        fx = 0.02;
        fy = 4.0 - s;
      }
      add_pad_near(fx, fy);
    }
  } else {
    for (int py = 0; py < cfg.pads_y; ++py) {
      for (int px = 0; px < cfg.pads_x; ++px) {
        add_pad_near((px + 0.5) / cfg.pads_x, (py + 0.5) / cfg.pads_y);
      }
    }
  }
  for (NodeId pad : pad_nodes) {
    b.net.add_voltage_source("V" + std::to_string(++b.pad_count), pad, cfg.vdd);
  }

  b.net.validate();
  if (!b.net.all_nodes_reach_pad()) {
    throw NumericError("generated design has nodes unreachable from pads");
  }

  PgDesign design;
  design.name = std::move(name);
  design.kind = kind;
  design.vdd = cfg.vdd;
  design.width_nm = static_cast<std::int64_t>(cfg.units_x) * cfg.unit_nm;
  design.height_nm = static_cast<std::int64_t>(cfg.units_y) * cfg.unit_nm;
  design.netlist = std::move(b.net);

  if (cfg.target_worst_ir_volts > 0.0) {
    // One golden solve; linearity lets us hit the target worst drop exactly.
    PgSolution sol = golden_solve(design);
    double worst = 0.0;
    for (double d : sol.ir_drop) worst = std::max(worst, d);
    if (worst > 0.0) {
      design.netlist.scale_current_sources(cfg.target_worst_ir_volts / worst);
    }
  }
  return design;
}

PgDesign generate_fake_design(int image_px, Rng& rng, std::string name) {
  GeneratorConfig cfg = fake_design_config(image_px);
  cfg.num_hotspots = rng.uniform_int(2, 4);
  cfg.hotspot_peak_ratio *= rng.uniform(0.7, 1.4);
  cfg.target_worst_ir_volts = rng.uniform(4e-3, 8e-3);
  return generate_design(cfg, rng, std::move(name), DesignKind::kFake);
}

PgDesign generate_real_design(int image_px, Rng& rng, std::string name) {
  GeneratorConfig cfg = real_design_config(image_px);
  cfg.num_hotspots = rng.uniform_int(3, 6);
  cfg.hotspot_peak_ratio *= rng.uniform(0.8, 1.5);
  cfg.num_blockages = rng.uniform_int(1, 3);
  cfg.target_worst_ir_volts = rng.uniform(6e-3, 12e-3);
  return generate_design(cfg, rng, std::move(name), DesignKind::kReal);
}

}  // namespace irf::pg
