#include "features/extractor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>

#include "common/error.hpp"
#include "features/scatter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/par.hpp"

namespace irf::features {

using pg::PgDesign;
using pg::PgSolution;
using spice::Netlist;
using spice::NodeId;

namespace {

struct PixelMapper {
  double scale_x;  // pixels per nm
  double scale_y;

  PixelMapper(const PgDesign& design, int image_size) {
    if (design.width_nm <= 0 || design.height_nm <= 0) {
      throw DimensionError("design extent must be positive for feature extraction");
    }
    // The last node coordinate (== extent) must land on the last pixel.
    scale_x = static_cast<double>(image_size - 1) / static_cast<double>(design.width_nm);
    scale_y = static_cast<double>(image_size - 1) / static_cast<double>(design.height_nm);
  }

  double px(std::int64_t x_nm) const { return static_cast<double>(x_nm) * scale_x; }
  double py(std::int64_t y_nm) const { return static_cast<double>(y_nm) * scale_y; }
};

/// Layer metal index -> dense index (bottom first).
std::map<int, int> layer_index_map(const Netlist& netlist) {
  std::map<int, int> out;
  for (int metal : netlist.layers()) {
    const int idx = static_cast<int>(out.size());
    out.emplace(metal, idx);
  }
  if (out.empty()) throw DimensionError("netlist has no coordinate-named nodes");
  return out;
}

GridF collapse_average(const std::vector<GridF>& maps) {
  GridF out(maps.front().height(), maps.front().width(), 0.0f);
  for (const GridF& m : maps) {
    for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] += m.data()[i];
  }
  const float inv = 1.0f / static_cast<float>(maps.size());
  for (float& v : out.data()) v *= inv;
  return out;
}

GridF collapse_sum(const std::vector<GridF>& maps) {
  GridF out(maps.front().height(), maps.front().width(), 0.0f);
  for (const GridF& m : maps) {
    for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] += m.data()[i];
  }
  return out;
}

void append(FeatureStack& stack, std::vector<GridF> maps,
            const std::vector<std::string>& layer_names, const std::string& prefix,
            bool hierarchical, bool extensive) {
  if (hierarchical) {
    for (std::size_t i = 0; i < maps.size(); ++i) {
      stack.channels.push_back(std::move(maps[i]));
      stack.names.push_back(prefix + "_" + layer_names[i]);
    }
  } else {
    stack.channels.push_back(extensive ? collapse_sum(maps) : collapse_average(maps));
    stack.names.push_back(prefix + "_all");
  }
}

/// Rasterize one map per layer concurrently (each layer's scatter is
/// independent, so the pool fans out over layers with one chunk per layer).
std::vector<GridF> scatter_per_layer(const std::vector<std::vector<SamplePoint>>& pts,
                                     int size, ScatterMode mode) {
  std::vector<GridF> maps(pts.size(), GridF(size, size, 0.0f));
  par::parallel_for(0, static_cast<std::int64_t>(pts.size()), 1,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t l = lo; l < hi; ++l) {
                        maps[l] = scatter_to_grid(pts[l], size, size, mode);
                      }
                    });
  return maps;
}

/// Everything the per-group builders need; derived once per design so that
/// full extraction and incremental refresh share identical pixel mapping and
/// layer ordering (a prerequisite for replacing channels in place).
struct LayerContext {
  const PgDesign& design;
  const Netlist& net;
  const FeatureOptions& options;
  PixelMapper mapper;
  std::map<int, int> layer_of;
  std::vector<std::string> layer_names;
  int num_layers;
  int size;

  LayerContext(const PgDesign& d, const FeatureOptions& o)
      : design(d),
        net(d.netlist),
        options(o),
        mapper(d, o.image_size),
        layer_of(layer_index_map(d.netlist)),
        num_layers(static_cast<int>(layer_of.size())),
        size(o.image_size) {
    for (const auto& [metal, idx] : layer_of) {
      (void)idx;
      layer_names.push_back("m" + std::to_string(metal));
    }
  }
};

/// Per-layer wire statistics. Conductance share per layer drives the current
/// allocation; density and resistance maps rasterize the stripes themselves
/// (skipped when the caller only needs the shares).
struct WireStats {
  std::vector<double> layer_conductance;
  double total_conductance = 0.0;
  std::vector<GridF> density;
  std::vector<GridF> resistance;
};

WireStats compute_wire_stats(const LayerContext& ctx, bool rasterize) {
  WireStats ws;
  ws.layer_conductance.assign(static_cast<std::size_t>(ctx.num_layers), 0.0);
  if (rasterize) {
    ws.density.assign(static_cast<std::size_t>(ctx.num_layers),
                      GridF(ctx.size, ctx.size, 0.0f));
    ws.resistance.assign(static_cast<std::size_t>(ctx.num_layers),
                         GridF(ctx.size, ctx.size, 0.0f));
  }
  for (const spice::Resistor& r : ctx.net.resistors()) {
    if (r.a == spice::kGround || r.b == spice::kGround) continue;
    const auto& ca = ctx.net.node_coords(r.a);
    const auto& cb = ctx.net.node_coords(r.b);
    if (!ca || !cb || ca->layer != cb->layer) continue;  // vias handled implicitly
    const int l = ctx.layer_of.at(ca->layer);
    ws.layer_conductance[l] += 1.0 / r.ohms;
    if (rasterize) {
      rasterize_segment(ws.density[l], ctx.mapper.px(ca->x_nm), ctx.mapper.py(ca->y_nm),
                        ctx.mapper.px(cb->x_nm), ctx.mapper.py(cb->y_nm), 1.0);
      rasterize_segment(ws.resistance[l], ctx.mapper.px(ca->x_nm),
                        ctx.mapper.py(ca->y_nm), ctx.mapper.px(cb->x_nm),
                        ctx.mapper.py(cb->y_nm), r.ohms);
    }
  }
  for (double g : ws.layer_conductance) ws.total_conductance += g;
  if (ws.total_conductance <= 0.0) ws.total_conductance = 1.0;
  return ws;
}

// --- Numerical IR maps (rough AMG-PCG solution), per layer ----------------
void append_num_ir(FeatureStack& stack, const LayerContext& ctx,
                   const PgSolution& rough) {
  if (rough.ir_drop.size() != static_cast<std::size_t>(ctx.net.num_nodes())) {
    throw DimensionError("rough solution does not match netlist");
  }
  std::vector<std::vector<SamplePoint>> pts(static_cast<std::size_t>(ctx.num_layers));
  for (NodeId id = 0; id < ctx.net.num_nodes(); ++id) {
    const auto& coords = ctx.net.node_coords(id);
    if (!coords) continue;
    pts[ctx.layer_of.at(coords->layer)].push_back(
        {ctx.mapper.px(coords->x_nm), ctx.mapper.py(coords->y_nm), rough.ir_drop[id]});
  }
  std::vector<GridF> maps = scatter_per_layer(pts, ctx.size, ScatterMode::kAverage);
  if (ctx.options.hierarchical) {
    append(stack, std::move(maps), ctx.layer_names, "num_ir", true, false);
  } else {
    // Non-hierarchical view keeps only the bottom-layer numerical map.
    stack.channels.push_back(std::move(maps.front()));
    stack.names.push_back("num_ir_bottom");
  }
}

// --- Current maps: loads splat on the grid, allocated per layer by the
// layer's conductance share (Section III-C: "allocated proportionally
// based on the contribution from each layer, which is tied to resistance").
void append_current(FeatureStack& stack, const LayerContext& ctx, const WireStats& ws) {
  std::vector<SamplePoint> load_pts;
  for (const spice::CurrentSource& i : ctx.net.current_sources()) {
    const auto& c = ctx.net.node_coords(i.node);
    if (!c) continue;
    load_pts.push_back({ctx.mapper.px(c->x_nm), ctx.mapper.py(c->y_nm), i.amps});
  }
  GridF total = scatter_to_grid(load_pts, ctx.size, ctx.size, ScatterMode::kSum);
  std::vector<GridF> maps(static_cast<std::size_t>(ctx.num_layers),
                          GridF(ctx.size, ctx.size, 0.0f));
  par::parallel_for(0, ctx.num_layers, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t l = lo; l < hi; ++l) {
      GridF m = total;
      const float share =
          static_cast<float>(ws.layer_conductance[l] / ws.total_conductance);
      for (float& v : m.data()) v *= share;
      maps[l] = std::move(m);
    }
  });
  append(stack, std::move(maps), ctx.layer_names, "current", ctx.options.hierarchical,
         true);
}

// --- Effective distance to pads (one map) ---------------------------------
void append_eff_dist(FeatureStack& stack, const LayerContext& ctx) {
  std::vector<std::pair<double, double>> pad_px;
  for (NodeId pad : ctx.net.pad_nodes()) {
    const auto& c = ctx.net.node_coords(pad);
    if (c) pad_px.emplace_back(ctx.mapper.px(c->x_nm), ctx.mapper.py(c->y_nm));
  }
  GridF eff(ctx.size, ctx.size, 0.0f);
  const int size = ctx.size;
  // Each pixel row is independent; this O(size^2 * pads) loop is the most
  // expensive structural map, so it gets its own row fan-out.
  par::parallel_for(0, size, 4, [&](std::int64_t ylo, std::int64_t yhi) {
    for (int y = static_cast<int>(ylo); y < yhi; ++y) {
      for (int x = 0; x < size; ++x) {
        double inv_sum = 0.0;
        for (const auto& [px, py] : pad_px) {
          const double d = std::max(0.5, std::hypot(x - px, y - py));
          inv_sum += 1.0 / d;
        }
        eff(y, x) = inv_sum > 0.0 ? static_cast<float>(1.0 / inv_sum) : 0.0f;
      }
    }
  });
  stack.channels.push_back(std::move(eff));
  stack.names.push_back("eff_dist");
}

// --- Shortest-path resistance maps ----------------------------------------
void append_sp_resistance(FeatureStack& stack, const LayerContext& ctx) {
  std::vector<double> spr = shortest_path_resistance(ctx.design);
  std::vector<std::vector<SamplePoint>> pts(static_cast<std::size_t>(ctx.num_layers));
  for (NodeId id = 0; id < ctx.net.num_nodes(); ++id) {
    const auto& coords = ctx.net.node_coords(id);
    if (!coords || !std::isfinite(spr[static_cast<std::size_t>(id)])) continue;
    pts[ctx.layer_of.at(coords->layer)].push_back(
        {ctx.mapper.px(coords->x_nm), ctx.mapper.py(coords->y_nm), spr[id]});
  }
  std::vector<GridF> maps = scatter_per_layer(pts, ctx.size, ScatterMode::kAverage);
  append(stack, std::move(maps), ctx.layer_names, "sp_resistance",
         ctx.options.hierarchical, false);
}

/// Overwrite channels of `stack` with the same-named channels of `fragment`.
/// Every fragment channel must already exist in the stack — refresh never
/// changes the stack's layout, only its contents.
void replace_channels(FeatureStack& stack, FeatureStack&& fragment) {
  for (std::size_t f = 0; f < fragment.channels.size(); ++f) {
    const auto it = std::find(stack.names.begin(), stack.names.end(), fragment.names[f]);
    if (it == stack.names.end()) {
      throw DimensionError("refresh_features: channel '" + fragment.names[f] +
                           "' not present in the cached stack");
    }
    const std::size_t idx = static_cast<std::size_t>(it - stack.names.begin());
    stack.channels[idx] = std::move(fragment.channels[f]);
  }
}

}  // namespace

std::size_t FeatureStack::memory_bytes() const {
  std::size_t bytes = channels.capacity() * sizeof(GridF) +
                      names.capacity() * sizeof(std::string);
  for (const GridF& g : channels) bytes += g.size() * sizeof(float);
  for (const std::string& n : names) bytes += n.capacity();
  return bytes;
}

std::vector<double> shortest_path_resistance(const PgDesign& design) {
  const Netlist& net = design.netlist;
  const std::size_t n = static_cast<std::size_t>(net.num_nodes());
  // CSR adjacency of the node-to-node wires, each node's wires in netlist
  // order. It is built per call and never stored: an ECO edit rewrites ohms
  // on a copied design, and the build costs a tenth of the walk below.
  std::vector<std::size_t> offset(n + 1, 0);
  for (const spice::Resistor& r : net.resistors()) {
    if (r.a == spice::kGround || r.b == spice::kGround) continue;
    ++offset[r.a + 1];
    ++offset[r.b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  std::vector<NodeId> neighbour(offset[n]);
  std::vector<double> ohms(offset[n]);
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (const spice::Resistor& r : net.resistors()) {
    if (r.a == spice::kGround || r.b == spice::kGround) continue;
    neighbour[fill[r.a]] = r.b;
    ohms[fill[r.a]++] = r.ohms;
    neighbour[fill[r.b]] = r.a;
    ohms[fill[r.b]++] = r.ohms;
  }

  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (NodeId pad : net.pad_nodes()) {
    dist[static_cast<std::size_t>(pad)] = 0.0;
    heap.push({0.0, pad});
  }
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (std::size_t k = offset[u]; k < offset[u + 1]; ++k) {
      const double nd = d + ohms[k];
      if (nd < dist[neighbour[k]]) {
        dist[neighbour[k]] = nd;
        heap.push({nd, neighbour[k]});
      }
    }
  }
  return dist;
}

FeatureStack extract_features(const PgDesign& design, const PgSolution* rough,
                              const FeatureOptions& options) {
  obs::ScopedSpan span("feature_extract", "features");
  span.add_arg("image_size", options.image_size);
  span.add_arg("hierarchical", options.hierarchical ? 1.0 : 0.0);
  obs::count("features.extractions");
  if (options.image_size < 8) throw DimensionError("feature image size too small");
  if (options.include_numerical && rough == nullptr) {
    throw ConfigError("numerical features requested but no rough solution given");
  }
  const LayerContext ctx(design, options);

  FeatureStack stack;
  if (options.include_numerical) append_num_ir(stack, ctx, *rough);
  WireStats ws = compute_wire_stats(ctx, /*rasterize=*/true);
  append_current(stack, ctx, ws);
  append_eff_dist(stack, ctx);
  append(stack, std::move(ws.density), ctx.layer_names, "pdn_density",
         options.hierarchical, true);
  append(stack, std::move(ws.resistance), ctx.layer_names, "resistance",
         options.hierarchical, true);
  append_sp_resistance(stack, ctx);
  return stack;
}

void refresh_features(FeatureStack& stack, const PgDesign& design,
                      const PgSolution* rough, const FeatureOptions& options,
                      const DirtyChannels& dirty) {
  obs::ScopedSpan span("feature_refresh", "features");
  span.add_arg("numerical", dirty.numerical ? 1 : 0);
  span.add_arg("currents", dirty.currents ? 1 : 0);
  span.add_arg("wire_values", dirty.wire_values ? 1 : 0);
  obs::count("features.refreshes");
  if (options.include_numerical && dirty.numerical && rough == nullptr) {
    throw ConfigError("numerical refresh requested but no rough solution given");
  }
  const LayerContext ctx(design, options);

  FeatureStack fragment;
  if (options.include_numerical && dirty.numerical) append_num_ir(fragment, ctx, *rough);
  if (dirty.currents || dirty.wire_values) {
    // Conductance shares inside current_* depend on resistor values, so a
    // wire edit dirties the current maps too; the reverse is not true, and
    // current-only deltas skip the rasterization entirely.
    WireStats ws = compute_wire_stats(ctx, /*rasterize=*/dirty.wire_values);
    append_current(fragment, ctx, ws);
    if (dirty.wire_values) {
      append(fragment, std::move(ws.resistance), ctx.layer_names, "resistance",
             options.hierarchical, true);
      append_sp_resistance(fragment, ctx);
    }
  }
  replace_channels(stack, std::move(fragment));
}

GridF bottom_layer_map(const PgDesign& design, const linalg::Vec& node_values,
                       int image_size) {
  const Netlist& net = design.netlist;
  if (node_values.size() != static_cast<std::size_t>(net.num_nodes())) {
    throw DimensionError("node values do not match netlist");
  }
  const PixelMapper mapper(design, image_size);
  const std::map<int, int> layer_of = layer_index_map(net);
  const int bottom_metal = layer_of.begin()->first;
  std::vector<SamplePoint> pts;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const auto& coords = net.node_coords(id);
    if (!coords || coords->layer != bottom_metal) continue;
    pts.push_back({mapper.px(coords->x_nm), mapper.py(coords->y_nm), node_values[id]});
  }
  return scatter_to_grid(pts, image_size, image_size, ScatterMode::kAverage);
}

GridF label_map(const PgDesign& design, const PgSolution& golden, int image_size) {
  // Rasterizing a solution into the bottom-layer map is the same work as the
  // numerical feature channel, so it reports under the same span name.
  obs::ScopedSpan span("feature_extract", "features");
  span.add_arg("image_size", image_size);
  return bottom_layer_map(design, golden.ir_drop, image_size);
}

}  // namespace irf::features
