#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "features/extractor.hpp"
#include "irf.hpp"
#include "nn/ops.hpp"
#include "par/par.hpp"
#include "pg/delta.hpp"
#include "spans.hpp"
#include "train/normalizer.hpp"

namespace perfbench {
namespace {

using irf::GridF;
using irf::Rng;
using irf::Stopwatch;
using Clock = std::chrono::steady_clock;
using DesignPtr = std::shared_ptr<const irf::pg::PgDesign>;

constexpr int kImagePx = 64;                 ///< model raster of every workload
constexpr std::uint64_t kTrainSeed = 20250;  ///< fixed: the same model in every run
constexpr int kSetupRepeats = 3;             ///< setup_s is the median of these
constexpr int kMaxStampEdits = 8;            ///< EngineOptions default, pinned
constexpr double kWarmColdMaeVolts = 1e-8;   ///< warm map vs cold analyze
constexpr std::uint64_t kEcoBaseSeed = 4242;  ///< fixed base design of eco_warm
constexpr int kEcoCheckEvery = 16;           ///< eco_warm rounds between checks
constexpr double kStageAgreement = 0.25;     ///< direct call vs StageTimings
constexpr int kProbeCalls = 3;               ///< calls per probed layer path
constexpr double kKernelSeconds = 0.2;       ///< timed loop per kernel

enum class Kind { kColdLarge, kEcoWarm, kHotServe };

/// One workload's shape. Every workload is a closed loop driven by a single
/// generator thread (the benchmark's main thread).
struct Spec {
  const char* name;
  Kind kind;
  int design_px;           ///< PG die extent in 1 um pixels
  bool real_designs;       ///< generator family of the served designs
  int population;          ///< distinct designs cycled through
  int window;              ///< requests kept in flight
  int max_batch;           ///< EngineOptions::max_batch
  std::size_t cache_budget;  ///< EngineOptions::cache_budget_bytes
  int rough_iterations;    ///< PipelineConfig::rough_iterations
};

// cold_large and eco_warm use a 1-byte cache budget: below any entry, so
// the engine keeps only the entry it just built (it never evicts the last
// one). eco_warm's rough solve runs to convergence (50 iterations), the
// regime in which warm serving must match a cold analyze within 1e-8.
constexpr Spec kSpecs[] = {
    {"cold_large", Kind::kColdLarge, 256, true, 32, 1, 8, 1, 3},
    {"eco_warm", Kind::kEcoWarm, 256, false, 1, 1, 8, 1, 50},
    {"hot_serve", Kind::kHotServe, 64, true, 16, 8, 8, std::size_t{256} << 20, 3},
};

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- small statistics helpers --------------------------------------------

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double mae(const GridF& a, const GridF& b) {
  if (a.size() != b.size() || a.size() == 0) return INFINITY;
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += std::abs(static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]));
  }
  return s / static_cast<double>(a.size());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool bit_identical(const GridF& a, const GridF& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

constexpr double kMiB = 1024.0 * 1024.0;

// --- inputs ----------------------------------------------------------------

irf::pg::PgDesign generate(int px, bool real, Rng& rng, std::string name) {
  return real ? irf::pg::generate_real_design(px, rng, std::move(name))
              : irf::pg::generate_fake_design(px, rng, std::move(name));
}

std::vector<DesignPtr> make_population(const Spec& spec, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DesignPtr> out;
  for (int i = 0; i < spec.population; ++i) {
    Rng design_rng = rng.fork();
    out.push_back(std::make_shared<const irf::pg::PgDesign>(generate(
        spec.design_px, spec.real_designs, design_rng, std::string(spec.name) + "_" +
                                                            std::to_string(i))));
  }
  return out;
}

/// One fake and one real design of the workload's size, from a fixed seed.
std::vector<irf::train::PreparedDesign> make_training_set(const Spec& spec) {
  Rng rng(kTrainSeed);
  std::vector<irf::train::PreparedDesign> out;
  for (bool real : {false, true}) {
    Rng design_rng = rng.fork();
    irf::train::PreparedDesign p;
    p.design = std::make_unique<irf::pg::PgDesign>(
        generate(spec.design_px, real, design_rng, real ? "train_real" : "train_fake"));
    p.solver = std::make_unique<irf::pg::PgSolver>(*p.design);
    p.golden = p.solver->solve_golden();
    out.push_back(std::move(p));
  }
  return out;
}

GridF golden_map(const irf::pg::PgDesign& design) {
  irf::pg::PgSolver solver(design);
  return irf::features::label_map(design, solver.solve_golden(), kImagePx);
}

/// The ECO chain of eco_warm: every round rescales all load currents to a
/// fresh factor in [0.9, 1.1] of the base and sets 1-2 resistors to a fresh
/// factor in [0.8, 1.25] of their base value. Topology never changes and each
/// round differs from its predecessor by at most 4 resistor values, within
/// max_stamp_edits. The same seed gives the same chain.
class EcoChain {
 public:
  EcoChain(DesignPtr base, std::uint64_t seed)
      : base_(std::move(base)), current_(base_), rng_(seed ^ 0xEC0C4A1Bull) {}

  DesignPtr next() {
    auto d = std::make_shared<irf::pg::PgDesign>(*current_);
    ++round_;
    d->name = "eco_" + std::to_string(round_);
    const double scale = rng_.uniform(0.9, 1.1);
    d->netlist.scale_current_sources(scale / scale_);
    scale_ = scale;
    const int edits = rng_.uniform_int(1, 2);
    const int count = static_cast<int>(d->netlist.resistors().size());
    for (int e = 0; e < edits; ++e) {
      const auto idx = static_cast<std::size_t>(rng_.uniform_int(0, count - 1));
      d->netlist.set_resistor_ohms(
          idx, base_->netlist.resistors()[idx].ohms * rng_.uniform(0.8, 1.25));
    }
    current_ = d;
    return d;
  }

 private:
  DesignPtr base_;
  DesignPtr current_;
  Rng rng_;
  double scale_ = 1.0;
  int round_ = 0;
};

// --- set-up ------------------------------------------------------------------

irf::PipelineConfig pipeline_config(const Spec& spec) {
  irf::PipelineConfig c;
  c.image_size = kImagePx;
  c.rough_iterations = spec.rough_iterations;
  c.epochs = 1;
  c.use_augmentation = false;
  c.seed = kTrainSeed;
  return c;
}

irf::EngineOptions engine_options(const Spec& spec) {
  irf::EngineOptions o;
  o.max_batch = spec.max_batch;
  o.cache_budget_bytes = spec.cache_budget;
  o.max_stamp_edits = kMaxStampEdits;
  return o;
}

struct Served {
  std::optional<irf::IrFusionPipeline> pipeline;  ///< the fitted original
  std::unique_ptr<irf::Engine> engine;            ///< restored from its checkpoint
  std::vector<double> setup_seconds;
  std::vector<double> fit_seconds;
};

/// Submit a window of designs and wait for all; throws unless every one is ok.
void serve_all(irf::Engine& engine, const std::vector<DesignPtr>& designs) {
  std::vector<irf::Engine::Ticket> tickets;
  for (const DesignPtr& d : designs) {
    irf::AnalysisRequest request;
    request.design = d;
    tickets.push_back(engine.submit(std::move(request)));
  }
  for (irf::Engine::Ticket& t : tickets) {
    const irf::AnalysisResult r = t.result.get();
    if (!r.ok()) throw std::runtime_error("warm-up request failed: " + r.error);
  }
}

/// fit + checkpoint save/load + engine start + warm-up, kSetupRepeats times;
/// the last engine serves the run. Design generation is not timed.
Served set_up(const Spec& spec, const std::vector<irf::train::PreparedDesign>& train_set,
              const std::string& checkpoint,
              const std::vector<std::vector<DesignPtr>>& warmup) {
  Served s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.engine.reset();
    s.pipeline.reset();
    Stopwatch setup;
    s.pipeline.emplace(pipeline_config(spec));
    Stopwatch fit;
    s.pipeline->fit(train_set);
    s.fit_seconds.push_back(fit.seconds());
    irf::save_checkpoint(*s.pipeline, checkpoint);
    s.engine = irf::Engine::from_checkpoint(checkpoint, engine_options(spec));
    for (const std::vector<DesignPtr>& window : warmup) serve_all(*s.engine, window);
    s.setup_seconds.push_back(setup.seconds());
  }
  return s;
}

// --- the measured closed loop -------------------------------------------------

struct Completed {
  DesignPtr design;
  int index = -1;  ///< population index (-1 on eco_warm)
  double latency_seconds = 0.0;
  irf::AnalysisResult result;
};

/// Keep `window` requests in flight for `seconds`, then drain. `next` yields
/// the next design (called one step ahead, so the generator prepares a
/// request while the previous one is served). Returns the wall time.
double closed_loop(irf::Engine& engine, int window, double seconds,
                   const std::function<std::pair<DesignPtr, int>()>& next,
                   std::vector<Completed>& done) {
  struct InFlight {
    Clock::time_point submitted;
    irf::Engine::Ticket ticket;
    DesignPtr design;
    int index;
  };
  std::deque<InFlight> in_flight;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::pair<DesignPtr, int> upcoming = next();
  for (;;) {
    while (static_cast<int>(in_flight.size()) < window && Clock::now() < stop) {
      irf::AnalysisRequest request;
      request.design = upcoming.first;
      InFlight f{Clock::now(), {}, upcoming.first, upcoming.second};
      f.ticket = engine.submit(std::move(request));
      in_flight.push_back(std::move(f));
      upcoming = next();
    }
    if (in_flight.empty()) break;
    InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    Completed c;
    c.result = f.ticket.result.get();
    c.latency_seconds = std::chrono::duration<double>(Clock::now() - f.submitted).count();
    if (f.index >= 0) c.design = std::move(f.design);  // population designs are shared anyway
    c.index = f.index;
    done.push_back(std::move(c));
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- traced replay through the layers' public functions -----------------------

/// Per-design state the engine would cache: solver, rough solution, sample.
struct DesignState {
  DesignPtr design;
  std::unique_ptr<irf::pg::PgSolver> solver;
  irf::pg::PgSolution rough;
  irf::train::Sample sample;
};

/// One timed call on a batch of `batch` samples (request -1: probe/warm-up).
struct BatchCall {
  int batch = 0;
  double seconds = 0.0;
  std::int64_t request = -1;
};

/// Calls each layer the way serve::Engine does, in its stage order, inside
/// benchmark spans named "<layer>.<call>".
class Replayer {
 public:
  Replayer(SpanRecorder& spans, irf::IrFusionPipeline& pipeline, int rough_iterations)
      : spans_(spans), pipeline_(pipeline), rough_iterations_(rough_iterations) {
    pipeline_.model().set_training(false);
  }

  /// Engine stage A on a cache miss: hash, MNA + AMG setup, rough solve,
  /// both feature stacks, the rough bottom map.
  DesignState cold(const DesignPtr& design, std::int64_t request) {
    DesignState st;
    st.design = design;
    lookup(*design, request);
    {
      ScopedSpan s(spans_, "pg.setup", request);
      st.solver = std::make_unique<irf::pg::PgSolver>(*design);
    }
    {
      ScopedSpan s(spans_, "solver.rough", request);
      st.rough = st.solver->solve_rough(rough_iterations_);
    }
    rough_iters.push_back(st.rough.iterations);
    rough_residual.push_back(st.rough.final_relative_residual);
    irf::features::FeatureOptions opts;
    opts.image_size = kImagePx;
    opts.hierarchical = true;
    opts.include_numerical = true;
    {
      ScopedSpan s(spans_, "features.hier", request);
      st.sample.hier = irf::features::extract_features(*design, &st.rough, opts);
    }
    opts.hierarchical = false;
    {
      ScopedSpan s(spans_, "features.flat", request);
      st.sample.flat = irf::features::extract_features(*design, &st.rough, opts);
    }
    {
      ScopedSpan s(spans_, "features.label", request);
      st.sample.rough_bottom = irf::features::label_map(*design, st.rough, kImagePx);
    }
    st.sample.design_name = design->name;
    st.sample.kind = design->kind;
    return st;
  }

  /// Engine stage A on a warm miss: delta check, rebind, warm-started PCG,
  /// refresh of the dirty channels. `st` is the previous round's state and
  /// becomes this round's.
  void warm(DesignState& st, const DesignPtr& next, std::int64_t request) {
    lookup(*next, request);
    irf::pg::DesignDelta delta;
    {
      ScopedSpan s(spans_, "pg.delta", request);
      delta = irf::pg::classify_design_delta(*st.design, *next, kMaxStampEdits);
    }
    if (!delta.compatible) throw std::runtime_error("replay: ECO round not warm-compatible");
    irf::train::Sample sample = st.sample;  // the engine copies the base entry's sample
    {
      ScopedSpan s(spans_, "pg.rebind", request);
      st.solver->rebind(*next);
    }
    const double target = std::max(st.rough.final_relative_residual, 1e-14);
    const int max_iterations = std::max(2 * rough_iterations_, 8);
    {
      ScopedSpan s(spans_, "solver.warm", request);
      st.rough = st.solver->solve_warm(st.rough.node_voltage, target, max_iterations);
    }
    warm_iters.push_back(st.rough.iterations);
    irf::features::DirtyChannels dirty;
    dirty.numerical =
        delta.currents_changed || delta.supply_changed || delta.resistor_edits > 0;
    dirty.currents = delta.currents_changed || delta.resistor_edits > 0;
    dirty.wire_values = delta.resistor_edits > 0;
    irf::features::FeatureOptions opts;
    opts.image_size = kImagePx;
    opts.hierarchical = true;
    opts.include_numerical = true;
    {
      ScopedSpan s(spans_, "features.refresh", request);
      irf::features::refresh_features(sample.hier, *next, &st.rough, opts, dirty);
      opts.hierarchical = false;
      irf::features::refresh_features(sample.flat, *next, &st.rough, opts, dirty);
    }
    if (dirty.numerical) {
      ScopedSpan s(spans_, "features.label", request);
      sample.rough_bottom = irf::features::label_map(*next, st.rough, kImagePx);
    }
    sample.design_name = next->name;
    sample.kind = next->kind;
    st.sample = std::move(sample);
    st.design = next;
  }

  /// Engine stage B: normalized inputs stacked into one batch, one forward,
  /// maps converted back to volts (plus the rough map under residual mode).
  std::vector<GridF> infer(const std::vector<const irf::train::Sample*>& batch,
                           std::int64_t request) {
    const irf::train::FeatureView view = pipeline_.view();
    const irf::train::Normalizer& normalizer = pipeline_.normalizer();
    const int n = static_cast<int>(batch.size());
    irf::nn::Tensor input;
    {
      const Clock::time_point t0 = Clock::now();
      ScopedSpan s(spans_, "train.normalize", request);
      std::vector<float> data;
      irf::nn::Shape shape;
      for (const irf::train::Sample* sample : batch) {
        irf::nn::Tensor t = normalizer.input_tensor(*sample, view);
        shape = t.shape();
        data.insert(data.end(), t.data().begin(), t.data().end());
      }
      shape.n = n;
      input = irf::nn::Tensor::from_data(shape, std::move(data));
      normalizes.push_back({n, seconds_since(t0), request});
    }
    irf::nn::Tensor out;
    {
      const Clock::time_point t0 = Clock::now();
      ScopedSpan s(spans_, "models.forward", request);
      out = pipeline_.model().forward(input);
      forwards.push_back({n, seconds_since(t0), request});
    }
    ScopedSpan s(spans_, "serve.respond", request);
    const int h = out.shape().h;
    const int w = out.shape().w;
    const std::size_t plane = static_cast<std::size_t>(h) * static_cast<std::size_t>(w);
    const bool add_rough = pipeline_.refines_rough_solution();
    std::vector<GridF> maps;
    for (int i = 0; i < n; ++i) {
      GridF map(h, w);
      const float* src = out.data().data() + static_cast<std::size_t>(i) * plane;
      for (std::size_t j = 0; j < plane; ++j) map.data()[j] = src[j] / irf::train::kLabelScale;
      if (add_rough) {
        const GridF& rough = batch[static_cast<std::size_t>(i)]->rough_bottom;
        for (std::size_t j = 0; j < plane; ++j) map.data()[j] += rough.data()[j];
      }
      maps.push_back(std::move(map));
    }
    return maps;
  }

  /// Engine stage A on a cache hit: only the content and topology hashes.
  void lookup(const irf::pg::PgDesign& design, std::int64_t request) {
    ScopedSpan s(spans_, "serve.hash", request);
    hash_sink ^= irf::serve::design_content_hash(design) ^ irf::serve::design_topology_hash(design);
  }

  std::vector<double> rough_iters, rough_residual, warm_iters;
  std::vector<BatchCall> normalizes, forwards;
  std::uint64_t hash_sink = 0;  ///< keeps the hash calls observable

 private:
  SpanRecorder& spans_;
  irf::IrFusionPipeline& pipeline_;
  int rough_iterations_;
};

// --- kernel section --------------------------------------------------------------

struct KernelRate {
  double flop = 0.0;   ///< per call, computed from shapes
  double bytes = 0.0;  ///< compulsory traffic per call, computed from shapes
  double gflops = 0.0; ///< measured
};

/// y = A x on the workload's conductance matrix. Bytes: values + column
/// indices + row pointers, x read once, y written once.
KernelRate spmv_rate(const irf::linalg::CsrMatrix& a) {
  KernelRate k;
  const double nnz = static_cast<double>(a.nnz());
  const double rows = static_cast<double>(a.rows());
  k.flop = 2.0 * nnz;
  k.bytes = nnz * (8.0 + 4.0) + (rows + 1.0) * 4.0 + rows * 8.0 + rows * 8.0;
  irf::linalg::Vec x(static_cast<std::size_t>(a.cols()), 1.0);
  irf::linalg::Vec y(static_cast<std::size_t>(a.rows()), 0.0);
  a.multiply(x, y);  // builds the lazily cached layouts outside the timing
  long calls = 0;
  Stopwatch sw;
  do {
    a.multiply(x, y);
    ++calls;
  } while (sw.seconds() < kKernelSeconds);
  k.gflops = k.flop * static_cast<double>(calls) / sw.seconds() * 1e-9;
  return k;
}

/// nn::conv2d at the model's stem shape: the first conv, in_channels ->
/// base_channels 3x3 at the full raster, with the model's own weights.
KernelRate conv_rate(irf::IrFusionPipeline& pipeline, int in_channels) {
  const std::vector<irf::nn::Tensor> params = pipeline.model().parameters();
  const irf::nn::Tensor& weight = params.at(0);
  const irf::nn::Shape w = weight.shape();  // [Cout, Cin, kh, kw]
  irf::nn::Tensor bias;
  if (params.size() > 1 && params[1].shape() == irf::nn::Shape{1, w.n, 1, 1}) bias = params[1];
  if (w.c != in_channels) throw std::runtime_error("stem conv shape is not [*, C_in, *, *]");
  const irf::nn::Tensor x = irf::nn::Tensor::full({1, w.c, kImagePx, kImagePx}, 0.5f);
  KernelRate k;
  const double outputs = static_cast<double>(w.n) * kImagePx * kImagePx;
  k.flop = 2.0 * outputs * w.c * w.h * w.w;
  k.bytes = 4.0 * (static_cast<double>(x.numel()) + static_cast<double>(weight.numel()) +
                   outputs);
  (void)irf::nn::conv2d(x, weight, bias);
  long calls = 0;
  Stopwatch sw;
  do {
    irf::nn::Tensor y = irf::nn::conv2d(x, weight, bias);
    ++calls;
  } while (sw.seconds() < kKernelSeconds);
  k.gflops = k.flop * static_cast<double>(calls) / sw.seconds() * 1e-9;
  return k;
}

// --- the run -------------------------------------------------------------------

class Run {
 public:
  Run(const RunOptions& options, const Spec& spec) : opt_(options), spec_(spec) {}

  RunReport execute();

 private:
  void metric(const std::string& name, double value, const std::string& unit) {
    report_.metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    if (report_.problems.size() < 20) report_.problems.push_back(why);
  }
  void invalidate(const std::string& why) {
    report_.correct = false;
    fail("precondition: " + why);
  }

  void prepare_inputs();
  void serve_window();
  void check_eco_samples();
  void report_end_to_end();
  void trace_replay();

  const RunOptions& opt_;
  const Spec& spec_;
  RunReport report_;

  std::vector<DesignPtr> population_;
  std::vector<GridF> golden_;     ///< per population design
  std::vector<GridF> reference_;  ///< IrFusionPipeline::analyze per population design
  Served served_;
  std::vector<Completed> done_;
  double wall_seconds_ = 0.0;
  irf::EngineStats before_, after_;
  std::vector<double> mae_uv_;
  std::vector<std::pair<DesignPtr, GridF>> eco_checks_;  ///< sampled round + served map
};

void Run::prepare_inputs() {
  if (spec_.kind == Kind::kEcoWarm) {
    population_ = make_population(spec_, kEcoBaseSeed);  // the seed drives the chain
    return;
  }
  population_ = make_population(spec_, opt_.seed);
  for (const DesignPtr& d : population_) golden_.push_back(golden_map(*d));
}

void Run::serve_window() {
  irf::Engine& engine = *served_.engine;
  std::function<std::pair<DesignPtr, int>()> next;
  std::optional<EcoChain> chain;
  std::size_t cursor = 0;
  if (spec_.kind == Kind::kEcoWarm) {
    chain.emplace(population_[0], opt_.seed);
    chain->next();  // round 1 was served during warm-up; resume from round 2
    // A 256 px round is megabytes, so only every kEcoCheckEvery-th design is
    // kept, for the checks after the window.
    next = [&] {
      DesignPtr d = chain->next();
      if (++cursor % kEcoCheckEvery == 0) eco_checks_.emplace_back(d, GridF());
      return std::pair<DesignPtr, int>{d, -1};
    };
  } else {
    // cold_large's warm-up served designs 0 and 1; start at 2 so the one
    // cached entry is never the next request.
    cursor = spec_.kind == Kind::kColdLarge ? 2 : 0;
    next = [&] {
      const int i = static_cast<int>(cursor++ % population_.size());
      return std::pair<DesignPtr, int>{population_[static_cast<std::size_t>(i)], i};
    };
  }
  before_ = engine.stats();
  wall_seconds_ = closed_loop(engine, spec_.window, opt_.seconds, next, done_);
  after_ = engine.stats();

  std::size_t round = 0;
  for (const Completed& c : done_) {
    ++round;
    ++report_.attempted;
    const irf::AnalysisResult& r = c.result;
    if (!r.ok()) {
      ++report_.failed;
      fail(std::string("request status ") + irf::status_name(r.status) + ": " + r.error);
      continue;
    }
    if (spec_.kind == Kind::kEcoWarm) {
      if (!r.warm_start) invalidate("eco_warm request not served warm");
      if (round % kEcoCheckEvery == 0) eco_checks_[round / kEcoCheckEvery - 1].second = r.ir_drop;
      continue;
    }
    const auto i = static_cast<std::size_t>(c.index);
    if (spec_.kind == Kind::kColdLarge && (r.cache_hit || r.warm_start)) {
      invalidate("cold_large request hit the cache");
    }
    if (spec_.kind == Kind::kHotServe && !r.cache_hit) {
      invalidate("hot_serve request missed the cache");
    }
    if (!bit_identical(r.ir_drop, reference_[i])) {
      ++report_.failed;
      fail("served map of " + c.design->name + " differs from IrFusionPipeline::analyze");
    }
    mae_uv_.push_back(mae(r.ir_drop, golden_[i]) * 1e6);
  }
  const std::uint64_t hits = after_.cache_hits - before_.cache_hits;
  const std::uint64_t misses = after_.cache_misses - before_.cache_misses;
  const std::uint64_t warm_hits = after_.warm_hits - before_.warm_hits;
  const auto n = static_cast<std::uint64_t>(done_.size());
  if (spec_.kind == Kind::kColdLarge && (hits != 0 || warm_hits != 0)) {
    invalidate("cold_large cache hit rate is not 0");
  }
  if (spec_.kind == Kind::kHotServe && (hits != n || misses != 0)) {
    invalidate("hot_serve cache hit rate is not 1");
  }
  if (spec_.kind == Kind::kEcoWarm && warm_hits != n) {
    invalidate("eco_warm warm-hit rate is not 1");
  }
}

/// Every kEcoCheckEvery-th eco round: the warm map against a cold analyze of
/// the same design, and the map's error against a golden label.
void Run::check_eco_samples() {
  // The generator prepares one design ahead, so the last sample may never
  // have been served.
  while (!eco_checks_.empty() && eco_checks_.back().second.size() == 0) eco_checks_.pop_back();
  for (const auto& [design, served] : eco_checks_) {
    const GridF cold = served_.pipeline->analyze(*design);
    const double diff = mae(served, cold);
    if (!(diff <= kWarmColdMaeVolts)) {
      ++report_.failed;
      fail("eco round " + design->name + ": warm map is " + std::to_string(diff) +
           " V MAE from a cold analyze");
    }
    mae_uv_.push_back(mae(served, golden_map(*design)) * 1e6);
  }
  if (eco_checks_.empty()) invalidate("eco_warm ran fewer rounds than one check interval");
}

void Run::report_end_to_end() {
  std::vector<double> latency_ms;
  for (const Completed& c : done_) latency_ms.push_back(c.latency_seconds * 1e3);
  metric("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  metric("latency_p90_ms", quantile(latency_ms, 0.9), "ms");
  metric("throughput_rps", static_cast<double>(done_.size()) / wall_seconds_, "1/s");
  const double attempted = static_cast<double>(std::max(1L, report_.attempted));
  metric("success_rate", (attempted - static_cast<double>(report_.failed)) / attempted,
         "ratio");
  metric("mae_uv", mean(mae_uv_), "uV");
  metric("setup_s", median(served_.setup_seconds), "s");
  metric("peak_rss_mb", peak_rss_mb(), "MB");
}

RunReport Run::execute() {
  irf::par::set_num_threads(kPinnedThreads);
  const std::string checkpoint =
      opt_.out_dir + "/model_" + spec_.name + "_" + std::to_string(opt_.seed) + ".irf";

  // Untimed inputs: served designs, golden labels, the training set.
  prepare_inputs();
  const std::vector<irf::train::PreparedDesign> train_set = make_training_set(spec_);

  std::vector<std::vector<DesignPtr>> warmup;
  if (spec_.kind == Kind::kColdLarge) {
    warmup = {{population_[0]}, {population_[1]}};
  } else if (spec_.kind == Kind::kHotServe) {
    // Fill the cache, then one all-hit window.
    warmup = {population_, {population_.begin(), population_.begin() + spec_.window}};
  } else {
    EcoChain chain(population_[0], opt_.seed);
    warmup = {{population_[0]}, {chain.next()}};  // cold base, then one warm round
  }
  served_ = set_up(spec_, train_set, checkpoint, warmup);
  if (spec_.kind != Kind::kEcoWarm) {
    for (const DesignPtr& d : population_) reference_.push_back(served_.pipeline->analyze(*d));
  }

  serve_window();
  if (spec_.kind == Kind::kEcoWarm) check_eco_samples();

  report_.context = {{"seed", static_cast<double>(opt_.seed)},
                     {"held_out_seed", static_cast<double>(kHeldOutSeed)},
                     {"irf_threads", static_cast<double>(irf::par::num_threads())},
                     {"requests", static_cast<double>(done_.size())},
                     {"window", static_cast<double>(spec_.window)},
                     {"max_batch", static_cast<double>(spec_.max_batch)},
                     {"design_px", static_cast<double>(spec_.design_px)},
                     {"image_px", static_cast<double>(kImagePx)},
                     {"population", static_cast<double>(spec_.population)},
                     {"rough_iterations", static_cast<double>(spec_.rough_iterations)},
                     {"setup_repeats", static_cast<double>(kSetupRepeats)}};
  if (opt_.trace) {
    trace_replay();
  } else {
    report_end_to_end();
  }
  std::remove(checkpoint.c_str());
  if (report_.failed > 0) report_.correct = false;
  return report_;
}

/// Sum, per measured request, of the durations of spans named in `names`.
std::map<std::int64_t, double> per_request(const SpanRecorder& spans,
                                           const std::vector<std::string>& names) {
  std::map<std::int64_t, double> out;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    if (s.request < 0) continue;
    if (std::find(names.begin(), names.end(), s.name) == names.end()) continue;
    out[s.request] += spans.seconds(static_cast<int>(i));
  }
  return out;
}

std::vector<double> values(const std::map<std::int64_t, double>& m) {
  std::vector<double> out;
  for (const auto& [k, v] : m) out.push_back(v);
  return out;
}

void Run::trace_replay() {
  SpanRecorder spans;
  irf::IrFusionPipeline& pipeline = *served_.pipeline;
  Replayer replay(spans, pipeline, spec_.rough_iterations);
  std::map<std::string, DesignState> cache;  ///< hot_serve's stand-in for the engine cache
  std::optional<DesignState> eco_state;

  // Warm-up, as the engine saw it (outside the request statistics).
  if (spec_.kind == Kind::kHotServe) {
    ScopedSpan w(spans, "warmup", -1);
    for (const DesignPtr& d : population_) cache.emplace(d->name, replay.cold(d, -1));
  } else if (spec_.kind == Kind::kEcoWarm) {
    EcoChain chain(population_[0], opt_.seed);
    ScopedSpan w(spans, "warmup", -1);
    eco_state.emplace(replay.cold(population_[0], -1));
    replay.warm(*eco_state, chain.next(), -1);
  }

  // The measured request sequence in order; a prefix once the replay has
  // used half the run length.
  std::optional<EcoChain> chain;
  if (spec_.kind == Kind::kEcoWarm) {
    chain.emplace(population_[0], opt_.seed);
    chain->next();
  }
  Stopwatch replay_clock;
  for (std::size_t i = 0; i < done_.size() && replay_clock.seconds() < 0.5 * opt_.seconds;) {
    const Completed& c = done_[i];
    const auto id = static_cast<std::int64_t>(c.result.req_id);
    if (spec_.kind == Kind::kColdLarge) {
      GridF map;
      {
        ScopedSpan req(spans, "serve.request", id);
        DesignState st = replay.cold(c.design, id);
        map = replay.infer({&st.sample}, id).at(0);
      }
      if (!bit_identical(map, reference_[static_cast<std::size_t>(c.index)])) {
        ++report_.failed;
        fail("replayed map of " + c.design->name + " differs from IrFusionPipeline::analyze");
      }
      ++i;
    } else if (spec_.kind == Kind::kEcoWarm) {
      const DesignPtr next = chain->next();
      GridF map;
      {
        ScopedSpan req(spans, "serve.request", id);
        replay.warm(*eco_state, next, id);
        map = replay.infer({&eco_state->sample}, id).at(0);
      }
      if (next->name != c.result.design_name || !bit_identical(map, c.result.ir_drop)) {
        ++report_.failed;
        fail("replayed eco round " + next->name + " differs from the served map");
      }
      ++i;
    } else {
      // One engine dispatch batch: the requests that rode in it, in order.
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(std::max(1, c.result.batch_size)), done_.size() - i);
      std::vector<GridF> maps;
      {
        ScopedSpan req(spans, "serve.request", id);
        std::vector<const irf::train::Sample*> batch;
        for (std::size_t k = i; k < i + n; ++k) {
          replay.lookup(*done_[k].design, id);
          batch.push_back(&cache.at(done_[k].design->name).sample);
        }
        maps = replay.infer(batch, id);
      }
      for (std::size_t k = 0; k < n; ++k) {
        if (!bit_identical(maps[k], reference_[static_cast<std::size_t>(done_[i + k].index)])) {
          ++report_.failed;
          fail("replayed batch map differs from IrFusionPipeline::analyze");
        }
      }
      i += n;
    }
  }

  // Probes: the layer paths this workload's requests do not take, at its
  // own design size, plus the golden reference solve.
  std::optional<DesignState> sized;
  std::vector<double> golden_iters;
  {
    ScopedSpan p(spans, "probe", -1);
    sized.emplace(replay.cold(population_[0], -1));
    if (spec_.kind == Kind::kEcoWarm) {
      for (int k = 1; k < kProbeCalls; ++k) (void)replay.cold(population_[0], -1);
    } else {
      DesignState st = replay.cold(population_[0], -1);
      EcoChain probe_chain(population_[0], opt_.seed);
      for (int k = 0; k < kProbeCalls; ++k) replay.warm(st, probe_chain.next(), -1);
    }
    if (spec_.kind == Kind::kHotServe) {
      for (int k = 0; k < kProbeCalls; ++k) (void)replay.infer({&sized->sample}, -1);
    }
    for (int k = 0; k < kProbeCalls; ++k) {
      const DesignPtr& d = population_[static_cast<std::size_t>(k) % population_.size()];
      irf::pg::PgSolver solver(*d);
      ScopedSpan g(spans, "solver.golden", -1);
      golden_iters.push_back(solver.solve_golden().iterations);
    }
  }
  const irf::pg::PgSolver& solver = *sized->solver;
  const KernelRate spmv = spmv_rate(solver.system().conductance);
  const int in_channels =
      irf::train::view_channel_count(sized->sample, pipeline.view());
  const KernelRate conv = conv_rate(pipeline, in_channels);

  auto ms = [&](const char* name) { return median(spans.durations(name)) * 1e3; };
  auto per_sample_ms = [&](const std::vector<BatchCall>& calls, bool batch_one) {
    std::vector<double> v;
    for (const BatchCall& f : calls) {
      if (batch_one ? f.batch == 1 : f.request >= 0) v.push_back(f.seconds / f.batch);
    }
    return median(v) * 1e3;
  };
  metric("pg.setup_ms", ms("pg.setup"), "ms");
  metric("pg.unknowns", solver.system().conductance.rows(), "count");
  metric("pg.nnz", static_cast<double>(solver.system().conductance.nnz()), "count");
  metric("pg.solver_mb", static_cast<double>(solver.memory_bytes()) / kMiB, "MB");
  metric("pg.delta_ms", ms("pg.delta"), "ms");
  metric("pg.rebind_ms", ms("pg.rebind"), "ms");
  metric("solver.rough_ms", ms("solver.rough"), "ms");
  metric("solver.rough_iters", median(replay.rough_iters), "count");
  metric("solver.rough_residual", median(replay.rough_residual), "ratio");
  metric("solver.warm_ms", ms("solver.warm"), "ms");
  metric("solver.warm_iters", median(replay.warm_iters), "count");
  metric("solver.golden_ms", ms("solver.golden"), "ms");
  metric("solver.golden_iters", median(golden_iters), "count");
  metric("linalg.spmv_flop", spmv.flop, "flop");
  metric("linalg.spmv_bytes", spmv.bytes, "B");
  metric("linalg.spmv_flop_per_byte", spmv.flop / spmv.bytes, "flop/B");
  metric("linalg.spmv_gflops", spmv.gflops, "GF/s");
  metric("features.hier_ms", ms("features.hier"), "ms");
  metric("features.flat_ms", ms("features.flat"), "ms");
  metric("features.label_ms", ms("features.label"), "ms");
  metric("features.refresh_ms", ms("features.refresh"), "ms");
  metric("features.channels", sized->sample.hier.size() + sized->sample.flat.size(), "count");
  metric("features.stack_mb",
         static_cast<double>(sized->sample.hier.memory_bytes() +
                             sized->sample.flat.memory_bytes()) / kMiB,
         "MB");
  metric("train.normalize_ms", per_sample_ms(replay.normalizes, false), "ms");
  metric("train.fit_s", median(served_.fit_seconds), "s");
  metric("models.forward_ms", per_sample_ms(replay.forwards, true), "ms");
  metric("models.forward_ms_per_sample", per_sample_ms(replay.forwards, false), "ms");
  metric("models.params", static_cast<double>(pipeline.model().num_parameters()), "count");
  metric("nn.conv_flop", conv.flop, "flop");
  metric("nn.conv_bytes", conv.bytes, "B");
  metric("nn.conv_flop_per_byte", conv.flop / conv.bytes, "flop/B");
  metric("nn.conv_gflops", conv.gflops, "GF/s");

  // Serving layer, from the engine's own results and stats.
  std::vector<double> queue_ms, batch, latency_ms;
  for (const Completed& c : done_) {
    queue_ms.push_back(c.result.stages.queue_wait_seconds * 1e3);
    batch.push_back(c.result.batch_size);
    latency_ms.push_back(c.latency_seconds * 1e3);
  }
  const double hits = static_cast<double>(after_.cache_hits - before_.cache_hits);
  const double misses = static_cast<double>(after_.cache_misses - before_.cache_misses);
  const double warm_hits = static_cast<double>(after_.warm_hits - before_.warm_hits);
  const double requests = static_cast<double>(std::max<std::size_t>(1, done_.size()));
  const double engine_p50 = quantile(latency_ms, 0.5);
  const double direct_p50 = ms("serve.request");
  metric("serve.requests", static_cast<double>(done_.size()), "count");
  metric("serve.hash_ms", ms("serve.hash"), "ms");
  metric("serve.queue_wait_p50_ms", quantile(queue_ms, 0.5), "ms");
  metric("serve.queue_wait_p90_ms", quantile(queue_ms, 0.9), "ms");
  metric("serve.batch_size_mean", mean(batch), "count");
  metric("serve.cache_hit_rate", hits / std::max(1.0, hits + misses), "ratio");
  metric("serve.warm_hit_rate", warm_hits / requests, "ratio");
  metric("serve.cache_mb", static_cast<double>(after_.cache_bytes) / kMiB, "MB");
  metric("serve.overhead_ms", engine_p50 - direct_p50, "ms");

  // Traced latency next to the untraced engine latency of this run, and each
  // layer's share of the replayed requests by self time.
  metric("trace.request_p50_ms", direct_p50, "ms");
  metric("trace.engine_p50_ms", engine_p50, "ms");
  const std::map<std::string, double> self = spans.layer_self_seconds("serve.request");
  double total = 0.0;
  for (double d : spans.durations("serve.request")) total += d;
  for (const char* layer : {"pg", "solver", "features", "train", "models", "serve"}) {
    const auto it = self.find(layer);
    const double share = it == self.end() || total <= 0.0 ? 0.0 : it->second / total;
    metric(std::string("trace.") + layer + "_share", share * 100.0, "%");
  }

  // Consistency: each stage's direct-call time against the engine's own
  // StageTimings for that stage, medians over the same requests. The replay
  // runs after the window, and the host's speed drifts by up to a few tens
  // of percent between the two, which moves every stage's ratio alike. So
  // the check enforces each stage's ratio relative to the ratio of the stage
  // sums (a misattributed stage), and reports the raw ratios.
  struct Stage {
    const char* name;
    std::vector<std::string> spans;
    double irf::serve::StageTimings::*field;
  };
  using ST = irf::serve::StageTimings;
  const Stage inference{"inference", {"train.normalize", "models.forward"}, &ST::inference_seconds};
  std::vector<Stage> stages;
  if (spec_.kind == Kind::kColdLarge) {
    stages = {{"setup", {"pg.setup"}, &ST::setup_seconds},
              {"solve", {"solver.rough"}, &ST::solve_seconds},
              {"feature", {"features.hier", "features.flat", "features.label"},
               &ST::feature_seconds},
              inference};
  } else if (spec_.kind == Kind::kEcoWarm) {
    stages = {{"setup", {"pg.rebind"}, &ST::setup_seconds},
              {"solve", {"solver.warm"}, &ST::solve_seconds},
              {"feature", {"features.refresh", "features.label"}, &ST::feature_seconds},
              inference};
  } else {
    stages = {inference};
  }
  std::vector<double> direct_s, engine_s;
  double direct_sum = 0.0, engine_sum = 0.0;
  for (const Stage& stage : stages) {
    const std::map<std::int64_t, double> direct = per_request(spans, stage.spans);
    std::vector<double> engine;
    for (const Completed& c : done_) {
      if (direct.count(static_cast<std::int64_t>(c.result.req_id)) != 0) {
        engine.push_back(c.result.stages.*stage.field);
      }
    }
    direct_s.push_back(median(values(direct)));
    engine_s.push_back(median(engine));
    direct_sum += direct_s.back();
    engine_sum += engine_s.back();
  }
  const double drift = direct_sum / engine_sum;
  report_.context.emplace_back("stage_ratio_all", drift);
  double worst = 0.0;
  for (std::size_t k = 0; k < stages.size(); ++k) {
    const double ratio = direct_s[k] / engine_s[k];
    report_.context.emplace_back(std::string("stage_ratio_") + stages[k].name, ratio);
    worst = std::max(worst, std::abs(ratio - 1.0));
    // hot_serve has one stage, whose relative ratio is 1 by construction.
    const double relative = ratio / drift;
    if (spec_.kind != Kind::kHotServe && !(std::abs(relative - 1.0) <= kStageAgreement)) {
      report_.correct = false;
      fail(std::string("stage ") + stages[k].name + ": direct/engine time ratio " +
           std::to_string(ratio) + " is " + std::to_string(relative) +
           " of the all-stage ratio, outside the agreement bound");
    }
  }
  metric("trace.stage_agreement", worst, "ratio");

  spans.write_json(opt_.out_dir + "/spans_" + spec_.name + "_" + std::to_string(opt_.seed) +
                   ".json");
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Spec& s : kSpecs) out.emplace_back(s.name);
  return out;
}

RunReport run_workload(const RunOptions& options) {
  Run run(options, find_spec(options.workload));
  return run.execute();
}

}  // namespace perfbench
