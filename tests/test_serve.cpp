// Tests for the serving layer (src/serve): checkpoint save/load round-trips
// bit-identically, the engine's cached + batched path matches a direct
// IrFusionPipeline::analyze() call exactly, the per-design cache hits and
// LRU-evicts under a byte budget, and the robustness paths (degraded
// fallback, timeout, shedding, shutdown) resolve with the right status. The
// test_serve_threads4 ctest entry re-runs this suite with IRF_THREADS=4 to
// pin the "bit-identical for any pool width" half of the contract.

#include <gtest/gtest.h>

#include <memory>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "features/extractor.hpp"
#include "irf.hpp"
#include "models/ir_model.hpp"
#include "obs/obs.hpp"
#include "spice/parser.hpp"

namespace irf::serve {
namespace {

namespace fs = std::filesystem;

/// Per-process temp path: test_serve and test_serve_threads4 run the same
/// binary concurrently under ctest -j and must not clobber each other.
std::string temp_path(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".irf"))
      .string();
}

core::PipelineConfig tiny_pipeline_config() {
  core::PipelineConfig pc;
  pc.image_size = 32;
  pc.rough_iterations = 3;
  pc.base_channels = 4;
  pc.epochs = 2;
  pc.seed = 5;
  return pc;
}

/// One tiny design set + one fitted pipeline + one saved checkpoint, shared
/// across the suite (training is the expensive part).
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScaleConfig cfg = make_scale_config(Scale::kCi);
    cfg.image_size = 32;
    cfg.num_fake_designs = 3;
    cfg.num_real_designs = 2;
    cfg.epochs = 2;
    cfg.base_channels = 4;
    cfg.seed = 321;
    set_ = std::make_unique<train::DesignSet>(train::build_design_set(cfg));
    pipeline_ = std::make_unique<core::IrFusionPipeline>(tiny_pipeline_config());
    pipeline_->fit(set_->train);
    checkpoint_path_ = std::make_unique<std::string>(temp_path("serve_fixture_model"));
    save_checkpoint(*pipeline_, *checkpoint_path_);
  }
  static void TearDownTestSuite() {
    fs::remove(*checkpoint_path_);
    checkpoint_path_.reset();
    pipeline_.reset();
    set_.reset();
  }

  static const pg::PgDesign& test_design() { return *set_->test.front().design; }

  static std::unique_ptr<train::DesignSet> set_;
  static std::unique_ptr<core::IrFusionPipeline> pipeline_;
  static std::unique_ptr<std::string> checkpoint_path_;
};

std::unique_ptr<train::DesignSet> ServeFixture::set_;
std::unique_ptr<core::IrFusionPipeline> ServeFixture::pipeline_;
std::unique_ptr<std::string> ServeFixture::checkpoint_path_;

// --- design content hash ---------------------------------------------------

/// A three-resistor deck whose fifth card is `fifth`. With `I2 ...` and
/// `V2 ...` on the same node and value, the two decks' element records are
/// byte-identical; only the sizes of the source groups tell them apart.
pg::PgDesign deck_with_fifth_card(const std::string& fifth) {
  pg::PgDesign d;
  d.width_nm = 4000;
  d.height_nm = 2000;
  d.netlist = spice::parse_string(
      "R1 n1_m1_0_0 n1_m1_2000_0 0.01\n"
      "R2 n1_m1_2000_0 n1_m1_4000_0 0.01\n"
      "R3 n1_m1_0_0 n1_m1_0_2000 0.01\n"
      "I1 n1_m1_2000_0 0 1m\n" +
      fifth + "\nV1 n1_m1_0_0 0 1.1\n");
  return d;
}

TEST(DesignContentHash, NameIndependentAndContentSensitive) {
  Rng rng(7);
  pg::PgDesign a = pg::generate_fake_design(32, rng, "alpha");
  pg::PgDesign b = a;
  b.name = "beta";  // re-parsed copies of one deck must share a cache entry
  EXPECT_EQ(design_content_hash(a), design_content_hash(b));

  Rng rng2(8);
  pg::PgDesign c = pg::generate_fake_design(32, rng2, "gamma");
  EXPECT_NE(design_content_hash(a), design_content_hash(c));

  pg::PgDesign d = a;
  d.vdd += 0.1;
  EXPECT_NE(design_content_hash(a), design_content_hash(d));

  // A load card turned into a pad card moves one record between groups.
  EXPECT_NE(design_content_hash(deck_with_fifth_card("I2 n1_m1_4000_0 0 1.1")),
            design_content_hash(deck_with_fifth_card("V2 n1_m1_4000_0 0 1.1")));
}

// --- checkpoint format -----------------------------------------------------

TEST_F(ServeFixture, CheckpointRoundTripIsBitIdentical) {
  core::IrFusionPipeline restored = load_checkpoint(*checkpoint_path_);
  EXPECT_TRUE(restored.is_fitted());
  EXPECT_EQ(restored.config().image_size, pipeline_->config().image_size);
  EXPECT_EQ(restored.config().seed, pipeline_->config().seed);
  EXPECT_EQ(restored.view(), pipeline_->view());

  const GridF direct = pipeline_->analyze(test_design());
  const GridF reloaded = restored.analyze(test_design());
  ASSERT_EQ(direct.data().size(), reloaded.data().size());
  EXPECT_EQ(direct.data(), reloaded.data());  // exact, not approximate
}

TEST_F(ServeFixture, CheckpointSurvivesASecondGeneration) {
  // save(load(save(p))) must also be stable — no drift through re-encoding.
  core::IrFusionPipeline restored = load_checkpoint(*checkpoint_path_);
  const std::string second = temp_path("serve_second_gen");
  save_checkpoint(restored, second);
  core::IrFusionPipeline restored2 = load_checkpoint(second);
  fs::remove(second);
  EXPECT_EQ(pipeline_->analyze(test_design()).data(),
            restored2.analyze(test_design()).data());
}

TEST_F(ServeFixture, CheckpointDetectsCorruption) {
  const std::string path = temp_path("serve_corrupt");
  fs::copy_file(*checkpoint_path_, path, fs::copy_options::overwrite_existing);
  const auto size = fs::file_size(path);
  {
    // Flip one payload byte; the header checksum must catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }
  EXPECT_THROW(load_checkpoint(path), ParseError);
  fs::remove(path);
}

TEST_F(ServeFixture, CheckpointDetectsTruncation) {
  const std::string path = temp_path("serve_truncated");
  std::ifstream in(*checkpoint_path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(load_checkpoint(path), ParseError);
  fs::remove(path);
}

TEST(PipelineCheckpoint, BogusFileRejected) {
  const std::string path = temp_path("serve_bogus");
  std::ofstream(path) << "not a checkpoint";
  EXPECT_THROW(load_checkpoint(path), ParseError);
  fs::remove(path);
}

TEST(Checkpoint, RejectsUnfittedPipeline) {
  core::IrFusionPipeline pipeline(tiny_pipeline_config());
  EXPECT_THROW(save_checkpoint(pipeline, temp_path("serve_unfitted")), ConfigError);
}

/// Write a v2 header claiming `payload_bytes` (checksummed over `payload`)
/// followed by `payload` itself: a file whose header lies about its body.
void write_crafted_checkpoint(const std::string& path, std::uint64_t payload_bytes,
                              const std::string& payload) {
  std::ofstream out(path, std::ios::binary);
  write_pod(out, kCheckpointMagic);
  write_pod(out, kCheckpointVersion);
  write_pod(out, payload_bytes);
  write_pod(out, fnv1a64(payload.data(), payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Load a crafted file; true when it throws ParseError. `seconds` reports
/// how long the rejection took.
bool load_throws_parse_error(const std::string& path, double& seconds) {
  const auto start = std::chrono::steady_clock::now();
  bool parse_error = false;
  try {
    (void)load_checkpoint(path);
  } catch (const ParseError&) {
    parse_error = true;
  }
  seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return parse_error;
}

TEST(Checkpoint, RejectsPayloadLargerThanFile) {
  // 24 bytes claiming a 1 TiB payload: rejected as truncated before the
  // loader sizes any buffer from the header.
  const std::string path = temp_path("serve_huge_claim");
  write_crafted_checkpoint(path, std::uint64_t{1} << 40, "");
  ASSERT_EQ(fs::file_size(path), 24u);
  double seconds = 0.0;
  EXPECT_TRUE(load_throws_parse_error(path, seconds));
  EXPECT_LT(seconds, 5.0);  // hang guard; microseconds in practice
  fs::remove(path);
}

TEST(Checkpoint, RejectsScaleCountPastPayload) {
  // A checksum-valid payload with a sound config and channel count, then a
  // scale count of 2^32 - 1 and no scales: parsing stops at the first read
  // past the payload instead of looping over the claimed count.
  std::ostringstream payload(std::ios::binary);
  const core::PipelineConfig c = tiny_pipeline_config();
  for (std::int32_t v : {c.image_size, c.rough_iterations, c.base_channels, c.epochs}) {
    write_pod(payload, v);
  }
  write_pod(payload, c.learning_rate);
  write_pod(payload, c.seed);
  const std::uint8_t flags[7] = {1, 1, 1, 1, 1, 1, 1};
  write_bytes(payload, flags, sizeof(flags));
  write_pod(payload, std::int32_t{4});                          // in_channels
  write_pod(payload, std::numeric_limits<std::uint32_t>::max());  // num_scales
  const std::string body = payload.str();
  const std::string path = temp_path("serve_scale_count");
  write_crafted_checkpoint(path, body.size(), body);
  ASSERT_EQ(fs::file_size(path), 71u);
  double seconds = 0.0;
  EXPECT_TRUE(load_throws_parse_error(path, seconds));
  EXPECT_LT(seconds, 5.0);  // hang guard; microseconds in practice
  fs::remove(path);
}

// --- config validation (satellite: validate at construction) ---------------

TEST(PipelineConfigValidation, RejectsBadTrainingParams) {
  core::PipelineConfig pc = tiny_pipeline_config();
  pc.epochs = 0;
  EXPECT_THROW(core::IrFusionPipeline{pc}, ConfigError);
  pc = tiny_pipeline_config();
  pc.learning_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::IrFusionPipeline{pc}, ConfigError);
  pc = tiny_pipeline_config();
  pc.learning_rate = -1e-3;
  EXPECT_THROW(core::IrFusionPipeline{pc}, ConfigError);
  pc = tiny_pipeline_config();
  pc.base_channels = 0;
  EXPECT_THROW(core::IrFusionPipeline{pc}, ConfigError);
}

TEST(EngineOptionsValidation, RejectsBadOptions) {
  EngineOptions opts;
  opts.max_batch = 0;
  EXPECT_THROW(Engine{opts}, ConfigError);
  opts = EngineOptions{};
  opts.queue_capacity = 0;
  EXPECT_THROW(Engine{opts}, ConfigError);
}

/// Distinct-topology designs (random blockages perturb the grid). Fake
/// designs of one size all share a topology hash: an engine serves each one
/// after the first warm, and a router puts them all on one shard.
std::vector<std::shared_ptr<pg::PgDesign>> distinct_topology_designs(int n) {
  std::vector<std::shared_ptr<pg::PgDesign>> designs;
  std::vector<std::uint64_t> seen;
  for (int seed = 0; static_cast<int>(designs.size()) < n && seed < 200; ++seed) {
    Rng rng(500 + seed);
    auto d = std::make_shared<pg::PgDesign>(
        pg::generate_real_design(32, rng, "router_" + std::to_string(seed)));
    const std::uint64_t h = design_topology_hash(*d);
    if (std::find(seen.begin(), seen.end(), h) != seen.end()) continue;
    seen.push_back(h);
    designs.push_back(std::move(d));
  }
  return designs;
}

// --- engine: correctness ---------------------------------------------------

TEST_F(ServeFixture, EngineMatchesDirectAnalyzeAcrossABatch) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  ASSERT_TRUE(engine->has_model());
  engine->pause();  // force all requests into one dispatch batch

  // Generated fake designs of one size share a topology, so a second one
  // would be served warm; this test pins the cold path's bit-identity
  // contract, so every design in the batch has a topology of its own.
  const auto cold = distinct_topology_designs(5);
  ASSERT_EQ(cold.size(), 5u);
  std::vector<const pg::PgDesign*> designs;
  for (const auto& d : cold) designs.push_back(d.get());
  designs.push_back(&test_design());
  std::set<std::uint64_t> topologies;
  for (const pg::PgDesign* d : designs) topologies.insert(design_topology_hash(*d));
  ASSERT_EQ(topologies.size(), designs.size());
  std::vector<Engine::Ticket> tickets;
  for (const pg::PgDesign* d : designs) {
    AnalysisRequest request;
    request.design = std::make_shared<pg::PgDesign>(*d);
    tickets.push_back(engine->submit(std::move(request)));
  }
  EXPECT_EQ(engine->queue_depth(), static_cast<int>(designs.size()));
  engine->resume();

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    AnalysisResult r = tickets[i].result.get();
    ASSERT_TRUE(r.ok()) << status_name(r.status) << ": " << r.error;
    EXPECT_FALSE(r.warm_start) << designs[i]->name;
    EXPECT_EQ(r.batch_size, static_cast<int>(designs.size()));
    EXPECT_EQ(r.design_hash, design_content_hash(*designs[i]));
    // The batched forward must be bit-identical to the serial pipeline.
    const GridF direct = pipeline_->analyze(*designs[i]);
    EXPECT_EQ(r.ir_drop.data(), direct.data()) << designs[i]->name;
  }
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.submitted, designs.size());
  EXPECT_EQ(stats.served_ok, designs.size());
  EXPECT_EQ(stats.batches, 1u);
}

TEST_F(ServeFixture, EngineCachesPerDesignState) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  AnalysisResult first = engine->analyze(test_design());
  AnalysisResult second = engine->analyze(test_design());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.ir_drop.data(), second.ir_drop.data());
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1);
  EXPECT_GT(stats.cache_bytes, 0u);

  engine->clear_cache();
  EXPECT_EQ(engine->stats().cache_entries, 0);
  AnalysisResult third = engine->analyze(test_design());
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.ir_drop.data(), first.ir_drop.data());
}

TEST_F(ServeFixture, EngineEvictsLeastRecentlyUsedUnderBudget) {
  EngineOptions opts;
  opts.cache_budget_bytes = 1;  // every second distinct design must evict
  auto engine = Engine::from_checkpoint(*checkpoint_path_, opts);
  // A fake and a real design: distinct topologies, so the evicted design
  // comes back through the cold rebuild, whose bit-identity is pinned here.
  const pg::PgDesign& a = *set_->train[0].design;
  const pg::PgDesign& b = test_design();
  ASSERT_NE(design_topology_hash(a), design_topology_hash(b));
  EXPECT_TRUE(engine->analyze(a).ok());
  EXPECT_TRUE(engine->analyze(b).ok());
  const EngineStats stats = engine->stats();
  EXPECT_GE(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 1);  // only the oversized newest entry stays
  // The evicted design is rebuilt, and identically so.
  AnalysisResult again = engine->analyze(a);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_FALSE(again.warm_start);
  EXPECT_EQ(again.ir_drop.data(), pipeline_->analyze(a).data());
}

// --- engine: incremental re-analysis (warm start) --------------------------

/// Copy of `base` with every current source scaled: the canonical bounded
/// delta — identical topology, new current map.
pg::PgDesign scaled_current_copy(const pg::PgDesign& base, double factor) {
  pg::PgDesign d = base;
  d.netlist.scale_current_sources(factor);
  return d;
}

TEST(DesignTopologyHash, InvariantToValuesSensitiveToStructure) {
  Rng rng(7);
  pg::PgDesign a = pg::generate_fake_design(32, rng, "alpha");
  pg::PgDesign scaled = a;
  scaled.netlist.scale_current_sources(3.0);
  scaled.netlist.scale_voltage_sources(1.1);
  scaled.netlist.set_resistor_ohms(0, a.netlist.resistors()[0].ohms * 2.0);
  EXPECT_EQ(design_topology_hash(a), design_topology_hash(scaled));
  EXPECT_NE(design_content_hash(a), design_content_hash(scaled));

  pg::PgDesign grown = a;
  grown.netlist.add_resistor("Rextra", 0, 1, 1.0);
  EXPECT_NE(design_topology_hash(a), design_topology_hash(grown));

  // Two generated fakes of one size differ only in source values — the warm
  // path's canonical candidate pair.
  Rng rng2(8);
  pg::PgDesign c = pg::generate_fake_design(32, rng2, "gamma");
  EXPECT_EQ(design_topology_hash(a), design_topology_hash(c));

  EXPECT_NE(design_topology_hash(deck_with_fifth_card("I2 n1_m1_4000_0 0 1.1")),
            design_topology_hash(deck_with_fifth_card("V2 n1_m1_4000_0 0 1.1")));
}

TEST_F(ServeFixture, WarmStartServesCurrentOnlyDelta) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());

  const pg::PgDesign eco = scaled_current_copy(base, 1.07);
  AnalysisResult r = engine->analyze(eco);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.cache_hit);
  EXPECT_TRUE(r.warm_start);
  EXPECT_EQ(r.ir_drop.data().size(), std::size_t{32 * 32});
  EngineStats stats = engine->stats();
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.warm_fallbacks, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);

  // The warm entry is a first-class cache entry: the same deck now hits,
  // bit-identically.
  AnalysisResult again = engine->analyze(eco);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.ir_drop.data(), r.ir_drop.data());
  // And the base entry survived donating its solver: exact hits still work.
  AnalysisResult base_again = engine->analyze(base);
  EXPECT_TRUE(base_again.cache_hit);
  stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_entries, 2);
}

TEST_F(ServeFixture, WarmStartServesSupplyOnlyDelta) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  pg::PgDesign corner = base;
  corner.vdd *= 1.05;
  corner.netlist.scale_voltage_sources(1.05);
  AnalysisResult r = engine->analyze(corner);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.warm_start);
  EXPECT_EQ(engine->stats().warm_hits, 1u);
}

TEST_F(ServeFixture, WarmStartAcceptsBoundedResistorEdits) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);  // max_stamp_edits = 8
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  pg::PgDesign eco = base;
  for (std::size_t i = 0; i < 3; ++i) {
    eco.netlist.set_resistor_ohms(i, base.netlist.resistors()[i].ohms * 2.0);
  }
  AnalysisResult r = engine->analyze(eco);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.warm_start);
  EXPECT_EQ(engine->stats().warm_hits, 1u);
}

TEST_F(ServeFixture, WarmStartFallsBackWhenDeltaTooLarge) {
  EngineOptions opts;
  opts.max_stamp_edits = 2;
  auto engine = Engine::from_checkpoint(*checkpoint_path_, opts);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  pg::PgDesign eco = base;
  for (std::size_t i = 0; i < 3; ++i) {
    eco.netlist.set_resistor_ohms(i, base.netlist.resistors()[i].ohms * 1.5);
  }
  AnalysisResult r = engine->analyze(eco);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.warm_start);
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.warm_hits, 0u);
  EXPECT_EQ(stats.warm_fallbacks, 1u);
  // The rejected candidate fell back to the cold path, whose bit-identity
  // contract holds.
  EXPECT_EQ(r.ir_drop.data(), pipeline_->analyze(eco).data());
}

TEST_F(ServeFixture, WarmStartIgnoresTopologyChanges) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  pg::PgDesign grown = base;
  grown.netlist.add_resistor("Rextra", 0, 1, 1.0);
  AnalysisResult r = engine->analyze(grown);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.warm_start);
  // A different topology hash is never even a candidate — no fallback counted.
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.warm_hits, 0u);
  EXPECT_EQ(stats.warm_fallbacks, 0u);
  EXPECT_EQ(r.ir_drop.data(), pipeline_->analyze(grown).data());
}

TEST_F(ServeFixture, WarmBuildSurvivesEvictionPressure) {
  EngineOptions opts;
  opts.cache_budget_bytes = 1;  // every insertion evicts the older entry
  auto engine = Engine::from_checkpoint(*checkpoint_path_, opts);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  const pg::PgDesign eco = scaled_current_copy(base, 1.1);
  AnalysisResult r = engine->analyze(eco);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.warm_start);  // the base was still cached when the miss hit
  EngineStats stats = engine->stats();
  EXPECT_EQ(stats.cache_entries, 1);  // budget keeps only the newest entry
  EXPECT_GE(stats.cache_evictions, 1u);
  // The survivor serves content hits; the evicted base comes back through a
  // warm build seeded by the survivor's solver (the handoff chains).
  EXPECT_TRUE(engine->analyze(eco).cache_hit);
  AnalysisResult rebuilt = engine->analyze(base);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt.cache_hit);
  EXPECT_TRUE(rebuilt.warm_start);
}

TEST_F(ServeFixture, CacheBytesAccountAllRetainedState) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& d = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(d).ok());
  // The cached entry retains the full MNA + AMG solver, the rough solution
  // and both feature stacks. The byte accounting must therefore be at least
  // the solver's own footprint — the old grids-only estimate sat far below
  // this floor and let the LRU budget overshoot.
  pg::PgSolver reference(d);
  const EngineStats stats = engine->stats();
  EXPECT_GE(stats.cache_bytes, reference.memory_bytes());
}

// --- engine: robustness ----------------------------------------------------

TEST(EngineDegraded, ModelLessEngineServesRoughMap) {
  Rng rng(11);
  pg::PgDesign design = pg::generate_fake_design(32, rng, "degraded");
  Engine engine{EngineOptions{}};
  EXPECT_FALSE(engine.has_model());
  AnalysisResult r = engine.analyze(design);
  EXPECT_EQ(r.status, ResultStatus::kDegraded);
  EXPECT_TRUE(r.has_map());
  EXPECT_FALSE(r.ok());
  // Degraded output IS the rough numerical map at the fixed fallback
  // budget: 3 rough iterations on a 64 px raster.
  pg::PgSolver solver(design);
  const GridF expected = features::label_map(design, solver.solve_rough(3), 64);
  EXPECT_EQ(r.ir_drop.data(), expected.data());
  EXPECT_EQ(engine.stats().degraded, 1u);
}

TEST(EngineRobustness, QueuedRequestTimesOut) {
  Rng rng(14);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "timeout"));
  Engine engine{EngineOptions{}};
  engine.pause();  // deadlines keep ticking while paused
  AnalysisRequest request;
  request.design = design;
  request.timeout_seconds = 0.01;
  Engine::Ticket ticket = engine.submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.resume();
  AnalysisResult r = ticket.result.get();
  EXPECT_EQ(r.status, ResultStatus::kTimedOut);
  EXPECT_FALSE(r.has_map());
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST(EngineRobustness, ShutdownResolvesQueuedRequestsAsCancelled) {
  Rng rng(16);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "shutdown"));
  std::future<AnalysisResult> orphan;
  {
    Engine engine{EngineOptions{}};
    engine.pause();
    AnalysisRequest request;
    request.design = design;
    orphan = engine.submit(std::move(request)).result;
  }  // dtor: paused queue drains as cancelled, never hangs a waiter
  AnalysisResult r = orphan.get();
  EXPECT_EQ(r.status, ResultStatus::kCancelled);
}

TEST(EngineRobustness, NullDesignRejectedAtSubmit) {
  Engine engine{EngineOptions{}};
  EXPECT_THROW(engine.submit(AnalysisRequest{}), ConfigError);
}

TEST(EngineRobustness, ClearCacheDuringWarmBuildsKeepsByteAccounting) {
  // clear_cache() runs on the caller's thread, so it can land after the
  // dispatcher picked a warm candidate and before it took that candidate's
  // solver. Whatever the interleaving, the byte total must describe what is
  // cached: zero exactly when nothing is, and never a wrapped size_t.
  Rng rng(43);
  const pg::PgDesign base = pg::generate_fake_design(32, rng, "clear_race");
  constexpr int kBatches = 24;
  constexpr int kBatch = 8;
  std::vector<std::shared_ptr<pg::PgDesign>> ecos;
  for (int i = 0; i < kBatches * kBatch; ++i) {
    ecos.push_back(std::make_shared<pg::PgDesign>(
        scaled_current_copy(base, 1.0 + 0.01 * (i + 1))));
  }
  Engine engine{EngineOptions{}};  // model-less: cold and warm builds, no forward
  std::atomic<bool> done{false};
  std::atomic<int> bad_snapshots{0};
  std::thread clearer([&] {
    // Clear only after a new warm build landed, so warm builds keep coming
    // however slow the build (sanitizers). The delay after it cycles in
    // 2 us steps, so clears land in every phase of the next request: its
    // hashes, then the few microseconds from candidate scan to solver steal.
    std::uint64_t seen = 0;
    for (int clears = 0; !done.load();) {
      const std::uint64_t warm = engine.stats().warm_hits;
      if (warm == seen) {
        std::this_thread::yield();
        continue;
      }
      seen = warm;
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(2 * (clears++ % 100));
      while (std::chrono::steady_clock::now() < until) {
      }
      engine.clear_cache();
    }
  });
  std::thread poller([&] {
    while (!done.load()) {
      const EngineStats s = engine.stats();
      if ((s.cache_entries == 0) != (s.cache_bytes == 0) ||
          s.cache_bytes > (std::size_t{1} << 40)) {
        ++bad_snapshots;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  for (int b = 0; b < kBatches; ++b) {
    engine.pause();  // one dispatch batch: its lookups run back to back
    std::vector<Engine::Ticket> tickets;
    for (int i = 0; i < kBatch; ++i) {
      AnalysisRequest request;
      request.design = ecos[b * kBatch + i];
      tickets.push_back(engine.submit(std::move(request)));
    }
    engine.resume();
    for (Engine::Ticket& t : tickets) {
      EXPECT_EQ(t.result.get().status, ResultStatus::kDegraded);
    }
  }
  done = true;
  clearer.join();
  poller.join();
  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_GT(engine.stats().warm_hits, 0u);
}

// --- request-scoped telemetry ----------------------------------------------

/// RAII guard: enables metrics + tracing with clean buffers, restores the
/// defaults on exit so the other suites stay telemetry-free.
struct TelemetryOn {
  TelemetryOn() {
    obs::MetricsRegistry::instance().clear();
    obs::clear_trace_events();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
  }
  ~TelemetryOn() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::MetricsRegistry::instance().clear();
    obs::clear_trace_events();
  }
};

double span_arg(const obs::TraceEvent& e, const std::string& key, double missing) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  return missing;
}

TEST_F(ServeFixture, RequestSpansShareOneReqId) {
  TelemetryOn telemetry;
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  AnalysisResult r = engine->analyze(test_design());
  ASSERT_TRUE(r.ok()) << r.error;

  EXPECT_GT(r.req_id, 0u);
  EXPECT_GT(r.submit_unix_seconds, 0.0);
  EXPECT_GE(r.queue_depth_at_admission, 1);
  EXPECT_GT(r.solver_iterations, 0);
  EXPECT_GT(r.solver_final_residual, 0.0);
  EXPECT_GT(r.stages.total_seconds, 0.0);
  EXPECT_GT(r.stages.queue_wait_seconds, 0.0);
  EXPECT_GT(r.stages.solve_seconds, 0.0);
  EXPECT_GT(r.stages.inference_seconds, 0.0);
  EXPECT_GE(r.stages.respond_seconds, 0.0);

  // Every per-request span of this request — queue wait, the numerical
  // stage, its inference share and the end-to-end envelope — carries the
  // result's req_id as a span arg.
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  const double id = static_cast<double>(r.req_id);
  for (const char* name :
       {"serve_queue_wait", "serve_numerical", "serve_infer_share", "serve_request"}) {
    bool found = false;
    for (const obs::TraceEvent& e : events) {
      if (e.name == name && span_arg(e, "req_id", -1.0) == id) found = true;
    }
    EXPECT_TRUE(found) << "no span named " << name << " with req_id " << r.req_id;
  }
  // The envelope span also carries admission-time queue depth and batch.
  for (const obs::TraceEvent& e : events) {
    if (e.name == "serve_request") {
      EXPECT_GE(span_arg(e, "queue_depth", -1.0), 1.0);
      EXPECT_GE(span_arg(e, "batch", -1.0), 1.0);
    }
  }
  // The batched forward is the model's own `infer` span, nested inside the
  // batch's serve_infer span on the dispatcher thread.
  const obs::TraceEvent* serve_infer = nullptr;
  const obs::TraceEvent* infer = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "serve_infer") serve_infer = &e;
    if (e.name == "infer") infer = &e;
  }
  ASSERT_NE(serve_infer, nullptr);
  ASSERT_NE(infer, nullptr);
  EXPECT_EQ(infer->thread_id, serve_infer->thread_id);
  EXPECT_GT(infer->depth, serve_infer->depth);
  EXPECT_GE(infer->start_us, serve_infer->start_us);
  EXPECT_LE(infer->start_us + infer->duration_us,
            serve_infer->start_us + serve_infer->duration_us);
}

TEST_F(ServeFixture, ReqIdsAreMonotonicAcrossRequests) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  AnalysisResult a = engine->analyze(test_design());
  AnalysisResult b = engine->analyze(test_design());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b.req_id, a.req_id);
  EXPECT_TRUE(b.cache_hit);
  // A cache hit reports the cached solve's convergence telemetry.
  EXPECT_EQ(b.solver_iterations, a.solver_iterations);
  EXPECT_DOUBLE_EQ(b.solver_final_residual, a.solver_final_residual);
}

TEST(EngineFlight, DegradedRequestDumpsParseableFlightRecord) {
  const std::string dump = temp_path("serve_flight_degraded");
  Rng rng(21);
  pg::PgDesign design = pg::generate_fake_design(32, rng, "flight");
  EngineOptions opts;
  opts.flight_dump_path = dump;
  Engine engine(opts);  // model-less: every request degrades
  AnalysisResult r = engine.analyze(design);
  EXPECT_EQ(r.status, ResultStatus::kDegraded);

  // The auto-dump landed and is valid JSON with the degradation on record.
  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "flight dump missing: " << dump;
  std::stringstream buf;
  buf << f.rdbuf();
  const obs::JsonValue doc = obs::parse_json(buf.str());
  const obs::JsonValue& body = doc.at("flight_recorder");
  EXPECT_GT(body.at("capacity").number, 0.0);
  bool saw_submit = false, saw_degraded = false;
  for (const obs::JsonValue& rec : body.at("records").array) {
    if (rec.at("event").string == "submit") saw_submit = true;
    if (rec.at("event").string == "degraded" &&
        rec.at("req_id").number == static_cast<double>(r.req_id)) {
      saw_degraded = true;
    }
  }
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_degraded);
  fs::remove(dump);

  // On-demand dump still works and parses.
  const obs::JsonValue live = obs::parse_json(engine.dump_flight_recorder());
  EXPECT_FALSE(live.at("flight_recorder").at("records").array.empty());
}

TEST(EngineFlight, DeadlineMissDumpsFlightRecord) {
  const std::string dump = temp_path("serve_flight_deadline");
  Rng rng(22);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "flight_deadline"));
  EngineOptions opts;
  opts.flight_dump_path = dump;
  Engine engine(opts);
  engine.pause();
  AnalysisRequest request;
  request.design = design;
  request.timeout_seconds = 0.01;
  Engine::Ticket ticket = engine.submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.resume();
  AnalysisResult r = ticket.result.get();
  ASSERT_EQ(r.status, ResultStatus::kTimedOut);
  EXPECT_GT(r.req_id, 0u);

  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "flight dump missing: " << dump;
  std::stringstream buf;
  buf << f.rdbuf();
  const obs::JsonValue doc = obs::parse_json(buf.str());
  bool saw_miss = false;
  for (const obs::JsonValue& rec : doc.at("flight_recorder").at("records").array) {
    if (rec.at("event").string == "deadline_missed" &&
        rec.at("req_id").number == static_cast<double>(r.req_id)) {
      saw_miss = true;
    }
  }
  EXPECT_TRUE(saw_miss);
  fs::remove(dump);
}

TEST_F(ServeFixture, TelemetryOnOffIsBitIdentical) {
  // The whole observability layer is read-only: enabling metrics + tracing
  // (and the residual-curve capture) must not move a single output bit.
  GridF with_telemetry, without_telemetry;
  {
    TelemetryOn telemetry;
    obs::set_residual_curve_capture(true);
    auto engine = Engine::from_checkpoint(*checkpoint_path_);
    AnalysisResult r = engine->analyze(test_design());
    ASSERT_TRUE(r.ok()) << r.error;
    with_telemetry = r.ir_drop;
    obs::set_residual_curve_capture(false);
    // The traced forward ran inside its per-block spans and counted its
    // conv multiply-adds.
    std::set<std::string> names;
    for (const obs::TraceEvent& e : obs::trace_events()) names.insert(e.name);
    for (const char* block : {"model_stem", "model_encoder", "model_up_proj", "model_gate",
                              "model_decoder", "model_cbam", "model_head"}) {
      EXPECT_EQ(names.count(block), 1u) << "no span named " << block;
    }
    std::uint64_t macs = 0;
    for (const auto& [name, value] : obs::MetricsRegistry::instance().snapshot().counters) {
      if (name == "nn.conv_macs") macs = value;
    }
    EXPECT_GT(macs, 0u);
  }
  {
    auto engine = Engine::from_checkpoint(*checkpoint_path_);
    AnalysisResult r = engine->analyze(test_design());
    ASSERT_TRUE(r.ok()) << r.error;
    without_telemetry = r.ir_drop;
  }
  EXPECT_EQ(with_telemetry.data(), without_telemetry.data());
}

TEST(EngineCheckpoint, MissingFileDegradesOrThrows) {
  // A missing file gives a model-less engine whose every result is
  // kDegraded; only an unreadable or corrupt file throws.
  auto engine = Engine::from_checkpoint("/nonexistent/model.irf");
  EXPECT_FALSE(engine->has_model());
  Rng rng(15);
  const AnalysisResult r = engine->analyze(pg::generate_fake_design(32, rng, "nomodel"));
  EXPECT_EQ(r.status, ResultStatus::kDegraded);
  EXPECT_TRUE(r.has_map());
  const std::string bogus = temp_path("serve_bogus_engine");
  std::ofstream(bogus) << "not a checkpoint";
  EXPECT_THROW(Engine::from_checkpoint(bogus), ParseError);
  fs::remove(bogus);
}

// --- submit-path regressions (admission, stats accounting, deadlines) ------

TEST(EngineAdmission, ConcurrentSubmitsAllComplete) {
  // Eight producers race into the one-slot queue of a paused engine: one is
  // admitted and seven wait out the backpressure inside submit, all in the
  // admission critical section. After resume every one is admitted and
  // served, and no stats observation sees completed overtake submitted.
  // Nothing may return early before resume(): a producer still blocked in
  // submit would hang the futures' destructors.
  Rng rng(41);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "contention"));
  EngineOptions opts;
  opts.queue_capacity = 1;
  Engine engine(opts);  // model-less: every request degrades, cheaply
  engine.pause();

  constexpr int kProducers = 8;
  std::vector<std::future<Engine::Ticket>> producers;
  for (int i = 0; i < kProducers; ++i) {
    producers.push_back(std::async(std::launch::async, [&engine, design] {
      AnalysisRequest request;
      request.design = design;
      return engine.submit(std::move(request));
    }));
  }
  const auto admit_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.queue_depth() == 0 && std::chrono::steady_clock::now() < admit_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(engine.queue_depth(), 1);
  int blocked = 0;
  for (std::future<Engine::Ticket>& f : producers) {
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::timeout) ++blocked;
  }
  EXPECT_EQ(blocked, kProducers - 1);

  engine.resume();
  const auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  EngineStats s = engine.stats();
  while (s.completed < static_cast<std::uint64_t>(kProducers) &&
         std::chrono::steady_clock::now() < drain_deadline) {
    EXPECT_LE(s.completed, s.submitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = engine.stats();
  }
  for (std::future<Engine::Ticket>& f : producers) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "submit still blocked after resume";
    Engine::Ticket ticket = f.get();
    ASSERT_EQ(ticket.result.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    EXPECT_EQ(ticket.result.get().status, ResultStatus::kDegraded);
  }
  s = engine.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kProducers));
}

TEST(EngineAdmission, ShedsLowestPriorityFirstUnderSaturation) {
  Rng rng(42);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "shed"));
  EngineOptions opts;
  opts.queue_capacity = 2;
  Engine engine(opts);
  engine.pause();

  const auto submit_with = [&](Priority p) {
    AnalysisRequest request;
    request.design = design;
    request.priority = p;
    return engine.submit(std::move(request));
  };
  Engine::Ticket batch_t = submit_with(Priority::kBatch);
  Engine::Ticket normal_t = submit_with(Priority::kNormal);
  EXPECT_EQ(engine.queue_depth(), 2);

  // A saturated queue sheds the oldest request of the LOWEST class that is
  // strictly below the arrival — first the batch request, then the normal.
  Engine::Ticket first_i = submit_with(Priority::kInteractive);
  AnalysisResult shed_batch = batch_t.result.get();
  EXPECT_EQ(shed_batch.status, ResultStatus::kShed);
  EXPECT_FALSE(shed_batch.has_map());
  Engine::Ticket second_i = submit_with(Priority::kInteractive);
  EXPECT_EQ(normal_t.result.get().status, ResultStatus::kShed);

  // With only interactive work queued, an equal-or-lower arrival has no
  // victim: plain backpressure applies, exactly as before priorities. The
  // submit stays blocked until resume() frees a slot.
  std::future<Engine::Ticket> waiting =
      std::async(std::launch::async, [&] { return submit_with(Priority::kNormal); });
  EXPECT_EQ(waiting.wait_for(std::chrono::milliseconds(100)), std::future_status::timeout);

  engine.resume();
  EXPECT_EQ(first_i.result.get().status, ResultStatus::kDegraded);
  EXPECT_EQ(second_i.result.get().status, ResultStatus::kDegraded);
  EXPECT_EQ(waiting.get().result.get().status, ResultStatus::kDegraded);

  // Shed results are terminal results: counted as completed exactly once,
  // and the submit that got shed still counts as submitted (the old
  // shutdown-path bug let completed overtake submitted).
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_LE(s.completed, s.submitted);
  EXPECT_EQ(s.served_ok + s.degraded + s.timeouts + s.cancelled + s.failures +
                s.shed,
            s.completed);
}

TEST(EngineRobustness, HugeTimeoutNeverExpires) {
  // Regression: a timeout past what steady_clock can represent (from about
  // 9.2e9 s) overflowed the nanosecond conversion and put the deadline in
  // the past, so every request timed out at once. Such a request now has
  // no deadline.
  Rng rng(46);
  const pg::PgDesign design = pg::generate_fake_design(32, rng, "huge_timeout");
  for (double timeout : {1e10, 1e300}) {
    SCOPED_TRACE(timeout);
    EngineOptions opts;
    opts.default_timeout_seconds = timeout;
    Engine engine(opts);
    const AnalysisResult r = engine.analyze(design);
    EXPECT_EQ(r.status, ResultStatus::kDegraded);
    EXPECT_FALSE(r.deadline_exceeded);
  }
}

TEST(EngineStats, TimedOutResultCarriesDispatchBatchSize) {
  // Regression: a timed-out request used to leave batch_size at 0; every
  // terminal result now reports the dispatch batch it rode in.
  Rng rng(44);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "batchsize"));
  Engine engine{EngineOptions{}};
  engine.pause();
  AnalysisRequest normal;
  normal.design = design;
  Engine::Ticket served = engine.submit(std::move(normal));
  AnalysisRequest doomed;
  doomed.design = design;
  doomed.timeout_seconds = 0.01;
  Engine::Ticket timed_out = engine.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.resume();

  AnalysisResult late = timed_out.result.get();
  ASSERT_EQ(late.status, ResultStatus::kTimedOut);
  EXPECT_EQ(late.batch_size, 2);
  AnalysisResult ok = served.result.get();
  ASSERT_EQ(ok.status, ResultStatus::kDegraded);
  EXPECT_EQ(ok.batch_size, 1);  // surviving cohort after the timeout
}

/// A model whose forward outlasts a short deadline: it sleeps 0.4 s and
/// returns zeros of shape [N, 1, H, W].
class SlowModel final : public models::IrModel {
 public:
  nn::Tensor forward(const nn::Tensor& x) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const nn::Shape& s = x.shape();
    return nn::Tensor::zeros({s.n, 1, s.h, s.w});
  }
  std::string name() const override { return "slow"; }
  int in_channels() const override { return 21; }  // the fused hierarchical view
};

TEST(EngineDeadline, CompletedWorkWinsAfterLastDeadlineCheck) {
  // A deadline that expires after the final pre-inference check does NOT
  // discard the finished map — the result is served with deadline_exceeded
  // set (docs/API.md "Deadlines"). The slow model makes the "expired inside
  // stage B" window deterministic.
  Rng rng(45);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "overrun"));
  Engine engine(core::IrFusionPipeline::restore(
      tiny_pipeline_config(), train::Normalizer::from_scales({}),
      std::make_unique<SlowModel>()));

  AnalysisRequest request;
  request.design = design;
  request.timeout_seconds = 0.2;
  AnalysisResult r = engine.submit(std::move(request)).result.get();
  EXPECT_EQ(r.status, ResultStatus::kOk);  // served, not kTimedOut
  EXPECT_TRUE(r.has_map());
  EXPECT_TRUE(r.deadline_exceeded);

  AnalysisRequest relaxed;
  relaxed.design = design;
  AnalysisResult r2 = engine.submit(std::move(relaxed)).result.get();
  EXPECT_EQ(r2.status, ResultStatus::kOk);
  EXPECT_FALSE(r2.deadline_exceeded);
}

// --- router: sharded serving ------------------------------------------------

TEST(RouterValidation, RejectsBadOptions) {
  RouterOptions opts;
  opts.num_shards = 0;
  EXPECT_THROW(Router{opts}, ConfigError);
}

TEST_F(ServeFixture, RouterShardAffinityAndBitIdentity) {
  RouterOptions ropts;
  ropts.num_shards = 2;
  auto router = Router::from_checkpoint(*checkpoint_path_, ropts);
  ASSERT_TRUE(router->has_model());
  EXPECT_EQ(router->num_shards(), 2);

  auto reference = Engine::from_checkpoint(*checkpoint_path_);

  const auto designs = distinct_topology_designs(4);
  ASSERT_GE(designs.size(), 2u);
  for (const auto& d : designs) {
    const int home = router->shard_for(*d);
    const int other = 1 - home;
    const EngineStats home_before = router->shard(home).stats();
    const EngineStats other_before = router->shard(other).stats();
    AnalysisResult first = router->analyze(*d);
    ASSERT_TRUE(first.ok()) << first.error;
    // Re-submission sticks to the same shard and hits its LRU entry.
    AnalysisResult again = router->analyze(*d);
    EXPECT_TRUE(again.cache_hit);
    // Both requests were admitted, served and counted on the home shard.
    const EngineStats home_after = router->shard(home).stats();
    const EngineStats other_after = router->shard(other).stats();
    EXPECT_EQ(home_after.submitted - home_before.submitted, 2u);
    EXPECT_EQ(home_after.completed - home_before.completed, 2u);
    EXPECT_EQ(home_after.cache_hits - home_before.cache_hits, 1u);
    EXPECT_EQ(other_after.submitted, other_before.submitted);
    EXPECT_EQ(other_after.completed, other_before.completed);
    // Any shard serves bit-identically to a standalone engine: the clones
    // carry the same weights.
    AnalysisResult direct = reference->analyze(*d);
    EXPECT_EQ(first.ir_drop.data(), direct.ir_drop.data());
  }
  const EngineStats total = router->stats();
  EXPECT_EQ(total.submitted, 2u * designs.size());
  EXPECT_GE(total.cache_hits, designs.size());
}

TEST_F(ServeFixture, RouterKeepsRequestsOnAPausedOwner) {
  RouterOptions ropts;
  ropts.num_shards = 2;
  auto router = Router::from_checkpoint(*checkpoint_path_, ropts);

  const auto designs = distinct_topology_designs(1);
  ASSERT_EQ(designs.size(), 1u);
  const auto& design = designs.front();
  const int owner = router->shard_for(*design);
  const int sibling = 1 - owner;

  auto reference = Engine::from_checkpoint(*checkpoint_path_);
  const GridF expected = reference->analyze(*design).ir_drop;

  // Pause the owning shard and back its queue up. An idle sibling must not
  // take the work: nothing waits on a result before resume(), so a request
  // that stays queued can never hang the test.
  router->shard(owner).pause();
  std::vector<Engine::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    AnalysisRequest request;
    request.design = design;
    tickets.push_back(router->submit(std::move(request)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(router->shard(owner).queue_depth(), 6);
  EXPECT_EQ(router->shard(sibling).queue_depth(), 0);
  EXPECT_EQ(router->shard(sibling).stats().completed, 0u);

  router->shard(owner).resume();
  for (Engine::Ticket& t : tickets) {
    AnalysisResult r = t.result.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.ir_drop.data(), expected.data());
  }
  const EngineStats owner_stats = router->shard(owner).stats();
  EXPECT_EQ(owner_stats.submitted, 6u);
  EXPECT_EQ(owner_stats.completed, 6u);
  EXPECT_EQ(owner_stats.served_ok, 6u);
  EXPECT_EQ(router->shard(sibling).stats().submitted, 0u);
  EXPECT_EQ(router->shard(sibling).stats().completed, 0u);
}

TEST(RouterShardStats, AggregateMatchesPerShardBreakdown) {
  RouterOptions ropts;
  ropts.num_shards = 2;
  Router router(ropts);  // model-less: every request degrades, cheaply

  const auto designs = distinct_topology_designs(4);
  std::vector<Engine::Ticket> tickets;
  for (int round = 0; round < 3; ++round) {
    for (const auto& d : designs) {
      AnalysisRequest request;
      request.design = d;
      tickets.push_back(router.submit(std::move(request)));
    }
  }
  std::vector<std::uint64_t> ids;
  for (Engine::Ticket& t : tickets) {
    EXPECT_EQ(t.result.get().status, ResultStatus::kDegraded);
    ids.push_back(t.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "ticket ids must be globally unique across shards";

  const EngineStats total = router.stats();
  EngineStats sum;
  for (int i = 0; i < router.num_shards(); ++i) {
    const EngineStats s = router.shard(i).stats();
    // A request never changes shards, so the invariant holds per shard.
    EXPECT_LE(s.completed, s.submitted) << "shard " << i;
    EXPECT_EQ(router.shard(i).queue_depth(), 0) << "shard " << i;
    sum.submitted += s.submitted;
    sum.completed += s.completed;
    sum.degraded += s.degraded;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
  }
  EXPECT_EQ(total.submitted, sum.submitted);
  EXPECT_EQ(total.completed, sum.completed);
  EXPECT_EQ(total.degraded, sum.degraded);
  EXPECT_EQ(total.cache_hits, sum.cache_hits);
  EXPECT_EQ(total.cache_misses, sum.cache_misses);
  EXPECT_EQ(total.submitted, tickets.size());
  EXPECT_EQ(total.completed, tickets.size());
  EXPECT_LE(total.completed, total.submitted);
}

TEST(RouterRobustness, TicketIdNamesTheAdmittingShard) {
  RouterOptions ropts;
  ropts.num_shards = 2;
  Router router(ropts);  // model-less: every request degrades, cheaply
  const auto designs = distinct_topology_designs(4);
  ASSERT_GE(designs.size(), 2u);
  for (const auto& d : designs) {
    const int owner = router.shard_for(*d);
    const std::uint64_t before = router.shard(owner).stats().submitted;
    AnalysisRequest request;
    request.design = d;
    Engine::Ticket ticket = router.submit(std::move(request));
    // Shard i issues ids i+1, i+1+N, ...: the id names the design's home
    // shard, which admitted, served and counted the request.
    EXPECT_EQ(static_cast<int>((ticket.id - 1) % 2), owner);
    EXPECT_EQ(ticket.result.get().status, ResultStatus::kDegraded);
    EXPECT_EQ(router.shard(owner).stats().submitted, before + 1);
  }
}

}  // namespace
}  // namespace irf::serve
