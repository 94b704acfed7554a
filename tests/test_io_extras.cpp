// Tests for the ICCAD-2023-style dataset export layer. Pipeline
// checkpoints (irf::save_checkpoint / load_checkpoint) are tested in
// test_serve.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/image_io.hpp"
#include "features/extractor.hpp"
#include "spice/parser.hpp"
#include "train/dataset.hpp"
#include "train/iccad_io.hpp"

namespace irf::train {
namespace {

namespace fs = std::filesystem;

std::string file_text(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

ScaleConfig tiny_config() {
  ScaleConfig cfg = make_scale_config(Scale::kCi);
  cfg.image_size = 32;
  cfg.num_fake_designs = 2;
  cfg.num_real_designs = 2;
  cfg.epochs = 2;
  cfg.base_channels = 4;
  cfg.seed = 555;
  return cfg;
}

class IoFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = std::make_unique<DesignSet>(build_design_set(tiny_config()));
  }
  static void TearDownTestSuite() { set_.reset(); }
  static std::unique_ptr<DesignSet> set_;
};

std::unique_ptr<DesignSet> IoFixture::set_;

TEST_F(IoFixture, ExportImportRoundTrip) {
  const fs::path root = fs::temp_directory_path() / "irf_iccad_export";
  fs::remove_all(root);
  const std::string dir = export_design(set_->train.front(), root.string(), 32);

  for (const char* file : {"netlist.sp", "current_map.csv", "eff_dist_map.csv",
                           "pdn_density.csv", "ir_drop_map.csv"}) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / file)) << file;
  }

  EXPECT_EQ(fs::path(dir).filename().string(), set_->train.front().design->name);
  const spice::Netlist deck = spice::parse_file((fs::path(dir) / "netlist.sp").string());
  EXPECT_EQ(deck.num_nodes(), set_->train.front().design->netlist.num_nodes());

  // The exported golden map is the text of a fresh label extraction.
  const GridF fresh = features::label_map(*set_->train.front().design,
                                          set_->train.front().golden, 32);
  const fs::path fresh_csv = root / "fresh_ir_drop_map.csv";
  write_csv(fresh, fresh_csv.string());
  EXPECT_EQ(file_text(fs::path(dir) / "ir_drop_map.csv"), file_text(fresh_csv));
  fs::remove_all(root);
}

TEST_F(IoFixture, ExportDesignSetWritesAllDesigns) {
  const fs::path root = fs::temp_directory_path() / "irf_iccad_export_all";
  fs::remove_all(root);
  std::vector<std::string> dirs = export_design_set(*set_, root.string());
  EXPECT_EQ(dirs.size(), set_->train.size() + set_->test.size());
  for (const std::string& d : dirs) EXPECT_TRUE(fs::is_directory(d));
  fs::remove_all(root);
}

}  // namespace
}  // namespace irf::train
