#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "util/random.h"

namespace fab::serve {
namespace {

ml::ColMatrix MakeMatrix(size_t n, size_t f, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  return *ml::ColMatrix::FromColumns(std::move(cols));
}

std::vector<double> MakeTarget(const ml::ColMatrix& x, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> y(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    y[i] = 2.0 * x.at(i, 0) - x.at(i, 1) + 0.3 * rng.Normal();
  }
  return y;
}

std::filesystem::path TempDirPath() {
  return std::filesystem::temp_directory_path() /
         ("fab_snapshot_test_" + std::to_string(::getpid()));
}

std::string TempDir() {
  std::filesystem::create_directories(TempDirPath());
  return TempDirPath().string();
}

/// Each test removes TempDir() when it ends.
class SnapshotTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove_all(TempDirPath()); }
};

/// Round-trips `model` through the codec and asserts bitwise-identical
/// predictions on a held-out matrix.
void ExpectExactRoundTrip(const ml::Regressor& model,
                          const ml::ColMatrix& held_out,
                          const std::string& path) {
  ASSERT_TRUE(SnapshotCodec::Save(model, path).ok());
  auto loaded = SnapshotCodec::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), model.name());
  const std::vector<double> want = model.Predict(held_out);
  const std::vector<double> got = (*loaded)->Predict(held_out);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // EXPECT_EQ on doubles: bitwise-identical is the contract, not "close".
    EXPECT_EQ(want[i], got[i]) << "row " << i;
  }
  // Per-row path must round-trip exactly too.
  for (size_t i = 0; i < held_out.rows(); ++i) {
    EXPECT_EQ(model.PredictOne(held_out, i), (*loaded)->PredictOne(held_out, i));
  }
}

TEST_F(SnapshotTest, RandomForestRoundTripIsBitwiseExact) {
  const ml::ColMatrix train = MakeMatrix(300, 8, 1);
  const ml::ColMatrix held_out = MakeMatrix(64, 8, 2);
  ml::ForestParams params;
  params.n_trees = 20;
  params.max_depth = 6;
  ml::RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(train, MakeTarget(train, 3)).ok());
  ExpectExactRoundTrip(rf, held_out, TempDir() + "/rf.fabsnap");
}

TEST_F(SnapshotTest, GbdtRoundTripIsBitwiseExact) {
  const ml::ColMatrix train = MakeMatrix(300, 8, 4);
  const ml::ColMatrix held_out = MakeMatrix(64, 8, 5);
  ml::GbdtParams params;
  params.n_rounds = 25;
  params.max_depth = 4;
  ml::GbdtRegressor gbdt(params);
  ASSERT_TRUE(gbdt.Fit(train, MakeTarget(train, 6)).ok());
  ExpectExactRoundTrip(gbdt, held_out, TempDir() + "/xgb.fabsnap");
}

TEST_F(SnapshotTest, MlpRoundTripIsBitwiseExact) {
  const ml::ColMatrix train = MakeMatrix(200, 6, 7);
  const ml::ColMatrix held_out = MakeMatrix(64, 6, 8);
  ml::MlpParams params;
  params.hidden = {16, 8};
  params.epochs = 15;
  ml::MlpRegressor mlp(params);
  ASSERT_TRUE(mlp.Fit(train, MakeTarget(train, 9)).ok());
  ExpectExactRoundTrip(mlp, held_out, TempDir() + "/mlp.fabsnap");
}

TEST_F(SnapshotTest, RoundTripPreservesHyperparameters) {
  const ml::ColMatrix train = MakeMatrix(120, 4, 10);
  ml::GbdtParams params;
  params.n_rounds = 10;
  params.learning_rate = 0.07;
  params.lambda = 2.5;
  params.seed = 12345;
  ml::GbdtRegressor gbdt(params);
  ASSERT_TRUE(gbdt.Fit(train, MakeTarget(train, 11)).ok());
  auto encoded = SnapshotCodec::Encode(gbdt);
  ASSERT_TRUE(encoded.ok());
  auto decoded = SnapshotCodec::Decode(*encoded);
  ASSERT_TRUE(decoded.ok());
  const auto* loaded = dynamic_cast<const ml::GbdtRegressor*>(decoded->get());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->params().n_rounds, 10);
  EXPECT_EQ(loaded->params().learning_rate, 0.07);
  EXPECT_EQ(loaded->params().lambda, 2.5);
  EXPECT_EQ(loaded->params().seed, 12345u);
  EXPECT_EQ(loaded->base_score(), gbdt.base_score());
  EXPECT_EQ(loaded->num_features(), 4u);
}

TEST_F(SnapshotTest, RejectsCorruptedHeader) {
  const ml::ColMatrix train = MakeMatrix(120, 4, 12);
  ml::ForestParams params;
  params.n_trees = 5;
  ml::RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(train, MakeTarget(train, 13)).ok());
  auto encoded = SnapshotCodec::Encode(rf);
  ASSERT_TRUE(encoded.ok());

  // Bad magic.
  std::string bad_magic = *encoded;
  bad_magic[0] = 'X';
  EXPECT_FALSE(SnapshotCodec::Decode(bad_magic).ok());

  // Unsupported format version.
  std::string bad_version = *encoded;
  bad_version[8] = static_cast<char>(99);
  EXPECT_FALSE(SnapshotCodec::Decode(bad_version).ok());

  // Unknown model kind.
  std::string bad_kind = *encoded;
  bad_kind[12] = static_cast<char>(7);
  EXPECT_FALSE(SnapshotCodec::Decode(bad_kind).ok());

  // Truncations at every prefix of the header and a mid-payload cut.
  for (size_t len : {0ul, 4ul, 8ul, 12ul, 15ul, encoded->size() / 2}) {
    EXPECT_FALSE(SnapshotCodec::Decode(encoded->substr(0, len)).ok())
        << "prefix " << len;
  }

  // Empty / garbage files through the Load path.
  const std::string dir = TempDir();
  const std::string garbage_path = dir + "/garbage.fabsnap";
  std::ofstream(garbage_path, std::ios::binary) << "not a snapshot at all";
  EXPECT_FALSE(SnapshotCodec::Load(garbage_path).ok());
  EXPECT_FALSE(SnapshotCodec::Load(dir + "/missing.fabsnap").ok());
}

/// Encodes a one-tree, one-feature forest made of `nodes`.
Result<std::string> EncodeOneTree(std::vector<ml::TreeNode> nodes) {
  std::vector<ml::RegressionTree> trees;
  trees.push_back(ml::RegressionTree::FromParts(std::move(nodes), {1.0}));
  return SnapshotCodec::Encode(ml::RandomForestRegressor::FromFitted(
      ml::ForestParams{}, std::move(trees), /*num_features=*/1));
}

TEST_F(SnapshotTest, RejectsNodeListsThatAreNotTrees) {
  // Every child index below is in range; the shapes are what is wrong.
  // A self-loop or back-edge would never let traversal end, and a child
  // shared by two parents is copied once per path when flattened, so
  // only the decode status is examined: the model is never run.
  auto split = [](int left, int right) {
    ml::TreeNode node;
    node.feature = 0;
    node.left = left;
    node.right = right;
    return node;
  };
  const ml::TreeNode leaf;
  const std::vector<std::pair<const char*, std::vector<ml::TreeNode>>> shapes =
      {{"self-loop", {split(0, 1), leaf}},
       {"back-edge", {split(1, 2), split(0, 3), leaf, leaf}},
       {"shared child", {split(1, 2), split(3, 4), split(3, 4), leaf, leaf}}};
  for (const auto& [name, nodes] : shapes) {
    auto encoded = EncodeOneTree(nodes);
    ASSERT_TRUE(encoded.ok()) << name;
    EXPECT_EQ(SnapshotCodec::Decode(*encoded).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST_F(SnapshotTest, RejectsNonFiniteNodeValues) {
  // A NaN threshold sends every row right, and a non-finite value or cover
  // reaches forecasts and SHAP weights; none comes out of a fit.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto tree = [](double threshold, double value, double cover) {
    ml::TreeNode root;
    root.feature = 0;
    root.threshold = threshold;
    root.left = 1;
    root.right = 2;
    ml::TreeNode leaf;
    leaf.value = value;
    leaf.cover = cover;
    return std::vector<ml::TreeNode>{root, leaf, ml::TreeNode{}};
  };
  const std::vector<std::pair<const char*, std::vector<ml::TreeNode>>> cases =
      {{"NaN threshold", tree(nan, 1.0, 1.0)},
       {"NaN value", tree(0.5, nan, 1.0)},
       {"infinite value", tree(0.5, inf, 1.0)},
       {"-infinite value", tree(0.5, -inf, 1.0)},
       {"NaN cover", tree(0.5, 1.0, nan)},
       {"infinite cover", tree(0.5, 1.0, inf)}};
  for (const auto& [name, nodes] : cases) {
    auto encoded = EncodeOneTree(nodes);
    ASSERT_TRUE(encoded.ok()) << name;
    EXPECT_EQ(SnapshotCodec::Decode(*encoded).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST_F(SnapshotTest, DecodesInfiniteThresholds) {
  // A split on data holding -inf can have -inf as its threshold.
  ml::TreeNode root;
  root.feature = 0;
  root.threshold = -std::numeric_limits<double>::infinity();
  root.left = 1;
  root.right = 2;
  ml::TreeNode low;
  low.value = -1.0;
  ml::TreeNode high;
  high.value = 2.0;
  auto encoded = EncodeOneTree({root, low, high});
  ASSERT_TRUE(encoded.ok());
  auto decoded = SnapshotCodec::Decode(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto x = ml::ColMatrix::FromColumns(
      {{-std::numeric_limits<double>::infinity(), 0.0}});
  ASSERT_TRUE(x.ok());
  EXPECT_EQ((*decoded)->PredictOne(*x, 0), -1.0);
  EXPECT_EQ((*decoded)->PredictOne(*x, 1), 2.0);
}

TEST_F(SnapshotTest, ProbeReportsKind) {
  const ml::ColMatrix train = MakeMatrix(120, 4, 14);
  ml::ForestParams params;
  params.n_trees = 3;
  ml::RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(train, MakeTarget(train, 15)).ok());
  const std::string path = TempDir() + "/probe.fabsnap";
  ASSERT_TRUE(SnapshotCodec::Save(rf, path).ok());
  auto info = SnapshotCodec::Probe(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->kind, ModelKind::kRandomForest);
  EXPECT_EQ(info->version, SnapshotCodec::kFormatVersion);
}

}  // namespace
}  // namespace fab::serve
