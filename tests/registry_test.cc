#include "serve/registry.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "serve/snapshot.h"
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
    y[i] = x.at(i, 0) - 0.5 * x.at(i, 1) + 0.2 * rng.Normal();
  }
  return y;
}

std::unique_ptr<ml::Regressor> TrainForest(uint64_t seed, int n_trees = 8) {
  const ml::ColMatrix train = MakeMatrix(150, 4, seed);
  ml::ForestParams params;
  params.n_trees = n_trees;
  params.seed = seed;
  auto rf = std::make_unique<ml::RandomForestRegressor>(params);
  EXPECT_TRUE(rf->Fit(train, MakeTarget(train, seed + 1)).ok());
  return rf;
}

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("fab_registry_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(RegistryTest, FileNameRoundTrip) {
  const ModelKey key{"2019", 30, "xgb"};
  EXPECT_EQ(SnapshotFileName(key), "2019_w30_xgb.fabsnap");
  auto parsed = ParseSnapshotFileName("2019_w30_xgb.fabsnap");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, key);
  EXPECT_FALSE(ParseSnapshotFileName("readme.txt").ok());
  EXPECT_FALSE(ParseSnapshotFileName("2019_xgb.fabsnap").ok());
  EXPECT_FALSE(ParseSnapshotFileName("2019_wfoo_xgb.fabsnap").ok());
  EXPECT_FALSE(ParseSnapshotFileName(".fabsnap").ok());
}

TEST_F(RegistryTest, LazyLoadAndMemoize) {
  const ModelKey key{"2017", 1, "rf"};
  ModelRegistry registry(dir_);
  ASSERT_TRUE(
      SnapshotCodec::Save(*TrainForest(41), registry.PathFor(key)).ok());
  auto first = registry.Get(key);
  ASSERT_TRUE(first.ok());
  auto second = registry.Get(key);
  ASSERT_TRUE(second.ok());
  // Memoized: same servable instance, no second disk load.
  EXPECT_EQ(first->get(), second->get());
}

TEST_F(RegistryTest, MissingModelIsNotFound) {
  ModelRegistry registry(dir_);
  const auto result = registry.Get(ModelKey{"2017", 90, "mlp"});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(RegistryTest, ReloadHotSwapsEntry) {
  const ModelKey key{"2017", 7, "rf"};
  ModelRegistry registry(dir_);
  ASSERT_TRUE(
      SnapshotCodec::Save(*TrainForest(50), registry.PathFor(key)).ok());
  auto before = registry.Get(key);
  ASSERT_TRUE(before.ok());

  // Retrain with a different seed and republish.
  ASSERT_TRUE(
      SnapshotCodec::Save(*TrainForest(99), registry.PathFor(key)).ok());
  ASSERT_TRUE(registry.Reload(key).ok());
  auto after = registry.Get(key);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  // The old servable handle stays usable (in-flight batches don't care
  // about the swap).
  const ml::ColMatrix test = MakeMatrix(10, 4, 7);
  (void)(*before)->Predict(test);
}

TEST_F(RegistryTest, ListOnDiskFindsSnapshots) {
  ModelRegistry registry(dir_);
  ASSERT_TRUE(SnapshotCodec::Save(
                  *TrainForest(60),
                  registry.PathFor(ModelKey{"2017", 1, "rf"}))
                  .ok());
  ASSERT_TRUE(SnapshotCodec::Save(
                  *TrainForest(61),
                  registry.PathFor(ModelKey{"2019", 90, "rf"}))
                  .ok());
  std::ofstream(dir_ + "/notes.txt") << "ignored";
  const std::vector<ModelKey> keys = registry.ListOnDisk();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], (ModelKey{"2017", 1, "rf"}));
  EXPECT_EQ(keys[1], (ModelKey{"2019", 90, "rf"}));
}

TEST_F(RegistryTest, ConcurrentGetAndReload) {
  const ModelKey key{"2019", 1, "rf"};
  ModelRegistry registry(dir_);
  ASSERT_TRUE(
      SnapshotCodec::Save(*TrainForest(70), registry.PathFor(key)).ok());
  const ml::ColMatrix test = MakeMatrix(16, 4, 71);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  // Reader threads hammer Get + Predict while a writer hot-swaps the
  // model; every read must see a fully-formed servable.
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto servable = registry.Get(key);
        if (!servable.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const std::vector<double> pred = (*servable)->Predict(test);
        if (pred.size() != test.rows()) failures.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(SnapshotCodec::Save(*TrainForest(100 + round),
                                    registry.PathFor(key))
                    .ok());
    ASSERT_TRUE(registry.Reload(key).ok());
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(RegistryTest, InstallPersistsAndServes) {
  const ModelKey key{"2017", 90, "rf"};
  ModelRegistry registry(dir_);
  ASSERT_TRUE(registry.Install(key, TrainForest(80)).ok());
  EXPECT_TRUE(std::filesystem::exists(registry.PathFor(key)));
  // A cold registry over the same directory can serve it.
  ModelRegistry cold(dir_);
  auto servable = cold.Get(key);
  ASSERT_TRUE(servable.ok());
  EXPECT_TRUE((*servable)->flattened());
  EXPECT_EQ((*servable)->num_features(), 4u);
}

}  // namespace
}  // namespace fab::serve
