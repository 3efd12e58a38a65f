#include "serve/flat_forest.h"

#include <gtest/gtest.h>

#include "ml/forest.h"
#include "ml/gbdt.h"
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
    y[i] = x.at(i, 0) * x.at(i, 1) + 0.5 * x.at(i, 2) + 0.1 * rng.Normal();
  }
  return y;
}

TEST(FlatForestTest, MatchesForestVirtualPathExactly) {
  const ml::ColMatrix train = MakeMatrix(400, 10, 21);
  const ml::ColMatrix test = MakeMatrix(257, 10, 22);
  ml::ForestParams params;
  params.n_trees = 30;
  params.max_depth = 8;
  ml::RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(train, MakeTarget(train, 23)).ok());

  auto flat = FlatForest::FromRegressor(rf);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->num_trees(), 30u);

  const std::vector<double> want = rf.Predict(test);
  const std::vector<double> got = flat->Predict(test);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // The flat kernel reproduces the virtual path bitwise (same tree
    // order, same mean), so serving results are indistinguishable.
    EXPECT_EQ(want[i], got[i]) << "row " << i;
  }
  for (size_t i = 0; i < test.rows(); ++i) {
    EXPECT_EQ(rf.PredictOne(test, i), flat->PredictOne(test, i));
  }
}

TEST(FlatForestTest, MatchesGbdtVirtualPathExactly) {
  const ml::ColMatrix train = MakeMatrix(400, 10, 24);
  const ml::ColMatrix test = MakeMatrix(123, 10, 25);
  ml::GbdtParams params;
  params.n_rounds = 40;
  params.max_depth = 4;
  ml::GbdtRegressor gbdt(params);
  ASSERT_TRUE(gbdt.Fit(train, MakeTarget(train, 26)).ok());

  auto flat = FlatForest::FromRegressor(gbdt);
  ASSERT_TRUE(flat.ok());
  const std::vector<double> want = gbdt.Predict(test);
  const std::vector<double> got = flat->Predict(test);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]);
}

TEST(FlatForestTest, PredictRangeCoversSubsets) {
  const ml::ColMatrix train = MakeMatrix(200, 5, 27);
  const ml::ColMatrix test = MakeMatrix(50, 5, 28);
  ml::ForestParams params;
  params.n_trees = 10;
  ml::RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(train, MakeTarget(train, 29)).ok());
  auto flat = FlatForest::FromRegressor(rf);
  ASSERT_TRUE(flat.ok());
  const std::vector<double> all = flat->Predict(test);
  std::vector<double> part(7);
  flat->PredictRange(test, 11, 18, part.data());
  for (size_t i = 0; i < part.size(); ++i) EXPECT_EQ(part[i], all[11 + i]);
}

TEST(FlatForestTest, RejectsNonEnsembleModels) {
  // The flattener only understands tree ensembles.
  class Dummy : public ml::Regressor {
   public:
    Status Fit(const ml::ColMatrix&, const std::vector<double>&) override {
      return Status::OK();
    }
    double PredictOne(const ml::ColMatrix&, size_t) const override {
      return 0.0;
    }
    std::unique_ptr<ml::Regressor> CloneUnfitted() const override {
      return nullptr;
    }
    std::vector<double> FeatureImportances() const override { return {}; }
    std::string name() const override { return "dummy"; }
  };
  Dummy dummy;
  EXPECT_FALSE(FlatForest::FromRegressor(dummy).ok());
}

TEST(FlatForestTest, EmptyEnsemblePredictsZero) {
  FlatForest flat;
  EXPECT_TRUE(flat.empty());
  const ml::ColMatrix test = MakeMatrix(3, 2, 30);
  const std::vector<double> out = flat.Predict(test);
  for (double v : out) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace fab::serve
