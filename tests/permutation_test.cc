#include "explain/permutation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "util/random.h"

namespace fab::explain {
namespace {

ml::Dataset MakeDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> signal(n), weak(n), noise(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    signal[i] = rng.Normal();
    weak[i] = rng.Normal();
    noise[i] = rng.Normal();
    y[i] = 3.0 * signal[i] + 0.4 * weak[i] + 0.3 * rng.Normal();
  }
  ml::Dataset d;
  d.x = *ml::ColMatrix::FromColumns({signal, weak, noise});
  d.y = std::move(y);
  d.feature_names = {"signal", "weak", "noise"};
  return d;
}

class PermutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = MakeDataset(600, 3);
    valid_ = MakeDataset(300, 4);
    ml::ForestParams params;
    params.n_trees = 30;
    params.max_depth = 8;
    model_ = std::make_unique<ml::RandomForestRegressor>(params);
    ASSERT_TRUE(model_->Fit(train_.x, train_.y).ok());
  }

  ml::Dataset train_, valid_;
  std::unique_ptr<ml::RandomForestRegressor> model_;
};

TEST_F(PermutationTest, RanksFeaturesByTrueStrength) {
  PermutationOptions options;
  options.n_repeats = 3;
  const auto imp = PermutationImportance(*model_, valid_, options);
  ASSERT_TRUE(imp.ok());
  ASSERT_EQ(imp->size(), 3u);
  EXPECT_GT((*imp)[0], (*imp)[1]);
  EXPECT_GT((*imp)[1], (*imp)[2]);
  // The dominant feature's shuffle must hurt a lot.
  EXPECT_GT((*imp)[0], 1.0);
  // The pure-noise feature contributes nothing (allow small jitter).
  EXPECT_NEAR((*imp)[2], 0.0, 0.2);
}

TEST_F(PermutationTest, DeterministicInSeed) {
  PermutationOptions options;
  options.n_repeats = 2;
  options.seed = 55;
  const auto a = PermutationImportance(*model_, valid_, options);
  const auto b = PermutationImportance(*model_, valid_, options);
  EXPECT_EQ(*a, *b);
}

TEST_F(PermutationTest, LeavesInputUntouched) {
  const std::span<const double> column = valid_.x.column(0);
  const std::vector<double> before(column.begin(), column.end());
  PermutationOptions options;
  options.n_repeats = 1;
  ASSERT_TRUE(PermutationImportance(*model_, valid_, options).ok());
  EXPECT_TRUE(std::ranges::equal(valid_.x.column(0), before));
}

TEST_F(PermutationTest, RejectsBadOptions) {
  PermutationOptions options;
  options.n_repeats = 0;
  EXPECT_FALSE(PermutationImportance(*model_, valid_, options).ok());
  ml::Dataset tiny;
  tiny.x = *ml::ColMatrix::FromColumns({{1.0}});
  tiny.y = {1.0};
  options.n_repeats = 1;
  EXPECT_FALSE(PermutationImportance(*model_, tiny, options).ok());
}

/// Forwards predictions to a fitted model. PermutationImportance cannot
/// see the trees through it, so it takes the generic route: the
/// reference the tree route must match bit for bit.
class Forwarding : public ml::Regressor {
 public:
  explicit Forwarding(const ml::Regressor& model) : model_(model) {}

  Status Fit(const ml::ColMatrix&, const std::vector<double>&) override {
    return Status::FailedPrecondition("forwarding only");
  }
  double PredictOne(const ml::ColMatrix& x, size_t row) const override {
    return model_.PredictOne(x, row);
  }
  std::vector<double> Predict(const ml::ColMatrix& x) const override {
    return model_.Predict(x);
  }
  std::unique_ptr<ml::Regressor> CloneUnfitted() const override {
    return nullptr;
  }
  std::vector<double> FeatureImportances() const override {
    return model_.FeatureImportances();
  }
  std::string name() const override { return "forwarding"; }

 private:
  const ml::Regressor& model_;
};

/// MakeDataset plus a constant column and a column that is constant in
/// training (so no tree can split on it) but varies in the holdout.
ml::Dataset WithUnsplitColumns(ml::Dataset d, bool training, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols;
  for (size_t j = 0; j < d.num_features(); ++j) {
    cols.emplace_back(d.x.column(j).begin(), d.x.column(j).end());
  }
  cols.emplace_back(d.num_rows(), 1.5);
  std::vector<double> unsplit(d.num_rows(), 0.0);
  if (!training) {
    for (double& v : unsplit) v = rng.Normal();
  }
  cols.push_back(std::move(unsplit));
  d.x = *ml::ColMatrix::FromColumns(std::move(cols));
  d.feature_names.push_back("constant");
  d.feature_names.push_back("unsplit");
  return d;
}

bool SplitsOn(const std::vector<ml::RegressionTree>& trees, int feature) {
  for (const ml::RegressionTree& tree : trees) {
    for (const ml::TreeNode& node : tree.nodes()) {
      if (node.feature == feature) return true;
    }
  }
  return false;
}

TEST(PermutationRouteTest, TreeRouteMatchesGenericRouteBitwise) {
  const ml::Dataset train = WithUnsplitColumns(MakeDataset(500, 21), true, 5);
  const ml::Dataset valid = WithUnsplitColumns(MakeDataset(200, 22), false, 6);
  const int constant = 3;
  const int unsplit = 4;

  ml::ForestParams rf_params;
  rf_params.n_trees = 20;
  rf_params.max_depth = 8;
  rf_params.max_features = 0.6;
  ml::RandomForestRegressor rf(rf_params);
  ASSERT_TRUE(rf.Fit(train.x, train.y).ok());
  // The subsampling FRA uses for its boosted model.
  ml::GbdtParams xgb_params;
  xgb_params.n_rounds = 30;
  xgb_params.max_depth = 4;
  xgb_params.subsample = 0.9;
  xgb_params.colsample = 0.8;
  ml::GbdtRegressor xgb(xgb_params);
  ASSERT_TRUE(xgb.Fit(train.x, train.y).ok());
  ASSERT_FALSE(SplitsOn(rf.trees(), unsplit) || SplitsOn(rf.trees(), constant));
  ASSERT_FALSE(SplitsOn(xgb.trees(), unsplit) ||
               SplitsOn(xgb.trees(), constant));

  const ml::Regressor* models[] = {&rf, &xgb};
  for (const ml::Regressor* model : models) {
    for (const int repeats : {1, 3}) {
      SCOPED_TRACE(model->name() + " n_repeats=" + std::to_string(repeats));
      PermutationOptions options;
      options.n_repeats = repeats;
      options.seed = 71;
      const auto tree_route = PermutationImportance(*model, valid, options);
      const auto generic =
          PermutationImportance(Forwarding(*model), valid, options);
      ASSERT_TRUE(tree_route.ok() && generic.ok());
      ASSERT_EQ(tree_route->size(), valid.num_features());
      ASSERT_EQ(generic->size(), valid.num_features());
      for (size_t j = 0; j < valid.num_features(); ++j) {
        EXPECT_EQ((*tree_route)[j], (*generic)[j]) << "feature " << j;
      }
      EXPECT_EQ((*tree_route)[constant], 0.0);
      EXPECT_EQ((*tree_route)[unsplit], 0.0);
      EXPECT_GT((*tree_route)[0], 1.0);  // shuffling the signal must hurt
    }
  }
}

}  // namespace
}  // namespace fab::explain
