#include "ml/tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/random.h"

namespace fab::ml {
namespace {

/// Fits a plain (unweighted) regression tree on (x, y).
RegressionTree FitTree(const ColMatrix& x, const std::vector<double>& y,
                       TreeParams params) {
  auto binned = BinnedMatrix::Build(x);
  std::vector<double> g(y.size()), h(y.size(), 1.0);
  for (size_t i = 0; i < y.size(); ++i) g[i] = -y[i];
  RegressionTree tree;
  Rng rng(3);
  EXPECT_TRUE(tree.Fit(*binned, g, h, params, &rng).ok());
  return tree;
}

TEST(TreeTest, RejectsBadInput) {
  auto x = ColMatrix::FromColumns({{1, 2, 3}});
  auto binned = BinnedMatrix::Build(*x);
  RegressionTree tree;
  TreeParams params;
  std::vector<double> short_g{1.0};
  std::vector<double> h(3, 1.0);
  EXPECT_FALSE(tree.Fit(*binned, short_g, h, params, nullptr).ok());
  params.max_depth = 0;
  std::vector<double> g(3, 1.0);
  EXPECT_FALSE(tree.Fit(*binned, g, h, params, nullptr).ok());
  params.max_depth = 3;
  params.colsample_per_node = 0.5;
  EXPECT_FALSE(tree.Fit(*binned, g, h, params, nullptr).ok());  // null rng
}

TEST(TreeTest, ConstantTargetGivesSingleLeaf) {
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4}});
  const RegressionTree tree = FitTree(*x, {5, 5, 5, 5}, TreeParams{});
  EXPECT_EQ(tree.NumLeaves(), 1);
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 0), 5.0);
}

TEST(TreeTest, SplitsOnTheInformativeFeature) {
  Rng rng(7);
  std::vector<double> informative(200), noise(200), y(200);
  for (size_t i = 0; i < 200; ++i) {
    informative[i] = rng.Normal();
    noise[i] = rng.Normal();
    y[i] = informative[i] > 0.0 ? 10.0 : -10.0;
  }
  auto x = ColMatrix::FromColumns({noise, informative});
  TreeParams params;
  params.max_depth = 2;
  const RegressionTree tree = FitTree(*x, y, params);
  ASSERT_TRUE(tree.fitted());
  EXPECT_EQ(tree.nodes()[0].feature, 1);
  EXPECT_NEAR(tree.nodes()[0].threshold, 0.0, 0.3);
  EXPECT_GT(tree.gain_importance()[1], tree.gain_importance()[0]);
}

TEST(TreeTest, PerfectlySeparableDataFitsExactly) {
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4, 5, 6, 7, 8}});
  const std::vector<double> y{1, 1, 1, 1, 9, 9, 9, 9};
  TreeParams params;
  params.max_depth = 4;
  const RegressionTree tree = FitTree(*x, y, params);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(tree.PredictOne(*x, i), y[i]);
  }
}

TEST(TreeTest, RespectsMaxDepth) {
  Rng rng(9);
  std::vector<double> col(500), y(500);
  for (size_t i = 0; i < 500; ++i) {
    col[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  auto x = ColMatrix::FromColumns({col});
  for (int depth : {1, 2, 4, 6}) {
    TreeParams params;
    params.max_depth = depth;
    params.min_child_weight = 1.0;
    params.min_split_weight = 2.0;
    const RegressionTree tree = FitTree(*x, y, params);
    EXPECT_LE(tree.Depth(), depth);
  }
}

TEST(TreeTest, RespectsMinChildWeight) {
  Rng rng(11);
  std::vector<double> col(300), y(300);
  for (size_t i = 0; i < 300; ++i) {
    col[i] = rng.Normal();
    y[i] = col[i] + 0.1 * rng.Normal();
  }
  auto x = ColMatrix::FromColumns({col});
  TreeParams params;
  params.max_depth = 10;
  params.min_child_weight = 30.0;
  const RegressionTree tree = FitTree(*x, y, params);
  // No leaf can hold fewer than 30 samples: <= 10 leaves for n = 300.
  EXPECT_LE(tree.NumLeaves(), 10);
}

TEST(TreeTest, LeafValuesAreChildMeans) {
  // Single split; leaves must predict the group means exactly.
  auto x = ColMatrix::FromColumns({{1, 2, 10, 11}});
  const std::vector<double> y{3, 5, 21, 23};
  TreeParams params;
  params.max_depth = 1;
  const RegressionTree tree = FitTree(*x, y, params);
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 0), 4.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 3), 22.0);
}

TEST(TreeTest, LambdaShrinksLeafValues) {
  auto x = ColMatrix::FromColumns({{1, 2, 10, 11}});
  const std::vector<double> y{4, 4, 20, 20};
  TreeParams reg;
  reg.max_depth = 1;
  reg.lambda = 2.0;
  auto binned = BinnedMatrix::Build(*x);
  std::vector<double> g(4), h(4, 1.0);
  for (size_t i = 0; i < 4; ++i) g[i] = -y[i];
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(*binned, g, h, reg, nullptr).ok());
  // Leaf value = sum(y) / (count + lambda) = 8 / 4 = 2 < unregularized 4.
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 0), 2.0);
}

TEST(TreeTest, GammaPrunesWeakSplits) {
  Rng rng(13);
  std::vector<double> col(200), y(200);
  for (size_t i = 0; i < 200; ++i) {
    col[i] = rng.Normal();
    y[i] = 0.05 * col[i] + rng.Normal();  // weak signal
  }
  auto x = ColMatrix::FromColumns({col});
  TreeParams loose;
  loose.max_depth = 6;
  TreeParams strict = loose;
  strict.gamma = 1e6;
  const RegressionTree tree_loose = FitTree(*x, y, loose);
  const RegressionTree tree_strict = FitTree(*x, y, strict);
  EXPECT_GT(tree_loose.NumLeaves(), 1);
  EXPECT_EQ(tree_strict.NumLeaves(), 1);
}

TEST(TreeTest, ZeroWeightSamplesIgnored) {
  // Out-of-bag samples (g = h = 0) must not affect the fit.
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4, 100}});
  auto binned = BinnedMatrix::Build(*x);
  // The outlier row has zero weight.
  std::vector<double> g{-1, -1, -9, -9, 0};
  std::vector<double> h{1, 1, 1, 1, 0};
  TreeParams params;
  params.max_depth = 2;
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(*binned, g, h, params, nullptr).ok());
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 0), 1.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(*x, 2), 9.0);
}

TEST(TreeTest, CoverTracksHessianMass) {
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4}});
  const RegressionTree tree = FitTree(*x, {1, 1, 9, 9}, TreeParams{});
  EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, 4.0);
  // Children covers sum to the parent cover.
  const TreeNode& root = tree.nodes()[0];
  if (root.feature >= 0) {
    EXPECT_DOUBLE_EQ(
        tree.nodes()[static_cast<size_t>(root.left)].cover +
            tree.nodes()[static_cast<size_t>(root.right)].cover,
        root.cover);
  }
}

TEST(TreeTest, DeterministicWithSameRngSeed) {
  Rng data_rng(17);
  std::vector<std::vector<double>> cols(10, std::vector<double>(200));
  for (auto& c : cols) {
    for (auto& v : c) v = data_rng.Normal();
  }
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) y[i] = cols[0][i] + 0.3 * data_rng.Normal();
  auto x = ColMatrix::FromColumns(cols);
  auto binned = BinnedMatrix::Build(*x);
  std::vector<double> g(200), h(200, 1.0);
  for (size_t i = 0; i < 200; ++i) g[i] = -y[i];
  TreeParams params;
  params.colsample_per_node = 0.5;
  RegressionTree a, b;
  Rng rng_a(5), rng_b(5);
  ASSERT_TRUE(a.Fit(*binned, g, h, params, &rng_a).ok());
  ASSERT_TRUE(b.Fit(*binned, g, h, params, &rng_b).ok());
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].feature, b.nodes()[i].feature);
    EXPECT_DOUBLE_EQ(a.nodes()[i].threshold, b.nodes()[i].threshold);
  }
}

/// What a reference fit produced, and which scan cases it met.
struct ReferenceFit {
  std::vector<TreeNode> nodes;
  std::vector<double> gain;
  int dense_scans = 0;   // a node with at least as many rows as bins
  int sparse_scans = 0;  // a node with fewer rows than bins
  int early_breaks = 0;  // scans min_child_weight ended before the last row
};

/// The split scan spelled out, for colsample_per_node = 1: per node and
/// feature (in index order), sum each bin's g and h over the node's rows in
/// ascending row order, then try every bin below the last in ascending
/// order; the first strict maximum gain wins. Nodes are numbered and
/// partitioned as RegressionTree::Fit does, and the right child's sums are
/// the node's minus the left child's.
class ReferenceBuilder {
 public:
  ReferenceBuilder(const BinnedMatrix& x, const std::vector<double>& g,
                   const std::vector<double>& h, const TreeParams& params)
      : x_(x), g_(g), h_(h), p_(params) {}

  ReferenceFit Fit() {
    fit_ = ReferenceFit{};
    fit_.gain.assign(x_.cols(), 0.0);
    std::vector<size_t> rows;
    double total_g = 0.0;
    double total_h = 0.0;
    for (size_t i = 0; i < x_.rows(); ++i) {
      if (g_[i] == 0.0 && h_[i] == 0.0) continue;  // out of bag
      rows.push_back(i);
      total_g += g_[i];
      total_h += h_[i];
    }
    Node(rows, total_g, total_h, 0);
    return fit_;
  }

 private:
  double Objective(double g, double h) const {
    const double denom = h + p_.lambda;
    return denom > 0.0 ? g * g / denom : 0.0;
  }

  int Node(const std::vector<size_t>& rows, double node_g, double node_h,
           int depth) {
    const int id = static_cast<int>(fit_.nodes.size());
    TreeNode leaf;
    const double denom = node_h + p_.lambda;
    leaf.value = denom > 0.0 ? -node_g / denom : 0.0;
    leaf.cover = node_h;
    fit_.nodes.push_back(leaf);
    if (depth >= p_.max_depth || node_h < p_.min_split_weight ||
        rows.size() < 2) {
      return id;
    }

    int best_feature = -1;
    int best_bin = -1;
    double best_gain = 0.0;
    const double parent_obj = Objective(node_g, node_h);
    for (size_t j = 0; j < x_.cols(); ++j) {
      const size_t nb = static_cast<size_t>(x_.num_bins(j));
      if (nb < 2) continue;
      ++(rows.size() < nb ? fit_.sparse_scans : fit_.dense_scans);
      std::vector<double> bin_g(nb, 0.0);
      std::vector<double> bin_h(nb, 0.0);
      for (const size_t i : rows) {
        bin_g[x_.code(i, j)] += g_[i];
        bin_h[x_.code(i, j)] += h_[i];
      }
      double gl = 0.0;
      double hl = 0.0;
      for (size_t b = 0; b + 1 < nb; ++b) {
        gl += bin_g[b];
        hl += bin_h[b];
        if (hl < p_.min_child_weight) continue;
        const double hr = node_h - hl;
        if (hr < p_.min_child_weight) {
          if (hr > 0.0) ++fit_.early_breaks;
          break;
        }
        const double gain =
            0.5 * (Objective(gl, hl) + Objective(node_g - gl, hr) -
                   parent_obj) -
            p_.gamma;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(j);
          best_bin = static_cast<int>(b);
        }
      }
    }
    if (best_feature < 0 || best_gain <= 0.0) return id;

    const size_t f = static_cast<size_t>(best_feature);
    std::vector<size_t> left;
    std::vector<size_t> right;
    double left_g = 0.0;
    double left_h = 0.0;
    for (const size_t i : rows) {
      if (x_.code(i, f) <= best_bin) {
        left.push_back(i);
        left_g += g_[i];
        left_h += h_[i];
      } else {
        right.push_back(i);
      }
    }
    if (left.empty() || right.empty()) return id;
    fit_.gain[f] += best_gain;
    const int left_id = Node(left, left_g, left_h, depth + 1);
    const int right_id =
        Node(right, node_g - left_g, node_h - left_h, depth + 1);
    TreeNode& node = fit_.nodes[static_cast<size_t>(id)];
    node.feature = best_feature;
    node.threshold = x_.upper_edge(f, best_bin);
    node.left = left_id;
    node.right = right_id;
    return id;
  }

  const BinnedMatrix& x_;
  const std::vector<double>& g_;
  const std::vector<double>& h_;
  const TreeParams& p_;
  ReferenceFit fit_;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(TreeTest, MatchesExhaustiveReferenceBitwise) {
  // Random-forest style (integer bootstrap weights, lambda 0) and GBDT
  // style (unit hessians, lambda 1) fits over continuous and
  // few-distinct-value columns, so both scans run: the dense one (rows >=
  // bins) and the sparse one (fewer rows than bins), and min_child_weight
  // ends some of them early.
  ReferenceFit coverage;
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    const size_t n = 300;
    std::vector<std::vector<double>> cols(5, std::vector<double>(n));
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
      cols[0][i] = rng.Normal();
      cols[1][i] = rng.Uniform();
      cols[2][i] = static_cast<double>(rng.UniformInt(4));
      cols[3][i] = static_cast<double>(rng.UniformInt(12));
      cols[4][i] = std::round(8.0 * rng.Normal());
      y[i] = cols[0][i] + (cols[2][i] > 1.0 ? 1.0 : -1.0) +
             0.1 * cols[4][i] + 0.5 * rng.Normal();
    }
    auto x = ColMatrix::FromColumns(cols);
    ASSERT_TRUE(x.ok());
    auto binned = BinnedMatrix::Build(*x);
    ASSERT_TRUE(binned.ok());
    for (double min_child_weight : {1.0, 6.0}) {
      for (bool boosted : {false, true}) {
        std::vector<double> g(n);
        std::vector<double> h(n);
        for (size_t i = 0; i < n; ++i) {
          if (boosted) {
            g[i] = 0.3 * rng.Normal() - y[i];
            h[i] = 1.0;
          } else {
            const double w = static_cast<double>(rng.UniformInt(4));
            g[i] = -w * y[i];
            h[i] = w;
          }
        }
        TreeParams params;
        params.max_depth = 10;
        params.min_child_weight = min_child_weight;
        params.lambda = boosted ? 1.0 : 0.0;
        RegressionTree tree;
        ASSERT_TRUE(tree.Fit(*binned, g, h, params, nullptr).ok());
        const ReferenceFit want = ReferenceBuilder(*binned, g, h, params).Fit();
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " min_child_weight="
                     << min_child_weight << " boosted=" << boosted);
        ASSERT_EQ(tree.nodes().size(), want.nodes.size());
        for (size_t k = 0; k < want.nodes.size(); ++k) {
          const TreeNode& got = tree.nodes()[k];
          const TreeNode& ref = want.nodes[k];
          EXPECT_EQ(got.feature, ref.feature) << "node " << k;
          EXPECT_EQ(Bits(got.threshold), Bits(ref.threshold)) << "node " << k;
          EXPECT_EQ(got.left, ref.left) << "node " << k;
          EXPECT_EQ(got.right, ref.right) << "node " << k;
          EXPECT_EQ(Bits(got.value), Bits(ref.value)) << "node " << k;
          EXPECT_EQ(Bits(got.cover), Bits(ref.cover)) << "node " << k;
        }
        ASSERT_EQ(tree.gain_importance().size(), want.gain.size());
        for (size_t j = 0; j < want.gain.size(); ++j) {
          EXPECT_EQ(Bits(tree.gain_importance()[j]), Bits(want.gain[j]))
              << "feature " << j;
        }
        coverage.dense_scans += want.dense_scans;
        coverage.sparse_scans += want.sparse_scans;
        coverage.early_breaks += want.early_breaks;
      }
    }
  }
  EXPECT_GT(coverage.dense_scans, 0);
  EXPECT_GT(coverage.sparse_scans, 0);
  EXPECT_GT(coverage.early_breaks, 0);
}

class TreeDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreeDepthSweep, TrainErrorDecreasesWithDepth) {
  Rng rng(23);
  const size_t n = 600;
  std::vector<double> c0(n), c1(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    c0[i] = rng.Normal();
    c1[i] = rng.Normal();
    y[i] = std::sin(2.0 * c0[i]) + c1[i] * c1[i];
  }
  auto x = ColMatrix::FromColumns({c0, c1});
  TreeParams shallow;
  shallow.max_depth = GetParam();
  TreeParams deeper;
  deeper.max_depth = GetParam() + 2;
  const RegressionTree tree_shallow = FitTree(*x, y, shallow);
  const RegressionTree tree_deeper = FitTree(*x, y, deeper);
  auto sse = [&](const RegressionTree& tree) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = tree.PredictOne(*x, i) - y[i];
      acc += d * d;
    }
    return acc;
  };
  EXPECT_LE(sse(tree_deeper), sse(tree_shallow) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace fab::ml
