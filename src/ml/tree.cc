#include "ml/tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

namespace fab::ml {

namespace {

constexpr size_t kBins = 256;  // bin codes are uint8_t
constexpr size_t kMaskWords = kBins / 64;

/// Per-bin gradient/hessian accumulator.
struct BinStat {
  double g = 0.0;
  double h = 0.0;
};

class TreeBuilder {
 public:
  TreeBuilder(const BinnedMatrix& x, const std::vector<double>& g,
              const std::vector<double>& h, const TreeParams& params, Rng* rng,
              std::vector<TreeNode>* nodes, std::vector<double>* gain)
      : x_(x),
        params_(params),
        rng_(rng),
        nodes_(nodes),
        gain_(gain) {
    // Keep only in-bag samples; indices_/g_/h_ stay parallel and
    // node-ordered (each node owns a contiguous segment), so histogram
    // accumulation reads gradients sequentially.
    indices_.reserve(x_.rows());
    for (size_t i = 0; i < x_.rows(); ++i) {
      if (g[i] == 0.0 && h[i] == 0.0) continue;
      indices_.push_back(static_cast<int>(i));
      g_.push_back(g[i]);
      h_.push_back(h[i]);
      total_g_ += g[i];
      total_h_ += h[i];
    }
    const size_t m = indices_.size();
    tmp_i_.resize(m);
    tmp_g_.resize(m);
    tmp_h_.resize(m);
    hist_.resize(kBins);
    pool_.resize(x_.cols());
    std::iota(pool_.begin(), pool_.end(), 0);
  }

  void Build() { BuildNode(0, indices_.size(), total_g_, total_h_, 0); }

 private:
  double Objective(double g, double h) const {
    const double denom = h + params_.lambda;
    return denom > 0.0 ? g * g / denom : 0.0;
  }

  double LeafValue(double g, double h) const {
    const double denom = h + params_.lambda;
    return denom > 0.0 ? -g / denom : 0.0;
  }

  /// Highest occupied bin (0 when none is).
  size_t HighestOccupied() const {
    for (size_t w = kMaskWords; w-- > 0;) {
      if (occupied_[w] != 0) {
        return w * 64 + 63 -
               static_cast<size_t>(std::countl_zero(occupied_[w]));
      }
    }
    return 0;
  }

  int BuildNode(size_t start, size_t end, double node_g, double node_h,
                int depth) {
    const int node_id = static_cast<int>(nodes_->size());
    nodes_->push_back(TreeNode{});
    (*nodes_)[static_cast<size_t>(node_id)].value = LeafValue(node_g, node_h);
    (*nodes_)[static_cast<size_t>(node_id)].cover = node_h;

    if (depth >= params_.max_depth || node_h < params_.min_split_weight ||
        end - start < 2) {
      return node_id;
    }

    // Candidate feature subset for this node: a partial Fisher–Yates over
    // the persistent pool (no per-node allocation).
    const size_t f = x_.cols();
    size_t n_eval = f;
    if (params_.colsample_per_node < 1.0) {
      n_eval = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(params_.colsample_per_node *
                                           static_cast<double>(f))));
      for (size_t k = 0; k < n_eval; ++k) {
        const size_t j =
            k + static_cast<size_t>(rng_->UniformInt(
                    static_cast<uint64_t>(f - k)));
        std::swap(pool_[k], pool_[j]);
      }
    }

    int best_feature = -1;
    int best_bin = -1;
    double best_gain = 0.0;
    const double parent_obj = Objective(node_g, node_h);

    for (size_t jj = 0; jj < n_eval; ++jj) {
      const size_t j = static_cast<size_t>(pool_[jj]);
      const int nb = x_.num_bins(j);
      if (nb < 2) continue;
      const std::vector<uint8_t>& codes = x_.codes(j);
      // hist_ is all-zero on entry (the scan below clears it). For nodes
      // smaller than the bin count, mark the occupied bins in occupied_
      // (all-zero on entry too) so only those are visited.
      const bool sparse = (end - start) < static_cast<size_t>(nb);
      if (sparse) {
        for (size_t k = start; k < end; ++k) {
          const uint8_t c = codes[static_cast<size_t>(indices_[k])];
          occupied_[c / 64] |= uint64_t{1} << (c % 64);
          BinStat& s = hist_[c];
          s.g += g_[k];
          s.h += h_[k];
        }
      } else {
        for (size_t k = start; k < end; ++k) {
          BinStat& s = hist_[codes[static_cast<size_t>(indices_[k])]];
          s.g += g_[k];
          s.h += h_[k];
        }
      }
      // Scan split points between bins (left = codes <= b), zeroing each
      // bin as it is passed so that hist_ and occupied_ are all-zero again
      // for the next feature. `offer` adds bin b to the left side and tests
      // the split; it returns false once the right side is lighter than
      // min_child_weight, which every later bin leaves it too.
      double gl = 0.0;
      double hl = 0.0;
      auto offer = [&](size_t b, const BinStat& s) {
        gl += s.g;
        hl += s.h;
        if (hl < params_.min_child_weight) return true;
        const double hr = node_h - hl;
        if (hr < params_.min_child_weight) return false;
        const double gr = node_g - gl;
        const double gain =
            0.5 * (Objective(gl, hl) + Objective(gr, hr) - parent_obj) -
            params_.gamma;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(j);
          best_bin = static_cast<int>(b);
        }
        return true;
      };
      if (sparse) {
        // Only occupied bins matter: splitting between two occupied bins
        // is equivalent to splitting at the lower one, and splitting at the
        // highest leaves the right side empty.
        const size_t stop = HighestOccupied();
        bool open = true;
        for (size_t w = 0; w < kMaskWords; ++w) {
          for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
            const size_t b =
                w * 64 + static_cast<size_t>(std::countr_zero(bits));
            const BinStat s = std::exchange(hist_[b], BinStat{});
            if (open && b < stop) open = offer(b, s);
          }
          occupied_[w] = 0;
        }
      } else {
        const size_t nbins = static_cast<size_t>(nb);
        size_t b = 0;
        for (; b + 1 < nbins; ++b) {
          if (!offer(b, std::exchange(hist_[b], BinStat{}))) break;
        }
        std::fill(hist_.data() + b, hist_.data() + nbins, BinStat{});
      }
    }

    if (best_feature < 0 || best_gain <= 0.0) return node_id;

    // Partition the node's segment of (indices, g, h) order-preservingly.
    const std::vector<uint8_t>& codes =
        x_.codes(static_cast<size_t>(best_feature));
    double left_g = 0.0;
    double left_h = 0.0;
    size_t lo = start;
    size_t hi = 0;
    for (size_t k = start; k < end; ++k) {
      const int i = indices_[k];
      if (codes[static_cast<size_t>(i)] <= best_bin) {
        left_g += g_[k];
        left_h += h_[k];
        indices_[lo] = i;
        g_[lo] = g_[k];
        h_[lo] = h_[k];
        ++lo;
      } else {
        tmp_i_[hi] = i;
        tmp_g_[hi] = g_[k];
        tmp_h_[hi] = h_[k];
        ++hi;
      }
    }
    const size_t left_count = lo - start;
    if (left_count == 0 || left_count == end - start) return node_id;
    for (size_t k = 0; k < hi; ++k) {
      indices_[lo + k] = tmp_i_[k];
      g_[lo + k] = tmp_g_[k];
      h_[lo + k] = tmp_h_[k];
    }

    (*gain_)[static_cast<size_t>(best_feature)] += best_gain;
    const size_t mid = start + left_count;
    const int left_id = BuildNode(start, mid, left_g, left_h, depth + 1);
    const int right_id =
        BuildNode(mid, end, node_g - left_g, node_h - left_h, depth + 1);
    TreeNode& node = (*nodes_)[static_cast<size_t>(node_id)];
    node.feature = best_feature;
    node.threshold =
        x_.upper_edge(static_cast<size_t>(best_feature), best_bin);
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  const BinnedMatrix& x_;
  const TreeParams& params_;
  Rng* rng_;
  std::vector<TreeNode>* nodes_;
  std::vector<double>* gain_;

  std::vector<int> indices_;   // in-bag sample ids, node-ordered
  std::vector<double> g_;      // parallel to indices_
  std::vector<double> h_;      // parallel to indices_
  std::vector<int> tmp_i_;
  std::vector<double> tmp_g_;
  std::vector<double> tmp_h_;
  std::vector<BinStat> hist_;
  // The sparse path's occupied bins, one bit per bin code: walking it low
  // to high visits them in the order sorting a bin list would.
  uint64_t occupied_[kMaskWords] = {};
  std::vector<int> pool_;
  double total_g_ = 0.0;
  double total_h_ = 0.0;
};

}  // namespace

Status RegressionTree::Fit(const BinnedMatrix& x, const std::vector<double>& g,
                           const std::vector<double>& h,
                           const TreeParams& params, Rng* rng) {
  if (g.size() != x.rows() || h.size() != x.rows()) {
    return Status::InvalidArgument("gradient/hessian size mismatch");
  }
  if (params.colsample_per_node < 1.0 && rng == nullptr) {
    return Status::InvalidArgument(
        "column subsampling requires a random generator");
  }
  if (params.max_depth < 1) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  nodes_.clear();
  gain_.assign(x.cols(), 0.0);
  if (x.rows() == 0) {
    nodes_.push_back(TreeNode{});
    return Status::OK();
  }
  TreeBuilder builder(x, g, h, params, rng, &nodes_, &gain_);
  builder.Build();
  return Status::OK();
}

double RegressionTree::PredictOne(const ColMatrix& x, size_t row) const {
  if (nodes_.empty()) return 0.0;
  return nodes_[LeafIndex([&](size_t f) { return x.at(row, f); })].value;
}

RegressionTree RegressionTree::FromParts(std::vector<TreeNode> nodes,
                                         std::vector<double> gain) {
  RegressionTree tree;
  tree.nodes_ = std::move(nodes);
  tree.gain_ = std::move(gain);
  return tree;
}

int RegressionTree::NumLeaves() const {
  int leaves = 0;
  for (const TreeNode& node : nodes_) leaves += (node.feature < 0);
  return leaves;
}

int RegressionTree::Depth() const {
  if (nodes_.empty()) return 0;
  std::vector<int> depth(nodes_.size(), 0);
  int max_depth = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& node = nodes_[i];
    if (node.feature >= 0) {
      depth[static_cast<size_t>(node.left)] = depth[i] + 1;
      depth[static_cast<size_t>(node.right)] = depth[i] + 1;
      max_depth = std::max(max_depth, depth[i] + 1);
    }
  }
  return max_depth;
}

std::vector<double> EnsembleGainImportances(
    const std::vector<RegressionTree>& trees, size_t num_features) {
  std::vector<double> imp(num_features, 0.0);
  for (const RegressionTree& tree : trees) {
    const std::vector<double>& gain = tree.gain_importance();
    for (size_t j = 0; j < gain.size() && j < imp.size(); ++j) {
      imp[j] += gain[j];
    }
  }
  double total = 0.0;
  for (double v : imp) total += v;
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

}  // namespace fab::ml
