#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/random.h"

namespace fab::ml {

namespace {

/// Adam state per parameter vector.
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;
  void Init(size_t n) {
    m.assign(n, 0.0);
    v.assign(n, 0.0);
  }
};

void AdamStep(std::vector<double>* params, const std::vector<double>& grad,
              AdamState* state, double lr, double l2, int t) {
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;
  const double bc1 = 1.0 - std::pow(kBeta1, t);
  const double bc2 = 1.0 - std::pow(kBeta2, t);
  for (size_t i = 0; i < params->size(); ++i) {
    const double g = grad[i] + l2 * (*params)[i];
    state->m[i] = kBeta1 * state->m[i] + (1.0 - kBeta1) * g;
    state->v[i] = kBeta2 * state->v[i] + (1.0 - kBeta2) * g * g;
    (*params)[i] -=
        lr * (state->m[i] / bc1) / (std::sqrt(state->v[i] / bc2) + kEps);
  }
}

}  // namespace

Status MlpRegressor::Fit(const ColMatrix& x, const std::vector<double>& y) {
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("x/y size mismatch");
  }
  if (x.rows() < 10) {
    return Status::InvalidArgument("need at least 10 rows");
  }
  if (params_.epochs < 1 || params_.batch_size < 1) {
    return Status::InvalidArgument("epochs and batch_size must be >= 1");
  }
  for (int h : params_.hidden) {
    if (h < 1) return Status::InvalidArgument("hidden widths must be >= 1");
  }
  const size_t n = x.rows();
  const size_t f = x.cols();

  // --- Standardize. ---------------------------------------------------------
  x_mean_.assign(f, 0.0);
  x_std_.assign(f, 1.0);
  for (size_t j = 0; j < f; ++j) {
    const std::span<const double> col = x.column(j);
    double mean = 0.0;
    for (double v : col) mean += v;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (double v : col) var += (v - mean) * (v - mean);
    var /= static_cast<double>(n);
    x_mean_[j] = mean;
    x_std_[j] = var > 1e-24 ? std::sqrt(var) : 1.0;
  }
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);
  double y_var = 0.0;
  for (double v : y) y_var += (v - y_mean_) * (v - y_mean_);
  y_var /= static_cast<double>(n);
  y_std_ = y_var > 1e-24 ? std::sqrt(y_var) : 1.0;

  // --- Initialize layers (He init). ------------------------------------------
  Rng rng(params_.seed);
  std::vector<int> widths;
  widths.push_back(static_cast<int>(f));
  for (int h : params_.hidden) widths.push_back(h);
  widths.push_back(1);
  layers_.clear();
  for (size_t l = 0; l + 1 < widths.size(); ++l) {
    Layer layer;
    layer.in = widths[l];
    layer.out = widths[l + 1];
    layer.w.resize(static_cast<size_t>(layer.in) * layer.out);
    layer.b.assign(static_cast<size_t>(layer.out), 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.w) w = scale * rng.Normal();
    layers_.push_back(std::move(layer));
  }

  // --- Split train/validation for early stopping. ----------------------------
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  size_t n_valid = params_.validation_fraction > 0.0
                       ? std::max<size_t>(
                             1, static_cast<size_t>(params_.validation_fraction *
                                                    static_cast<double>(n)))
                       : 0;
  if (n_valid >= n / 2) n_valid = 0;  // too small to spare a holdout
  const std::vector<int> valid_rows(order.begin(),
                                    order.begin() + static_cast<long>(n_valid));
  std::vector<int> train_rows(order.begin() + static_cast<long>(n_valid),
                              order.end());

  // Pre-standardized row-major training copies (cache-friendly batches).
  auto standardized_row = [&](int row, std::vector<double>* out) {
    out->resize(f);
    for (size_t j = 0; j < f; ++j) {
      (*out)[j] = (x.at(static_cast<size_t>(row), j) - x_mean_[j]) / x_std_[j];
    }
  };

  // --- Adam optimizer state. --------------------------------------------------
  std::vector<AdamState> w_state(layers_.size()), b_state(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    w_state[l].Init(layers_[l].w.size());
    b_state[l].Init(layers_[l].b.size());
  }
  std::vector<std::vector<double>> w_grad(layers_.size()),
      b_grad(layers_.size());

  std::vector<std::vector<double>> activations;
  std::vector<std::vector<double>> deltas(layers_.size());
  std::vector<double> input;

  auto validation_mse = [&]() {
    if (n_valid == 0) return 0.0;
    double acc = 0.0;
    for (int row : valid_rows) {
      const double pred = PredictOne(x, static_cast<size_t>(row));
      const double d = pred - y[static_cast<size_t>(row)];
      acc += d * d;
    }
    return acc / static_cast<double>(n_valid);
  };

  std::vector<Layer> best_layers = layers_;
  double best_valid = n_valid > 0 ? validation_mse() : 0.0;
  int since_best = 0;
  int adam_t = 0;

  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    rng.Shuffle(train_rows);
    for (size_t start = 0; start < train_rows.size();
         start += static_cast<size_t>(params_.batch_size)) {
      const size_t end = std::min(
          train_rows.size(), start + static_cast<size_t>(params_.batch_size));
      for (size_t l = 0; l < layers_.size(); ++l) {
        w_grad[l].assign(layers_[l].w.size(), 0.0);
        b_grad[l].assign(layers_[l].b.size(), 0.0);
      }
      for (size_t k = start; k < end; ++k) {
        const int row = train_rows[k];
        standardized_row(row, &input);
        const double pred = Forward(input, &activations);
        const double target =
            (y[static_cast<size_t>(row)] - y_mean_) / y_std_;
        // Backprop squared loss d/dpred 0.5*(pred - target)^2.
        double out_delta = pred - target;
        for (size_t l = layers_.size(); l-- > 0;) {
          const Layer& layer = layers_[l];
          std::vector<double>& delta = deltas[l];
          if (l + 1 == layers_.size()) {
            delta.assign(1, out_delta);
          }
          const std::vector<double>& a_in =
              l == 0 ? input : activations[l - 1];
          for (int o = 0; o < layer.out; ++o) {
            const double d = delta[static_cast<size_t>(o)];
            if (d == 0.0) continue;
            b_grad[l][static_cast<size_t>(o)] += d;
            double* wg =
                &w_grad[l][static_cast<size_t>(o) * static_cast<size_t>(layer.in)];
            for (int i = 0; i < layer.in; ++i) {
              wg[i] += d * a_in[static_cast<size_t>(i)];
            }
          }
          if (l > 0) {
            // Delta for the previous layer through this layer's weights,
            // gated by the previous layer's ReLU.
            std::vector<double>& prev = deltas[l - 1];
            prev.assign(static_cast<size_t>(layer.in), 0.0);
            for (int o = 0; o < layer.out; ++o) {
              const double d = delta[static_cast<size_t>(o)];
              if (d == 0.0) continue;
              const double* w =
                  &layer.w[static_cast<size_t>(o) * static_cast<size_t>(layer.in)];
              for (int i = 0; i < layer.in; ++i) {
                prev[static_cast<size_t>(i)] += d * w[i];
              }
            }
            const std::vector<double>& act = activations[l - 1];
            for (int i = 0; i < layer.in; ++i) {
              if (act[static_cast<size_t>(i)] <= 0.0) {
                prev[static_cast<size_t>(i)] = 0.0;
              }
            }
          }
        }
      }
      const double inv = 1.0 / static_cast<double>(end - start);
      ++adam_t;
      for (size_t l = 0; l < layers_.size(); ++l) {
        for (double& g : w_grad[l]) g *= inv;
        for (double& g : b_grad[l]) g *= inv;
        AdamStep(&layers_[l].w, w_grad[l], &w_state[l], params_.learning_rate,
                 params_.l2, adam_t);
        AdamStep(&layers_[l].b, b_grad[l], &b_state[l], params_.learning_rate,
                 0.0, adam_t);
      }
    }
    if (n_valid > 0) {
      const double mse = validation_mse();
      if (mse < best_valid) {
        best_valid = mse;
        best_layers = layers_;
        since_best = 0;
      } else if (++since_best >= params_.patience) {
        break;
      }
    }
  }
  if (n_valid > 0) layers_ = best_layers;
  return Status::OK();
}

double MlpRegressor::Forward(
    const std::vector<double>& input,
    std::vector<std::vector<double>>* activations) const {
  activations->resize(layers_.size());
  const std::vector<double>* current = &input;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double>& out = (*activations)[l];
    out.assign(static_cast<size_t>(layer.out), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      const double* w =
          &layer.w[static_cast<size_t>(o) * static_cast<size_t>(layer.in)];
      double acc = layer.b[static_cast<size_t>(o)];
      for (int i = 0; i < layer.in; ++i) {
        acc += w[i] * (*current)[static_cast<size_t>(i)];
      }
      // ReLU on hidden layers, identity on the output layer.
      out[static_cast<size_t>(o)] =
          (l + 1 == layers_.size()) ? acc : std::max(0.0, acc);
    }
    current = &out;
  }
  return (*activations).back()[0];
}

double MlpRegressor::PredictOne(const ColMatrix& x, size_t row) const {
  if (layers_.empty()) return 0.0;
  std::vector<double> input(x.cols());
  for (size_t j = 0; j < x.cols(); ++j) {
    input[j] = (x.at(row, j) - x_mean_[j]) / x_std_[j];
  }
  std::vector<std::vector<double>> activations;
  return Forward(input, &activations) * y_std_ + y_mean_;
}

MlpRegressor MlpRegressor::FromFitted(const MlpParams& params,
                                      std::vector<Layer> layers,
                                      std::vector<double> x_mean,
                                      std::vector<double> x_std, double y_mean,
                                      double y_std) {
  MlpRegressor mlp(params);
  mlp.layers_ = std::move(layers);
  mlp.x_mean_ = std::move(x_mean);
  mlp.x_std_ = std::move(x_std);
  mlp.y_mean_ = y_mean;
  mlp.y_std_ = y_std;
  return mlp;
}

std::unique_ptr<Regressor> MlpRegressor::CloneUnfitted() const {
  return std::make_unique<MlpRegressor>(params_);
}

std::vector<double> MlpRegressor::FeatureImportances() const {
  if (layers_.empty()) return {};
  const Layer& first = layers_.front();
  std::vector<double> imp(static_cast<size_t>(first.in), 0.0);
  for (int o = 0; o < first.out; ++o) {
    const double* w =
        &first.w[static_cast<size_t>(o) * static_cast<size_t>(first.in)];
    for (int i = 0; i < first.in; ++i) {
      imp[static_cast<size_t>(i)] += std::fabs(w[i]);
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
