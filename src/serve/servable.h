#ifndef FAB_SERVE_SERVABLE_H_
#define FAB_SERVE_SERVABLE_H_

#include <memory>
#include <string>

#include "ml/estimator.h"
#include "serve/flat_forest.h"
#include "util/status.h"

namespace fab::serve {

/// An immutable, ready-to-serve model: the fitted regressor plus (for
/// tree ensembles) its flattened inference kernel. Handed out as
/// `shared_ptr<const Servable>` so a registry hot-swap never invalidates
/// a model an in-flight batch is still using.
class Servable {
 public:
  /// Wraps a fitted model, pre-building the flat kernel when the model is
  /// a tree ensemble. Models the flattener does not know (e.g. the MLP)
  /// are served through the virtual Predict path.
  [[nodiscard]] static Result<std::shared_ptr<const Servable>> Wrap(
      std::unique_ptr<ml::Regressor> model);

  /// Batched predictions — the flat kernel when available, else the
  /// model's own (possibly overridden) Predict.
  std::vector<double> Predict(const ml::ColMatrix& x) const;

  const ml::Regressor& model() const { return *model_; }
  bool flattened() const { return !flat_.empty(); }
  const FlatForest& flat() const { return flat_; }

  /// Feature count the model was fitted on (0 when unknown).
  size_t num_features() const { return num_features_; }

 private:
  Servable(std::unique_ptr<ml::Regressor> model, FlatForest flat,
           size_t num_features)
      : model_(std::move(model)),
        flat_(std::move(flat)),
        num_features_(num_features) {}

  std::unique_ptr<ml::Regressor> model_;
  FlatForest flat_;
  size_t num_features_ = 0;
};

}  // namespace fab::serve

#endif  // FAB_SERVE_SERVABLE_H_
