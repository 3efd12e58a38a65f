#include "serve/servable.h"

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"

namespace fab::serve {

Result<std::shared_ptr<const Servable>> Servable::Wrap(
    std::unique_ptr<ml::Regressor> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("cannot wrap a null model");
  }
  FlatForest flat;
  size_t num_features = 0;
  if (const auto* rf =
          dynamic_cast<const ml::RandomForestRegressor*>(model.get())) {
    num_features = rf->num_features();
    FAB_ASSIGN_OR_RETURN(flat, FlatForest::FromRegressor(*model));
  } else if (const auto* gbdt =
                 dynamic_cast<const ml::GbdtRegressor*>(model.get())) {
    num_features = gbdt->num_features();
    FAB_ASSIGN_OR_RETURN(flat, FlatForest::FromRegressor(*model));
  } else if (const auto* mlp =
                 dynamic_cast<const ml::MlpRegressor*>(model.get())) {
    num_features = mlp->x_mean().size();
  }
  // make_shared cannot reach the private constructor; ownership transfers to
  // the shared_ptr on the same line.
  return std::shared_ptr<const Servable>(  // fablint:allow(hygiene-new-delete)
      new Servable(std::move(model), std::move(flat), num_features));
}

std::vector<double> Servable::Predict(const ml::ColMatrix& x) const {
  if (flattened()) return flat_.Predict(x);
  return model_->Predict(x);
}

}  // namespace fab::serve
