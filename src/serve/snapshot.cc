#include "serve/snapshot.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "ml/tree.h"
#include "util/check.h"

namespace fab::serve {

namespace {

constexpr char kMagic[8] = {'F', 'A', 'B', 'S', 'N', 'A', 'P', '\0'};

/// Append-only little-endian encoder.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void Bytes(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }
  void U32(uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    Bytes(b, 4);
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void U64(uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    Bytes(b, 8);
  }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void F64Vec(const std::vector<double>& v) {
    U64(v.size());
    for (double d : v) F64(d);
  }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian decoder over an in-memory buffer.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  Status Bytes(void* out, size_t n) {
    // Cursor-past-end would be a Reader bug, not corrupt input; the
    // truncation case below handles hostile lengths via Status.
    FAB_DCHECK(pos_ <= bytes_.size())
        << "reader cursor " << pos_ << " past buffer " << bytes_.size();
    if (n > bytes_.size() - pos_) {
      return Status::InvalidArgument("corrupt snapshot: truncated");
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status U32(uint32_t* out) {
    unsigned char b[4];
    FAB_RETURN_IF_ERROR(Bytes(b, 4));
    *out = 0;
    for (int i = 0; i < 4; ++i) *out |= static_cast<uint32_t>(b[i]) << (8 * i);
    return Status::OK();
  }
  Status I32(int32_t* out) {
    uint32_t u;
    FAB_RETURN_IF_ERROR(U32(&u));
    *out = static_cast<int32_t>(u);
    return Status::OK();
  }
  Status U64(uint64_t* out) {
    unsigned char b[8];
    FAB_RETURN_IF_ERROR(Bytes(b, 8));
    *out = 0;
    for (int i = 0; i < 8; ++i) *out |= static_cast<uint64_t>(b[i]) << (8 * i);
    return Status::OK();
  }
  Status F64(double* out) {
    uint64_t u;
    FAB_RETURN_IF_ERROR(U64(&u));
    *out = std::bit_cast<double>(u);
    return Status::OK();
  }
  /// Length-prefixed double vector; the length is checked against the
  /// remaining buffer so corrupt lengths can't force huge allocations.
  Status F64Vec(std::vector<double>* out) {
    uint64_t n;
    FAB_RETURN_IF_ERROR(U64(&n));
    if (n > Remaining() / 8) {
      return Status::InvalidArgument("corrupt snapshot: bad vector length");
    }
    out->resize(n);
    for (double& d : *out) FAB_RETURN_IF_ERROR(F64(&d));
    return Status::OK();
  }
  size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

// --- Tree payload. ----------------------------------------------------------

void EncodeTree(const ml::RegressionTree& tree, Writer* w) {
  const std::vector<ml::TreeNode>& nodes = tree.nodes();
  w->U64(nodes.size());
  for (const ml::TreeNode& node : nodes) {
    w->I32(node.feature);
    w->F64(node.threshold);
    w->I32(node.left);
    w->I32(node.right);
    w->F64(node.value);
    w->F64(node.cover);
  }
  w->F64Vec(tree.gain_importance());
}

Status DecodeTree(Reader* r, size_t num_features, ml::RegressionTree* out) {
  uint64_t count;
  FAB_RETURN_IF_ERROR(r->U64(&count));
  // Every node costs at least 36 encoded bytes; reject counts the
  // remaining buffer cannot possibly hold.
  if (count > r->Remaining() / 36) {
    return Status::InvalidArgument("corrupt snapshot: bad node count");
  }
  std::vector<ml::TreeNode> nodes(count);
  std::vector<bool> has_parent(count, false);
  for (size_t i = 0; i < nodes.size(); ++i) {
    ml::TreeNode& node = nodes[i];
    FAB_RETURN_IF_ERROR(r->I32(&node.feature));
    FAB_RETURN_IF_ERROR(r->F64(&node.threshold));
    FAB_RETURN_IF_ERROR(r->I32(&node.left));
    FAB_RETURN_IF_ERROR(r->I32(&node.right));
    FAB_RETURN_IF_ERROR(r->F64(&node.value));
    FAB_RETURN_IF_ERROR(r->F64(&node.cover));
    if (node.feature >= static_cast<int>(num_features)) {
      return Status::InvalidArgument("corrupt snapshot: feature out of range");
    }
    // A NaN threshold sends every row right; a non-finite value or cover
    // would reach forecasts or SHAP weights. An infinite threshold stays
    // legal: a split on data holding -inf can produce one.
    if (std::isnan(node.threshold) || !std::isfinite(node.value) ||
        !std::isfinite(node.cover)) {
      return Status::InvalidArgument("corrupt snapshot: non-finite node");
    }
    if (node.feature < 0) continue;  // leaf: its children are never read
    // The encoder writes each node before its children, so a child must
    // come after its parent and have no other parent. A back-edge would
    // never let traversal end; a shared child would make flattening copy
    // its subtree once per path to it.
    for (const int child : {node.left, node.right}) {
      if (child < 0 || static_cast<size_t>(child) <= i ||
          static_cast<uint64_t>(child) >= count ||
          has_parent[static_cast<size_t>(child)]) {
        return Status::InvalidArgument("corrupt snapshot: bad child index");
      }
      has_parent[static_cast<size_t>(child)] = true;
    }
  }
  std::vector<double> gain;
  FAB_RETURN_IF_ERROR(r->F64Vec(&gain));
  *out = ml::RegressionTree::FromParts(std::move(nodes), std::move(gain));
  return Status::OK();
}

// --- Random forest. ---------------------------------------------------------

void EncodeForest(const ml::RandomForestRegressor& rf, Writer* w) {
  const ml::ForestParams& p = rf.params();
  w->I32(p.n_trees);
  w->I32(p.max_depth);
  w->F64(p.min_samples_leaf);
  w->F64(p.min_samples_split);
  w->F64(p.max_features);
  w->F64(p.bootstrap_fraction);
  w->U64(p.seed);
  w->I32(p.num_threads);
  w->U64(rf.num_features());
  w->U64(rf.trees().size());
  for (const ml::RegressionTree& tree : rf.trees()) EncodeTree(tree, w);
}

Result<std::unique_ptr<ml::Regressor>> DecodeForest(Reader* r) {
  ml::ForestParams p;
  FAB_RETURN_IF_ERROR(r->I32(&p.n_trees));
  FAB_RETURN_IF_ERROR(r->I32(&p.max_depth));
  FAB_RETURN_IF_ERROR(r->F64(&p.min_samples_leaf));
  FAB_RETURN_IF_ERROR(r->F64(&p.min_samples_split));
  FAB_RETURN_IF_ERROR(r->F64(&p.max_features));
  FAB_RETURN_IF_ERROR(r->F64(&p.bootstrap_fraction));
  FAB_RETURN_IF_ERROR(r->U64(&p.seed));
  FAB_RETURN_IF_ERROR(r->I32(&p.num_threads));
  uint64_t num_features, tree_count;
  FAB_RETURN_IF_ERROR(r->U64(&num_features));
  FAB_RETURN_IF_ERROR(r->U64(&tree_count));
  if (tree_count > r->Remaining() / 8) {
    return Status::InvalidArgument("corrupt snapshot: bad tree count");
  }
  std::vector<ml::RegressionTree> trees(tree_count);
  for (ml::RegressionTree& tree : trees) {
    FAB_RETURN_IF_ERROR(DecodeTree(r, num_features, &tree));
  }
  return std::unique_ptr<ml::Regressor>(
      std::make_unique<ml::RandomForestRegressor>(
          ml::RandomForestRegressor::FromFitted(p, std::move(trees),
                                                num_features)));
}

// --- GBDT. ------------------------------------------------------------------

void EncodeGbdt(const ml::GbdtRegressor& gbdt, Writer* w) {
  const ml::GbdtParams& p = gbdt.params();
  w->I32(p.n_rounds);
  w->F64(p.learning_rate);
  w->I32(p.max_depth);
  w->F64(p.lambda);
  w->F64(p.gamma);
  w->F64(p.min_child_weight);
  w->F64(p.subsample);
  w->F64(p.colsample);
  w->U64(p.seed);
  w->F64(gbdt.base_score());
  w->U64(gbdt.num_features());
  w->U64(gbdt.trees().size());
  for (const ml::RegressionTree& tree : gbdt.trees()) EncodeTree(tree, w);
}

Result<std::unique_ptr<ml::Regressor>> DecodeGbdt(Reader* r) {
  ml::GbdtParams p;
  FAB_RETURN_IF_ERROR(r->I32(&p.n_rounds));
  FAB_RETURN_IF_ERROR(r->F64(&p.learning_rate));
  FAB_RETURN_IF_ERROR(r->I32(&p.max_depth));
  FAB_RETURN_IF_ERROR(r->F64(&p.lambda));
  FAB_RETURN_IF_ERROR(r->F64(&p.gamma));
  FAB_RETURN_IF_ERROR(r->F64(&p.min_child_weight));
  FAB_RETURN_IF_ERROR(r->F64(&p.subsample));
  FAB_RETURN_IF_ERROR(r->F64(&p.colsample));
  FAB_RETURN_IF_ERROR(r->U64(&p.seed));
  double base_score = 0.0;
  FAB_RETURN_IF_ERROR(r->F64(&base_score));
  uint64_t num_features, tree_count;
  FAB_RETURN_IF_ERROR(r->U64(&num_features));
  FAB_RETURN_IF_ERROR(r->U64(&tree_count));
  if (tree_count > r->Remaining() / 8) {
    return Status::InvalidArgument("corrupt snapshot: bad tree count");
  }
  std::vector<ml::RegressionTree> trees(tree_count);
  for (ml::RegressionTree& tree : trees) {
    FAB_RETURN_IF_ERROR(DecodeTree(r, num_features, &tree));
  }
  return std::unique_ptr<ml::Regressor>(std::make_unique<ml::GbdtRegressor>(
      ml::GbdtRegressor::FromFitted(p, std::move(trees), base_score,
                                    num_features)));
}

// --- MLP. -------------------------------------------------------------------

void EncodeMlp(const ml::MlpRegressor& mlp, Writer* w) {
  const ml::MlpParams& p = mlp.params();
  w->U64(p.hidden.size());
  for (int h : p.hidden) w->I32(h);
  w->I32(p.epochs);
  w->I32(p.batch_size);
  w->F64(p.learning_rate);
  w->F64(p.l2);
  w->U64(p.seed);
  w->F64(p.validation_fraction);
  w->I32(p.patience);
  w->U64(mlp.layers().size());
  for (const ml::MlpRegressor::Layer& layer : mlp.layers()) {
    w->I32(layer.in);
    w->I32(layer.out);
    w->F64Vec(layer.w);
    w->F64Vec(layer.b);
  }
  w->F64Vec(mlp.x_mean());
  w->F64Vec(mlp.x_std());
  w->F64(mlp.y_mean());
  w->F64(mlp.y_std());
}

Result<std::unique_ptr<ml::Regressor>> DecodeMlp(Reader* r) {
  ml::MlpParams p;
  uint64_t hidden_count;
  FAB_RETURN_IF_ERROR(r->U64(&hidden_count));
  if (hidden_count > r->Remaining() / 4) {
    return Status::InvalidArgument("corrupt snapshot: bad hidden count");
  }
  p.hidden.resize(hidden_count);
  for (int& h : p.hidden) FAB_RETURN_IF_ERROR(r->I32(&h));
  FAB_RETURN_IF_ERROR(r->I32(&p.epochs));
  FAB_RETURN_IF_ERROR(r->I32(&p.batch_size));
  FAB_RETURN_IF_ERROR(r->F64(&p.learning_rate));
  FAB_RETURN_IF_ERROR(r->F64(&p.l2));
  FAB_RETURN_IF_ERROR(r->U64(&p.seed));
  FAB_RETURN_IF_ERROR(r->F64(&p.validation_fraction));
  FAB_RETURN_IF_ERROR(r->I32(&p.patience));
  uint64_t layer_count;
  FAB_RETURN_IF_ERROR(r->U64(&layer_count));
  if (layer_count > r->Remaining() / 24) {
    return Status::InvalidArgument("corrupt snapshot: bad layer count");
  }
  std::vector<ml::MlpRegressor::Layer> layers(layer_count);
  for (ml::MlpRegressor::Layer& layer : layers) {
    FAB_RETURN_IF_ERROR(r->I32(&layer.in));
    FAB_RETURN_IF_ERROR(r->I32(&layer.out));
    FAB_RETURN_IF_ERROR(r->F64Vec(&layer.w));
    FAB_RETURN_IF_ERROR(r->F64Vec(&layer.b));
    if (layer.in < 0 || layer.out < 0 ||
        layer.w.size() !=
            static_cast<size_t>(layer.in) * static_cast<size_t>(layer.out) ||
        layer.b.size() != static_cast<size_t>(layer.out)) {
      return Status::InvalidArgument("corrupt snapshot: layer shape mismatch");
    }
  }
  std::vector<double> x_mean, x_std;
  FAB_RETURN_IF_ERROR(r->F64Vec(&x_mean));
  FAB_RETURN_IF_ERROR(r->F64Vec(&x_std));
  double y_mean = 0.0, y_std = 1.0;
  FAB_RETURN_IF_ERROR(r->F64(&y_mean));
  FAB_RETURN_IF_ERROR(r->F64(&y_std));
  if (x_mean.size() != x_std.size()) {
    return Status::InvalidArgument("corrupt snapshot: x stats mismatch");
  }
  return std::unique_ptr<ml::Regressor>(std::make_unique<ml::MlpRegressor>(
      ml::MlpRegressor::FromFitted(p, std::move(layers), std::move(x_mean),
                                   std::move(x_std), y_mean, y_std)));
}

Status ParseHeader(Reader* r, SnapshotInfo* info) {
  char magic[8];
  FAB_RETURN_IF_ERROR(r->Bytes(magic, 8));
  if (std::memcmp(magic, kMagic, 8) != 0) {
    return Status::InvalidArgument("corrupt snapshot: bad magic");
  }
  FAB_RETURN_IF_ERROR(r->U32(&info->version));
  if (info->version != SnapshotCodec::kFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(info->version));
  }
  uint32_t kind;
  FAB_RETURN_IF_ERROR(r->U32(&kind));
  if (kind > static_cast<uint32_t>(ModelKind::kMlp)) {
    return Status::InvalidArgument("corrupt snapshot: unknown model kind");
  }
  info->kind = static_cast<ModelKind>(kind);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open snapshot: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IoError("cannot read snapshot: " + path);
  }
  return bytes;
}

}  // namespace

Result<ModelKind> KindOf(const ml::Regressor& model) {
  if (dynamic_cast<const ml::RandomForestRegressor*>(&model) != nullptr) {
    return ModelKind::kRandomForest;
  }
  if (dynamic_cast<const ml::GbdtRegressor*>(&model) != nullptr) {
    return ModelKind::kGbdt;
  }
  if (dynamic_cast<const ml::MlpRegressor*>(&model) != nullptr) {
    return ModelKind::kMlp;
  }
  return Status::InvalidArgument("no snapshot codec for model: " +
                                 model.name());
}

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRandomForest:
      return "rf";
    case ModelKind::kGbdt:
      return "xgb";
    case ModelKind::kMlp:
      return "mlp";
  }
  return "?";
}

Result<std::string> SnapshotCodec::Encode(const ml::Regressor& model) {
  FAB_ASSIGN_OR_RETURN(ModelKind kind, KindOf(model));
  std::string bytes;
  Writer w(&bytes);
  w.Bytes(kMagic, 8);
  w.U32(kFormatVersion);
  w.U32(static_cast<uint32_t>(kind));
  switch (kind) {
    case ModelKind::kRandomForest:
      EncodeForest(static_cast<const ml::RandomForestRegressor&>(model), &w);
      break;
    case ModelKind::kGbdt:
      EncodeGbdt(static_cast<const ml::GbdtRegressor&>(model), &w);
      break;
    case ModelKind::kMlp:
      EncodeMlp(static_cast<const ml::MlpRegressor&>(model), &w);
      break;
  }
  return bytes;
}

Result<std::unique_ptr<ml::Regressor>> SnapshotCodec::Decode(
    const std::string& bytes) {
  Reader r(bytes);
  SnapshotInfo info;
  FAB_RETURN_IF_ERROR(ParseHeader(&r, &info));
  switch (info.kind) {
    case ModelKind::kRandomForest:
      return DecodeForest(&r);
    case ModelKind::kGbdt:
      return DecodeGbdt(&r);
    case ModelKind::kMlp:
      return DecodeMlp(&r);
  }
  return Status::Internal("unreachable snapshot kind");
}

Status SnapshotCodec::Save(const ml::Regressor& model,
                           const std::string& path) {
  FAB_ASSIGN_OR_RETURN(std::string bytes, Encode(model));
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot write snapshot: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return Status::IoError("short write: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("cannot publish snapshot " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<std::unique_ptr<ml::Regressor>> SnapshotCodec::Load(
    const std::string& path) {
  FAB_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return Decode(bytes);
}

Result<SnapshotInfo> SnapshotCodec::Probe(const std::string& path) {
  FAB_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  Reader r(bytes);
  SnapshotInfo info;
  FAB_RETURN_IF_ERROR(ParseHeader(&r, &info));
  return info;
}

}  // namespace fab::serve
