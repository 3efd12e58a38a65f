#include "serve/registry.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

#include "serve/snapshot.h"

namespace fab::serve {

namespace {
constexpr char kExtension[] = ".fabsnap";
}  // namespace

std::string ModelKey::ToString() const {
  return period + "/w" + std::to_string(window) + "/" + model;
}

std::string SnapshotFileName(const ModelKey& key) {
  return key.period + "_w" + std::to_string(key.window) + "_" + key.model +
         kExtension;
}

Result<ModelKey> ParseSnapshotFileName(const std::string& filename) {
  const std::string ext(kExtension);
  if (filename.size() <= ext.size() ||
      filename.compare(filename.size() - ext.size(), ext.size(), ext) != 0) {
    return Status::InvalidArgument("not a snapshot file: " + filename);
  }
  const std::string stem = filename.substr(0, filename.size() - ext.size());
  const size_t model_sep = stem.rfind('_');
  if (model_sep == std::string::npos || model_sep + 1 >= stem.size()) {
    return Status::InvalidArgument("malformed snapshot name: " + filename);
  }
  const size_t window_sep = stem.rfind("_w", model_sep - 1);
  if (window_sep == std::string::npos || window_sep == 0) {
    return Status::InvalidArgument("malformed snapshot name: " + filename);
  }
  const std::string digits =
      stem.substr(window_sep + 2, model_sep - window_sep - 2);
  if (digits.empty()) {
    return Status::InvalidArgument("malformed snapshot name: " + filename);
  }
  for (char c : digits) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      return Status::InvalidArgument("malformed snapshot name: " + filename);
    }
  }
  ModelKey key;
  key.period = stem.substr(0, window_sep);
  key.window = std::stoi(digits);
  key.model = stem.substr(model_sep + 1);
  return key;
}

std::string ModelRegistry::PathFor(const ModelKey& key) const {
  return root_ + "/" + SnapshotFileName(key);
}

Result<std::shared_ptr<const Servable>> ModelRegistry::LoadFromDisk(
    const ModelKey& key) const {
  FAB_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                       SnapshotCodec::Load(PathFor(key)));
  return Servable::Wrap(std::move(model));
}

Result<std::shared_ptr<const Servable>> ModelRegistry::Get(
    const ModelKey& key) {
  {
    util::MutexLock lock(mu_);
    auto it = loaded_.find(key);
    // A shared_ptr copy made while the lock is held — never a reference
    // into loaded_, which a concurrent Reload could invalidate.
    if (it != loaded_.end()) return it->second;
  }
  // Load outside the lock so a slow disk read doesn't stall lookups of
  // already-resident models.
  FAB_ASSIGN_OR_RETURN(std::shared_ptr<const Servable> servable,
                       LoadFromDisk(key));
  util::MutexLock lock(mu_);
  // A racing loader may have won; keep the first one in.
  return loaded_.emplace(key, std::move(servable)).first->second;
}

Status ModelRegistry::Reload(const ModelKey& key) {
  FAB_ASSIGN_OR_RETURN(std::shared_ptr<const Servable> fresh,
                       LoadFromDisk(key));
  util::MutexLock lock(mu_);
  loaded_[key] = std::move(fresh);  // atomic swap under the lock
  return Status::OK();
}

Status ModelRegistry::Put(const ModelKey& key,
                          std::unique_ptr<ml::Regressor> model) {
  FAB_ASSIGN_OR_RETURN(std::shared_ptr<const Servable> servable,
                       Servable::Wrap(std::move(model)));
  util::MutexLock lock(mu_);
  loaded_[key] = std::move(servable);
  return Status::OK();
}

Status ModelRegistry::Install(const ModelKey& key,
                              std::unique_ptr<ml::Regressor> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("cannot install a null model");
  }
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  if (ec) {
    return Status::IoError("cannot create registry dir: " + ec.message());
  }
  FAB_RETURN_IF_ERROR(SnapshotCodec::Save(*model, PathFor(key)));
  return Put(key, std::move(model));
}

std::vector<ModelKey> ModelRegistry::ListOnDisk() const {
  std::vector<ModelKey> keys;
  std::error_code ec;
  std::filesystem::directory_iterator it(root_, ec);
  if (ec) return keys;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    Result<ModelKey> key = ParseSnapshotFileName(entry.path().filename());
    if (key.ok()) keys.push_back(std::move(key).value());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace fab::serve
