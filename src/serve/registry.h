#ifndef FAB_SERVE_REGISTRY_H_
#define FAB_SERVE_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/servable.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fab::serve {

/// Identity of a deployed model: which study period and forecast window
/// it was fine-tuned for, and which estimator family it is.
struct ModelKey {
  std::string period;  // e.g. "2017" or "2019"
  int window = 1;      // forecast horizon in days
  std::string model;   // "rf" | "xgb" | "mlp"

  bool operator<(const ModelKey& other) const {
    if (period != other.period) return period < other.period;
    if (window != other.window) return window < other.window;
    return model < other.model;
  }
  bool operator==(const ModelKey& other) const {
    return period == other.period && window == other.window &&
           model == other.model;
  }
  std::string ToString() const;
};

/// Snapshot file name for a key: "<period>_w<window>_<model>.fabsnap".
std::string SnapshotFileName(const ModelKey& key);

/// Inverse of SnapshotFileName; fails on names it did not produce.
[[nodiscard]] Result<ModelKey> ParseSnapshotFileName(const std::string& filename);

/// Thread-safe catalogue of servable models backed by a snapshot
/// directory (typically `<FAB_CACHE_DIR>/seed<seed>_<mode>/models/`).
///
/// `Get` lazily loads a key's snapshot on first use and memoizes the
/// Servable; `Reload` re-reads the file and atomically swaps the entry,
/// so readers either see the old model or the new one, never a torn
/// state — and in-flight batches keep the old model alive through their
/// shared_ptr until they finish.
///
/// Escape discipline (compiler-checked via FAB_GUARDED_BY under
/// `-DFAB_THREAD_SAFETY=ON`): no method ever returns a reference or
/// pointer into the guarded map — accessors hand out shared_ptr *copies*
/// taken under the lock, so a concurrent Reload can never leave a caller
/// holding a dangling handle.
class ModelRegistry {
 public:
  explicit ModelRegistry(std::string root_dir) : root_(std::move(root_dir)) {}

  /// The servable for `key`, loading it from disk on first access.
  [[nodiscard]] Result<std::shared_ptr<const Servable>> Get(const ModelKey& key);

  /// Re-reads `key`'s snapshot from disk and hot-swaps the cached entry.
  [[nodiscard]] Status Reload(const ModelKey& key);

  /// Registers an already-fitted model under `key` (in memory only).
  [[nodiscard]] Status Put(const ModelKey& key, std::unique_ptr<ml::Regressor> model);

  /// Saves a fitted model into the registry directory AND registers it.
  [[nodiscard]] Status Install(const ModelKey& key, std::unique_ptr<ml::Regressor> model);

  /// Keys with a parseable snapshot file in the registry directory.
  std::vector<ModelKey> ListOnDisk() const;

  const std::string& root_dir() const { return root_; }
  std::string PathFor(const ModelKey& key) const;

 private:
  [[nodiscard]] Result<std::shared_ptr<const Servable>> LoadFromDisk(
      const ModelKey& key) const;

  const std::string root_;
  mutable util::Mutex mu_;
  std::map<ModelKey, std::shared_ptr<const Servable>> loaded_
      FAB_GUARDED_BY(mu_);
};

}  // namespace fab::serve

#endif  // FAB_SERVE_REGISTRY_H_
