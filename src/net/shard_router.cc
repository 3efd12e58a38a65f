#include "net/shard_router.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "util/check.h"

namespace fab::net {

uint64_t ShardHash(const serve::ModelKey& key) {
  // FNV-1a 64: tiny, dependency-free, and stable across platforms and
  // standard-library versions (std::hash guarantees neither). The
  // canonical string's pieces are hashed in order; none is copied.
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  const auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  char window[16];
  const char* window_end =
      std::to_chars(window, window + sizeof window, key.window).ptr;
  mix(key.period);
  mix("|");
  mix(std::string_view(window, static_cast<size_t>(window_end - window)));
  mix("|");
  mix(key.model);
  return h;
}

size_t ShardOf(const serve::ModelKey& key, size_t num_shards) {
  return num_shards == 0 ? 0 : static_cast<size_t>(ShardHash(key) %
                                                   static_cast<uint64_t>(
                                                       num_shards));
}

std::string ShardedRouter::LayoutPath(const std::string& registry_root) {
  return registry_root + "/shard_layout.txt";
}

ShardedRouter::ShardedRouter(serve::ModelRegistry* registry,
                             const ShardedRouterOptions& options)
    : registry_(registry), options_(options) {}

ShardedRouter::~ShardedRouter() { Shutdown(); }

Result<std::unique_ptr<ShardedRouter>> ShardedRouter::Create(
    serve::ModelRegistry* registry, const ShardedRouterOptions& options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("ShardedRouter requires a registry");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }

  // Validate-or-persist the layout: a shard-count change would silently
  // remap keys to different queues, so it must be an explicit operation.
  const std::string path = LayoutPath(registry->root_dir());
  std::ifstream in(path);
  if (in.good()) {
    std::string magic;
    std::string field;
    size_t persisted_shards = 0;
    int persisted_hash = 0;
    in >> magic >> field;
    if (magic != "fab-shard-layout" || field != "v1") {
      return Status::IoError("unrecognized shard layout file: " + path);
    }
    in >> field >> persisted_shards;
    if (field != "num_shards" || !in.good()) {
      return Status::IoError("malformed shard layout file: " + path);
    }
    in >> field >> persisted_hash;
    if (field != "hash_version" || in.fail()) {
      return Status::IoError("malformed shard layout file: " + path);
    }
    if (persisted_hash != kShardHashVersion) {
      return Status::FailedPrecondition(
          "shard layout " + path + " was written by hash version " +
          std::to_string(persisted_hash) + ", this build is version " +
          std::to_string(kShardHashVersion));
    }
    if (persisted_shards != options.num_shards) {
      return Status::FailedPrecondition(
          "shard count change rejected: layout " + path + " pins " +
          std::to_string(persisted_shards) + " shards, options request " +
          std::to_string(options.num_shards) +
          " (delete the layout file to reshard explicitly)");
    }
  } else {
    std::ofstream out(path);
    if (!out.good()) {
      return Status::IoError("cannot write shard layout file: " + path);
    }
    out << "fab-shard-layout v1\n"
        << "num_shards " << options.num_shards << "\n"
        << "hash_version " << kShardHashVersion << "\n";
    if (!out.good()) {
      return Status::IoError("failed writing shard layout file: " + path);
    }
  }

  std::unique_ptr<ShardedRouter> router(
      // fablint:allow(hygiene-new-delete) — private ctor, factory owns it.
      new ShardedRouter(registry, options));
  router->shards_.resize(options.num_shards);
  for (size_t i = 0; i < options.num_shards; ++i) {
    serve::BatchServerOptions server_options;
    server_options.num_threads = options.threads_per_shard;
    server_options.max_batch = options.max_batch;
    server_options.max_queue = options.max_shard_queue;
    server_options.shutdown_drain_ms = options.shutdown_drain_ms;
    Shard& shard = router->shards_[i];
    shard.server = std::make_unique<serve::BatchServer>(server_options);
    const std::string prefix = "net/shard" + std::to_string(i);
    shard.shed_full = &obs::GetCounter(prefix + "/shed_queue_full");
    shard.shed_slo = &obs::GetCounter(prefix + "/shed_slo");
  }
  return router;
}

size_t ShardedRouter::ShardFor(const serve::ModelKey& key) const {
  return ShardOf(key, shards_.size());
}

Status ShardedRouter::Admit(size_t index, size_t rows) const {
  const Shard& shard = shards_[index];
  const size_t depth = shard.server->QueueDepth();
  if (depth + rows > options_.max_shard_queue) {
    shard.shed_full->Increment(rows);
    return Status::Unavailable("shard " + std::to_string(index) +
                               " queue full");
  }
  if (options_.slo_queue_wait_us > 0.0) {
    // Two signals: the live EMA-based prediction, and the obs-histogram
    // p99 of realized queue waits. The p99 arm is gated on current depth
    // so a cumulative histogram inflated by a past overload cannot pin
    // the shard in shed mode after the queue has drained.
    double worst = shard.server->EstimatedQueueWaitUs();
    if (depth > options_.slo_low_watermark) {
      worst = std::max(worst,
                       shard.server->Stats().p99_queue_wait_us);
    }
    if (worst > options_.slo_queue_wait_us) {
      shard.shed_slo->Increment(rows);
      return Status::Unavailable("shard " + std::to_string(index) +
                                 " over queue-wait SLO");
    }
  }
  return Status::OK();
}

Status ShardedRouter::Submit(size_t index, const serve::ModelKey& key,
                             ml::ColMatrix rows,
                             serve::BatchServer::Callback done) {
  if (index >= shards_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(index) +
                                   " out of range");
  }
  FAB_DCHECK(index == ShardFor(key)) << "shard " << index << " is not "
                                     << key.ToString() << "'s";
  Shard& shard = shards_[index];
  FAB_ASSIGN_OR_RETURN(std::shared_ptr<const serve::Servable> servable,
                       registry_->Get(key));
  const size_t n = rows.rows();
  // Checked before admission: a request larger than the queue bound
  // would shed on every retry, so it is the client's error, not load.
  if (n > options_.max_shard_queue) {
    return Status::InvalidArgument(
        std::to_string(n) + " rows exceed the shard queue bound of " +
        std::to_string(options_.max_shard_queue));
  }
  FAB_RETURN_IF_ERROR(Admit(index, n));
  Status submitted = shard.server->Submit(std::move(servable),
                                          std::move(rows), std::move(done));
  if (submitted.code() == StatusCode::kUnavailable) {
    // Lost the race against concurrent admits: the queue filled between
    // the check and the enqueue. Same verdict as a front-door shed.
    shard.shed_full->Increment(n);
  }
  return submitted;
}

int ShardedRouter::RetryAfterSeconds(size_t shard) const {
  if (shard >= shards_.size()) return 1;
  const double wait_s =
      shards_[shard].server->EstimatedQueueWaitUs() / 1e6;
  return std::max(1, static_cast<int>(std::ceil(wait_s)));
}

std::string ShardedRouter::StatszJson() const {
  std::ostringstream out;
  out << "{\"num_shards\":" << shards_.size()
      << ",\"hash_version\":" << kShardHashVersion << ",\"shards\":[";
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i != 0) out << ",";
    const Shard& shard = shards_[i];
    out << "{\"admitted\":" << shard.server->Stats().requests_admitted
        << ",\"shed_queue_full\":" << shard.shed_full->Value()
        << ",\"shed_slo\":" << shard.shed_slo->Value()
        << ",\"server\":" << shard.server->StatszJson() << "}";
  }
  out << "]}";
  return out.str();
}

void ShardedRouter::Shutdown() {
  for (Shard& shard : shards_) {
    if (shard.server != nullptr) shard.server->Shutdown();
  }
}

}  // namespace fab::net
