#ifndef FAB_NET_SHARD_ROUTER_H_
#define FAB_NET_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/batch_server.h"
#include "serve/registry.h"
#include "util/obs/metrics.h"
#include "util/status.h"

namespace fab::net {

/// Deterministic scenario-key → shard mapping: FNV-1a 64 over the
/// canonical "period|window|model" string, mod `num_shards`. Pure and
/// version-pinned (kShardHashVersion) — the same key maps to the same
/// shard on every host, every restart, every build. Golden-tested.
uint64_t ShardHash(const serve::ModelKey& key);
size_t ShardOf(const serve::ModelKey& key, size_t num_shards);

/// Bumped only if the hash function ever changes; persisted into the
/// shard layout file so an incompatible router refuses to start instead
/// of silently re-sharding.
inline constexpr int kShardHashVersion = 1;

struct ShardedRouterOptions {
  /// Number of shards (each one coalescing BatchServer + queue).
  size_t num_shards = 4;
  /// Per-shard batches that may run at once (ResolveThreads convention):
  /// each shard BatchServer's num_threads. The batches run on the
  /// submitting threads, so a saturated shard holds at most this many of
  /// them.
  int threads_per_shard = 2;
  /// Per-shard BatchServer batch bound, in rows.
  size_t max_batch = 64;
  /// Hard per-shard queue bound, in rows: a request whose rows do not
  /// fit sheds (HTTP 429); one with more rows than the bound can never
  /// fit and is refused as invalid (HTTP 400).
  size_t max_shard_queue = 256;
  /// Admission SLO: when a shard's predicted queue wait exceeds this,
  /// new requests shed before latency collapses. 0 disables the check.
  double slo_queue_wait_us = 50000.0;
  /// The histogram-p99 arm of the admission predicate only engages
  /// above this queue depth, so a cumulative p99 inflated by a past
  /// overload cannot latch the shard into permanent shedding.
  size_t slo_low_watermark = 8;
  /// Drain budget handed to each shard's BatchServer at shutdown.
  int shutdown_drain_ms = 2000;
};

/// Routes scenario keys across a fixed set of admission-controlled
/// BatchServer shards, each serving the subset of the ModelRegistry
/// that hashes to it.
///
/// Layout persistence: Create() writes (first run) or validates (later
/// runs) `shard_layout.txt` in the registry root, recording num_shards
/// and the hash version. A restart with a different shard count is
/// REJECTED at load time — resharding is an explicit operation (delete
/// the layout file), never an accident that silently moves keys between
/// queues mid-deployment.
///
/// Thread-safe: Submit may be called from any handler thread. Shard
/// state lives in the BatchServers (locked internally) and per-shard
/// obs counters (lock-free); the router itself is immutable after
/// Create.
///
/// Isolation: a Submit that finds a free runner slot on its shard runs
/// that shard's batches before it returns (see serve::BatchServer), so a
/// saturated shard holds at most threads_per_shard submitting threads.
/// Shards served from one handler pool therefore stay isolated while the
/// pool is wider than num_shards × threads_per_shard.
class ShardedRouter {
 public:
  /// Builds the shard set over `registry` (not owned; must outlive the
  /// router). Fails if a persisted layout disagrees with `options`.
  [[nodiscard]] static Result<std::unique_ptr<ShardedRouter>> Create(
      serve::ModelRegistry* registry, const ShardedRouterOptions& options);

  ~ShardedRouter();

  ShardedRouter(const ShardedRouter&) = delete;
  ShardedRouter& operator=(const ShardedRouter&) = delete;

  /// Admission-checked forecast of every row of `rows`: resolves `key`
  /// in the registry once, applies the shard's admission predicate once,
  /// and submits the rows to the shard's BatchServer as one request —
  /// admitted whole or shed whole, and served by one model generation.
  /// `shard` must be ShardFor(key): the caller hashes the key once and
  /// keeps the index for its answer. The callback fires exactly once on
  /// admitted requests, possibly before Submit returns (the calling
  /// thread may run the batch). Unknown keys return kNotFound, sheds
  /// kUnavailable (the per-shard shed_queue_full / shed_slo counters say
  /// which), and requests no shard could ever hold kInvalidArgument.
  [[nodiscard]] Status Submit(size_t shard, const serve::ModelKey& key,
                              ml::ColMatrix rows,
                              serve::BatchServer::Callback done);

  /// Shard index serving `key` under this router's layout.
  size_t ShardFor(const serve::ModelKey& key) const;

  /// Suggested client back-off when shedding, in seconds (>= 1): the
  /// shard's predicted queue wait, rounded up — what Retry-After carries.
  int RetryAfterSeconds(size_t shard) const;

  /// Aggregated JSON: per-shard BatchServer statsz + admission counters
  /// (admitted, shed_queue_full, shed_slo — all in rows). `admitted` is
  /// the shard server's requests_admitted: rows counted when they are
  /// queued, before any batch runs on the submitting thread.
  std::string StatszJson() const;

  /// Drains every shard's queue under its deadline (see
  /// BatchServerOptions::shutdown_drain_ms semantics).
  void Shutdown();

  size_t num_shards() const { return shards_.size(); }
  const ShardedRouterOptions& options() const { return options_; }

  /// The layout file path for `registry_root`.
  static std::string LayoutPath(const std::string& registry_root);

 private:
  struct Shard {
    std::unique_ptr<serve::BatchServer> server;
    obs::Counter* shed_full = nullptr;  ///< registry-owned, rows
    obs::Counter* shed_slo = nullptr;   ///< registry-owned, rows
  };

  ShardedRouter(serve::ModelRegistry* registry,
                const ShardedRouterOptions& options);

  /// The admission predicate for a request of `rows` rows on shard
  /// `index`: OK means "enqueue now"; a shed bumps the shard's counter
  /// and returns kUnavailable.
  [[nodiscard]] Status Admit(size_t index, size_t rows) const;

  serve::ModelRegistry* const registry_;
  const ShardedRouterOptions options_;
  std::vector<Shard> shards_;
};

}  // namespace fab::net

#endif  // FAB_NET_SHARD_ROUTER_H_
