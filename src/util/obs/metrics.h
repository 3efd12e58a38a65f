#ifndef FAB_UTIL_OBS_METRICS_H_
#define FAB_UTIL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

/// fab::obs metrics: named Counter / Gauge / Histogram instruments.
///
/// Every instrument is a handful of relaxed/CAS atomics, cheap enough
/// for hot paths; recording never blocks and never allocates.
///
/// Instruments can be owned directly (BatchServer holds its own
/// Histograms so per-instance stats stay isolated) or fetched from the
/// process-wide registry by name:
///
///   obs::GetCounter("ml/rf_fits").Increment();
///   obs::GetGauge("threadpool/queue_depth").Add(1);
///   obs::GetHistogram("threadpool/task_us").Record(micros);
///
/// Registry references are valid for the process lifetime. The whole
/// registry dumps as JSON via obs::ExportMetrics(); when the FAB_METRICS
/// environment variable names a file, the process writes that JSON there
/// at exit.
namespace fab::obs {

/// Monotonically increasing event count. Lock-free.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depth, resident models, ...). Lock-free;
/// Add uses a CAS loop, so concurrent +1/-1 never lose updates.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-footprint log-scale histogram with percentile readout.
///
/// 512 buckets whose upper edges grow geometrically by g = 2^(1/8)
/// starting at kLowest = 1e-3, so the tracked range spans 1e-3 .. ~1.6e16
/// (nanoseconds to hours when recording microseconds). Values at or
/// below kLowest land in bucket 0; values beyond the top edge land in
/// the last bucket.
///
/// Error bound (documented contract, asserted in tests): Percentile()
/// returns the geometric midpoint of the selected bucket, clamped to the
/// exact tracked [Min(), Max()], so any percentile is within a relative
/// error of sqrt(g) - 1 = 2^(1/16) - 1 ≈ 4.4% (< 5%) of the exact
/// sorted-sample percentile, for samples inside the tracked range.
/// Count, Sum, Min and Max are exact.
///
/// Record() is lock-free (one relaxed fetch_add plus two bounded CAS
/// loops); readout methods are monotonic-consistent but may observe a
/// mid-update snapshot under concurrency, which is fine for telemetry.
class Histogram {
 public:
  static constexpr int kBuckets = 512;
  static constexpr int kBucketsPerDoubling = 8;
  static constexpr double kLowest = 1e-3;

  /// Records `v`, attributed to the calling thread's trace context
  /// (obs::CurrentTraceId) for the max-bucket exemplar.
  void Record(double v);

  /// Records `v` with an explicit trace id — for values measured on a
  /// thread other than the one that owns the request context (e.g.
  /// BatchServer batch threads recording per-request queue wait).
  void Record(double v, uint64_t trace_id);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
  }
  /// Exact smallest / largest recorded value (0 when empty).
  double Min() const;
  double Max() const;

  /// Approximate q-quantile, q in [0, 1]; see the class comment for the
  /// ≤ 5% relative error bound. Returns 0 when empty.
  double Percentile(double q) const;

  /// Trace id of the most recent sample that set (or tied) Max() while
  /// a trace context was installed — the "what was the worst request"
  /// exemplar surfaced by /rpcz. 0 when no traced sample has led yet.
  /// Maintained with a single relaxed atomic store on the record path:
  /// under a race the exemplar may lag the exact max by one sample,
  /// which is fine for telemetry.
  uint64_t MaxExemplarTraceId() const {
    return max_trace_.load(std::memory_order_relaxed);
  }

  /// Raw per-bucket count (i in [0, kBuckets)) — the Prometheus
  /// exposition reads these to emit cumulative `le` buckets.
  uint64_t BucketCount(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

  /// Upper edge of bucket i: kLowest * 2^((i+1)/8).
  static double BucketUpperEdge(int i);

  /// {"count":N,"sum":S,"min":m,"max":M,"p50":...,"p95":...,"p99":...,
  ///  "max_trace":"<hex16>"} (max_trace only when an exemplar exists).
  std::string ToJson() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  ///< valid only when count_ > 0
  std::atomic<double> max_{0.0};  ///< valid only when count_ > 0
  std::atomic<uint64_t> max_trace_{0};  ///< exemplar for the max bucket
};

/// Process-wide instruments by name. The returned reference stays valid
/// for the process lifetime; repeated calls with the same name return
/// the same instrument. Lookup takes a mutex — fetch once, reuse the
/// reference on hot paths.
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name);

/// One JSON object covering every registered instrument:
///   {"counters":{...},"gauges":{...},"histograms":{name:{...}}}
/// The registry lock is held only to snapshot instrument pointers;
/// serialization runs outside it.
std::string ExportMetrics();

/// Prometheus text exposition (version 0.0.4) of the whole registry —
/// what GET /metricsz serves. Names are sanitized ("serve/latency_us"
/// -> "fab_serve_latency_us"), counters gain the conventional `_total`
/// suffix, and histograms emit cumulative `_bucket{le="..."}` lines
/// (non-empty buckets plus `+Inf`), `_sum`, and `_count`.
std::string ExportPrometheus();

/// Writes ExportMetrics() to `path` atomically (temp file + rename).
[[nodiscard]] Status WriteMetrics(const std::string& path);

}  // namespace fab::obs

#endif  // FAB_UTIL_OBS_METRICS_H_
