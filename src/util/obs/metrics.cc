#include "util/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "util/obs/trace_context.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace fab::obs {

namespace {

/// Relaxed CAS-min/max on an atomic<double>. `count_` going 0 -> 1
/// initialises both bounds, so `first` seeds instead of comparing.
void AtomicMin(std::atomic<double>& a, double v, bool first) {
  double cur = a.load(std::memory_order_relaxed);
  while ((first || v < cur) &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    first = false;
  }
}

/// Returns true when `v` became (or tied) the tracked max — the signal
/// the caller uses to refresh the max-bucket exemplar.
bool AtomicMax(std::atomic<double>& a, double v, bool first) {
  double cur = a.load(std::memory_order_relaxed);
  while (first || v > cur) {
    if (a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      return true;
    }
    first = false;
  }
  return v == cur;
}

void AtomicAdd(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

/// Bucket index for a positive value: floor(log2(v / kLowest) * 8),
/// clamped into [0, kBuckets). Bucket i covers
/// (kLowest * 2^(i/8), kLowest * 2^((i+1)/8)].
int BucketIndex(double v) {
  if (!(v > Histogram::kLowest)) return 0;
  const double idx = std::floor(std::log2(v / Histogram::kLowest) *
                                Histogram::kBucketsPerDoubling);
  if (idx >= Histogram::kBuckets - 1) return Histogram::kBuckets - 1;
  return static_cast<int>(idx);
}

/// Geometric midpoint of bucket i — the representative value returned
/// by Percentile() before clamping to the exact min/max.
double BucketMid(int i) {
  return Histogram::kLowest *
         std::exp2((i + 0.5) / Histogram::kBucketsPerDoubling);
}

/// Name-keyed instrument maps. Instruments are never deleted, so the
/// references handed out stay valid for the process lifetime; the whole
/// registry is intentionally leaked (still reachable => LSan-silent) so
/// pool workers draining during static destruction can still record.
class Registry {
 public:
  static Registry& Get() {
    // fablint:allow(hygiene-new-delete) — intentional process-lifetime leak.
    static Registry* const registry = new Registry();
    return *registry;
  }

  Counter& GetCounter(const std::string& name) FAB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<Counter>();
    return *slot;
  }

  Gauge& GetGauge(const std::string& name) FAB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    auto& slot = gauges_[name];
    if (slot == nullptr) slot = std::make_unique<Gauge>();
    return *slot;
  }

  Histogram& GetHistogram(const std::string& name) FAB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    return *slot;
  }

  /// Pointer snapshot of every registered instrument. Map nodes are
  /// process-lifetime (instruments are never deleted), so the name and
  /// instrument pointers stay valid after the lock is released — which
  /// is what lets Export/ExportPrometheus serialize lock-free.
  struct Snapshot {
    std::vector<std::pair<const std::string*, const Counter*>> counters;
    std::vector<std::pair<const std::string*, const Gauge*>> gauges;
    std::vector<std::pair<const std::string*, const Histogram*>> histograms;
  };

  Snapshot Snap() FAB_EXCLUDES(mu_) {
    Snapshot snap;
    util::MutexLock lock(mu_);
    // fablint:hot -- registry lock held: pointer copies into reserved
    // vectors only; every byte of serialization happens off-lock.
    snap.counters.reserve(counters_.size());
    snap.gauges.reserve(gauges_.size());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, counter] : counters_) {
      snap.counters.push_back({&name, counter.get()});
    }
    for (const auto& [name, gauge] : gauges_) {
      snap.gauges.push_back({&name, gauge.get()});
    }
    for (const auto& [name, histogram] : histograms_) {
      snap.histograms.push_back({&name, histogram.get()});
    }
    // fablint:endhot
    return snap;
  }

  std::string Export() FAB_EXCLUDES(mu_) {
    const Snapshot snap = Snap();
    std::string out;
    out.reserve(64 + 48 * snap.counters.size() + 48 * snap.gauges.size() +
                224 * snap.histograms.size());
    out += "{\"counters\":{";
    bool first = true;
    for (const auto& [name, counter] : snap.counters) {
      if (!first) out += ",";
      first = false;
      out += EscapeJson(*name) + ":" + std::to_string(counter->Value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, gauge] : snap.gauges) {
      if (!first) out += ",";
      first = false;
      out += EscapeJson(*name) + ":" + JsonNumber(gauge->Value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, histogram] : snap.histograms) {
      if (!first) out += ",";
      first = false;
      out += EscapeJson(*name) + ":" + histogram->ToJson();
    }
    out += "}}";
    return out;
  }

 private:
  Registry() {
    const char* path = std::getenv("FAB_METRICS");
    if (path != nullptr && *path != '\0') {
      exit_path_ = path;
      std::atexit(+[] {
        const std::string& path = Registry::Get().exit_path_;
        const Status status = WriteMetrics(path);
        if (!status.ok()) {
          std::fprintf(stderr, "fab::obs: %s\n", status.ToString().c_str());
        }
      });
    }
  }

  std::string exit_path_;
  util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      FAB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ FAB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      FAB_GUARDED_BY(mu_);
};

/// Runs the FAB_METRICS env bootstrap at static-init time, so the
/// exit-dump hook is registered even in processes that never create an
/// instrument (the dump is then a valid empty registry).
[[maybe_unused]] const bool g_env_bootstrap = [] {
  Registry::Get();
  return true;
}();

}  // namespace

void Histogram::Record(double v) { Record(v, CurrentTraceId()); }

void Histogram::Record(double v, uint64_t trace_id) {
  buckets_[static_cast<size_t>(BucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
  const uint64_t prior = count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMin(min_, v, /*first=*/prior == 0);
  // One relaxed store when this sample leads: the exemplar may lag the
  // exact max by one racing sample, never blocks, never locks. Untraced
  // samples (trace_id 0) leave the previous exemplar in place.
  if (AtomicMax(max_, v, /*first=*/prior == 0) && trace_id != 0) {
    max_trace_.store(trace_id, std::memory_order_relaxed);
  }
}

double Histogram::BucketUpperEdge(int i) {
  return kLowest * std::exp2(static_cast<double>(i + 1) / kBucketsPerDoubling);
}

double Histogram::Min() const {
  return Count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::Max() const {
  return Count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Percentile(double q) const {
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile under the nearest-rank definition.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Clamp the bucket midpoint to the exact tracked range so
      // Percentile(0) >= Min(), Percentile(1) <= Max(), and percentile
      // ordering vs the exact extremes always holds.
      return std::clamp(BucketMid(i), Min(), Max());
    }
  }
  return Max();  // racing snapshot: buckets lag count_; max is the
                 // closest consistent answer
}

std::string Histogram::ToJson() const {
  std::string out;
  out.reserve(224);
  out += "{\"count\":" + std::to_string(Count());
  out += ",\"sum\":" + JsonNumber(Sum());
  out += ",\"min\":" + JsonNumber(Min());
  out += ",\"max\":" + JsonNumber(Max());
  out += ",\"p50\":" + JsonNumber(Percentile(0.50));
  out += ",\"p95\":" + JsonNumber(Percentile(0.95));
  out += ",\"p99\":" + JsonNumber(Percentile(0.99));
  const uint64_t exemplar = MaxExemplarTraceId();
  if (exemplar != 0) {
    out += ",\"max_trace\":\"" + FormatTraceId(exemplar) + "\"";
  }
  out += "}";
  return out;
}

Counter& GetCounter(const std::string& name) {
  return Registry::Get().GetCounter(name);
}

Gauge& GetGauge(const std::string& name) {
  return Registry::Get().GetGauge(name);
}

Histogram& GetHistogram(const std::string& name) {
  return Registry::Get().GetHistogram(name);
}

std::string ExportMetrics() { return Registry::Get().Export(); }

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our instrument names use
/// '/' and '-' as separators. "serve/latency_us" -> "fab_serve_latency_us".
std::string PromName(const std::string& name) {
  std::string out = "fab_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Prometheus sample values: plain decimal, with +Inf/-Inf/NaN spelled
/// the way the exposition format expects.
std::string PromNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ExportPrometheus() {
  const Registry::Snapshot snap = Registry::Get().Snap();
  std::string out;
  out.reserve(128 + 96 * snap.counters.size() + 96 * snap.gauges.size() +
              768 * snap.histograms.size());
  for (const auto& [name, counter] : snap.counters) {
    const std::string prom = PromName(*name);
    out += "# TYPE " + prom + "_total counter\n";
    out += prom + "_total " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : snap.gauges) {
    const std::string prom = PromName(*name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + PromNumber(gauge->Value()) + "\n";
  }
  for (const auto& [name, histogram] : snap.histograms) {
    const std::string prom = PromName(*name);
    out += "# TYPE " + prom + " histogram\n";
    // Cumulative le-buckets, non-empty buckets only: bucket edges are
    // strictly increasing by construction, which keeps the exposition
    // valid, and 512 mostly-zero lines per histogram would bury it.
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const uint64_t n = histogram->BucketCount(i);
      if (n == 0) continue;
      cumulative += n;
      out += prom + "_bucket{le=\"" +
             PromNumber(Histogram::BucketUpperEdge(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += prom + "_sum " + PromNumber(histogram->Sum()) + "\n";
    // _count mirrors the +Inf bucket (not count_) so the exposition is
    // internally consistent even when a concurrent Record() has bumped
    // count_ but not yet its bucket.
    out += prom + "_count " + std::to_string(cumulative) + "\n";
  }
  return out;
}

Status WriteMetrics(const std::string& path) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot write metrics file: " + tmp);
    out << ExportMetrics() << "\n";
    if (!out.good()) return Status::IoError("metrics write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename metrics file into place: " + path);
  }
  return Status::OK();
}

}  // namespace fab::obs
