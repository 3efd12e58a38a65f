// Pure helpers of the repository benchmark: percentiles, latency and rate
// summaries, forecast comparison, the pipeline digest and checks, and the
// result line. Kept free of I/O so helpers_test.cc can pin them.
#ifndef FAB_PERFBENCH_HELPERS_H_
#define FAB_PERFBENCH_HELPERS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/feature_vector.h"
#include "core/improvement.h"

namespace perfbench {

/// A percentile together with the number of samples it was taken from.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
};

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it (q in (0, 1]). Empty input gives {0, 0}.
inline Quantile NearestRank(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) return out;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  out.value = values[rank - 1];
  return out;
}

inline double Median(const std::vector<double>& values) {
  return NearestRank(values, 0.5).value;
}

/// Request latencies (ms) kept in memory that does not grow with the
/// request count: each run of `per_window` consecutive latencies keeps its
/// exact nearest-rank p50 and p90, and a histogram of 1%-wide buckets
/// (1 us to 100 s) keeps every sample for whole-run percentiles.
class LatencyLog {
 public:
  explicit LatencyLog(size_t per_window) : per_window_(per_window) {}

  void Add(double ms) {
    window_.push_back(ms);
    if (window_.size() == per_window_) {
      p50s_.push_back(NearestRank(window_, 0.50).value);
      p90s_.push_back(NearestRank(window_, 0.90).value);
      window_.clear();
    }
    ++buckets_[Bucket(ms)];
    ++count_;
  }

  /// Takes in `other`'s full windows and histogram; its unfinished window
  /// is dropped.
  void Merge(const LatencyLog& other) {
    p50s_.insert(p50s_.end(), other.p50s_.begin(), other.p50s_.end());
    p90s_.insert(p90s_.end(), other.p90s_.begin(), other.p90s_.end());
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank `across` quantile of the windows' p50 (or p90); 0.5
  /// gives the median window, which noise coming in episodes over less
  /// than half of the windows does not move. `samples` counts the
  /// latencies in full windows.
  Quantile WindowP50(double across) const { return Across(p50s_, across); }
  Quantile WindowP90(double across) const { return Across(p90s_, across); }

  /// Nearest-rank q quantile of every latency, read as the upper edge of
  /// its bucket (at most 1% above the exact value).
  Quantile Percentile(double q) const {
    Quantile out;
    out.samples = count_;
    if (count_ == 0) return out;
    const auto rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) {
        out.value = kLowestMs * std::pow(kGrowth, static_cast<double>(i + 1));
        break;
      }
    }
    return out;
  }

 private:
  static constexpr double kLowestMs = 1e-3;
  static constexpr double kGrowth = 1.01;
  static constexpr size_t kBuckets = 1852;  // kLowestMs * kGrowth^1852 > 1e5 ms

  static size_t Bucket(double ms) {
    if (!(ms > kLowestMs)) return 0;
    const auto b = static_cast<size_t>(std::log(ms / kLowestMs) / std::log(kGrowth));
    return std::min(b, kBuckets - 1);
  }
  Quantile Across(const std::vector<double>& per_window, double across) const {
    Quantile q = NearestRank(per_window, across);
    q.samples = per_window.size() * per_window_;
    return q;
  }

  size_t per_window_;
  std::vector<double> window_;
  std::vector<double> p50s_;
  std::vector<double> p90s_;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

/// Completion rate per fixed slot of time from the start of a phase: each
/// slot keeps its count and its first and last completion times, so a
/// slot's rate is exact rather than a whole count per slot.
class RateLog {
 public:
  /// Slots of `slot_s` seconds covering [0, max_s); later completions are
  /// not counted.
  RateLog(double slot_s, double max_s)
      : slot_s_(slot_s), slots_(static_cast<size_t>(max_s / slot_s) + 1) {}

  void Add(double t_s) {
    if (!(t_s >= 0.0)) return;
    const auto i = static_cast<size_t>(t_s / slot_s_);
    if (i < slots_.size()) {
      Slot& slot = slots_[i];
      ++slot.count;
      slot.first = std::min(slot.first, t_s);
      slot.last = std::max(slot.last, t_s);
    }
    last_s_ = std::max(last_s_, t_s);
  }

  void Merge(const RateLog& other) {
    for (size_t i = 0; i < slots_.size() && i < other.slots_.size(); ++i) {
      slots_[i].count += other.slots_[i].count;
      slots_[i].first = std::min(slots_[i].first, other.slots_[i].first);
      slots_[i].last = std::max(slots_[i].last, other.slots_[i].last);
    }
    last_s_ = std::max(last_s_, other.last_s_);
  }

  /// Nearest-rank `across` quantile of the rates, (count - 1) over the
  /// span from first to last completion, of the slots that ended by the
  /// last completion and hold at least two completions.
  double Rate(double across) const {
    const size_t full = std::min(slots_.size(), static_cast<size_t>(last_s_ / slot_s_));
    std::vector<double> rates;
    for (size_t i = 0; i < full; ++i) {
      const Slot& slot = slots_[i];
      if (slot.count >= 2 && slot.last > slot.first) {
        rates.push_back(static_cast<double>(slot.count - 1) / (slot.last - slot.first));
      }
    }
    return NearestRank(rates, across).value;
  }

 private:
  struct Slot {
    uint64_t count = 0;
    double first = HUGE_VAL;
    double last = -HUGE_VAL;
  };
  double slot_s_;
  std::vector<Slot> slots_;
  double last_s_ = 0.0;
};

inline bool SameBits(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

/// The numbers of the "forecasts" array of a /predict 200 body, or
/// nullopt when the body has no such array of plain numbers.
inline std::optional<std::vector<double>> ParseForecasts(std::string_view body) {
  constexpr std::string_view kKey = "\"forecasts\":[";
  const size_t at = body.find(kKey);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string tail(body.substr(at + kKey.size()));
  std::vector<double> out;
  const char* p = tail.c_str();
  if (*p == ']') return out;
  while (true) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) return std::nullopt;
    out.push_back(v);
    p = end;
    if (*p == ']') return out;
    if (*p != ',') return std::nullopt;
    ++p;
  }
}

/// How many forecasts of `body` differ bitwise from `expected`. A body
/// that cannot be read, or holds the wrong number of forecasts, counts
/// every expected forecast as wrong.
inline size_t CountWrongForecasts(std::string_view body,
                                  const std::vector<double>& expected) {
  const std::optional<std::vector<double>> got = ParseForecasts(body);
  if (!got || got->size() != expected.size()) return std::max<size_t>(expected.size(), 1);
  size_t wrong = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!SameBits((*got)[i], expected[i])) ++wrong;
  }
  return wrong;
}

/// FNV-1a 64 over exact bytes: strings with their length, doubles by bit
/// pattern, so two digests agree only when the outputs are bitwise equal.
class Digest {
 public:
  void Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Add(uint64_t v) { Bytes(&v, sizeof v); }
  void Add(double v) { Bytes(&v, sizeof v); }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of one pipeline pass: every scenario's final vector and its
/// improvement result, in scenario order.
inline std::string PipelineDigest(
    const std::vector<fab::core::FinalFeatureVector>& vectors,
    const std::vector<fab::core::ImprovementResult>& improvements) {
  Digest d;
  for (const auto& v : vectors) {
    d.Add(static_cast<uint64_t>(v.features.size()));
    for (const auto& s : v.features) d.Add(s);
    d.Add(static_cast<uint64_t>(v.fra_ranked.size()));
    for (const auto& s : v.fra_ranked) d.Add(s);
    d.Add(static_cast<uint64_t>(v.shap_ranked.size()));
    for (const auto& s : v.shap_ranked) d.Add(s);
    d.Add(static_cast<uint64_t>(v.overlap_fra_shap_top100));
  }
  for (const auto& r : improvements) {
    d.Add(r.diverse_mse);
    d.Add(static_cast<uint64_t>(r.per_category.size()));
    for (const auto& c : r.per_category) {
      d.Add(static_cast<uint64_t>(c.category));
      d.Add(c.single_mse);
      d.Add(c.diverse_mse);
      d.Add(c.improvement_pct);
    }
  }
  return d.Hex();
}

/// Structural checks every pipeline pass must pass, whatever its seed:
/// one result per scenario, non-empty final vectors, FRA keeping at most
/// `fra_limit` features, and finite numbers throughout. Returns the
/// first violation, or "" when there is none.
inline std::string CheckPipeline(
    const std::vector<fab::core::FinalFeatureVector>& vectors,
    const std::vector<fab::core::ImprovementResult>& improvements,
    size_t scenarios, size_t fra_limit) {
  if (vectors.size() != scenarios || improvements.size() != scenarios) {
    return "missing scenario results";
  }
  for (const auto& v : vectors) {
    if (v.features.empty()) return "empty final vector";
    if (v.fra_ranked.empty() || v.fra_ranked.size() > fra_limit) {
      return "FRA kept " + std::to_string(v.fra_ranked.size()) + " features";
    }
  }
  for (const auto& r : improvements) {
    if (!std::isfinite(r.diverse_mse) || r.per_category.empty()) {
      return "improvement without a finite diverse MSE";
    }
    for (const auto& c : r.per_category) {
      if (!std::isfinite(c.single_mse) || !std::isfinite(c.diverse_mse) ||
          !std::isfinite(c.improvement_pct)) {
        return "non-finite improvement";
      }
    }
  }
  return "";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":
/// {name:{"value":v,"unit":u}}}, values with all 17 significant digits.
/// A non-finite value is a benchmark bug: it is written as 0 and the run
/// is marked incorrect.
inline std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string m;
  for (const Metric& metric : metrics) {
    double v = metric.value;
    if (!std::isfinite(v)) {
      v = 0.0;
      correct = false;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!m.empty()) m += ",";
    m += "\"" + metric.name + "\":{\"value\":" + buf + ",\"unit\":\"" +
         metric.unit + "\"}";
  }
  return std::string("{\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" + m + "}}";
}

}  // namespace perfbench

#endif  // FAB_PERFBENCH_HELPERS_H_
