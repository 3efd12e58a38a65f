// The benchmark's own spans: name, layer, start, end and parent of each
// call the benchmark makes into a src/ module, kept in memory and written
// out when the run ends, together with a per-layer self-time table.
#ifndef FAB_PERFBENCH_SPANS_H_
#define FAB_PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr uint32_t kNoParent = 0;

  struct Span {
    uint32_t id = 0;
    uint32_t parent = kNoParent;
    const char* layer = "";
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// A span open until the object is destroyed. Inactive (records
  /// nothing, reads no clock) when the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* layer, const char* name, uint32_t parent)
        : rec_(rec != nullptr && rec->enabled_ ? rec : nullptr) {
      if (rec_ == nullptr) return;
      span_.id = rec_->NextId();
      span_.parent = parent;
      span_.layer = layer;
      span_.name = name;
      span_.start_ns = rec_->Now();
    }
    ~Scope() {
      if (rec_ == nullptr) return;
      span_.end_ns = rec_->Now();
      rec_->Add(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// The id children pass as their parent (kNoParent when inactive).
    uint32_t id() const { return span_.id; }

   private:
    SpanRecorder* rec_;
    Span span_;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Seconds spent in spans called `name`, one entry per span.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : Spans()) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }

  /// Self time per layer in seconds: each span's duration minus the part
  /// of its interval that its children's intervals cover (children may
  /// overlap one another when they run on several threads).
  std::map<std::string, double> SelfSeconds() const {
    const std::vector<Span> spans = Spans();
    std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : spans) {
      if (s.parent != kNoParent) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, double> self;
    for (const Span& s : spans) {
      int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<int64_t, int64_t>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t lo = 0;
        int64_t hi = -1;
        for (const auto& [a0, b0] : iv) {
          const int64_t a = std::max(a0, s.start_ns);
          const int64_t b = std::min(b0, s.end_ns);
          if (b <= a) continue;
          if (a > hi) {
            if (hi > lo) covered += hi - lo;
            lo = a;
            hi = b;
          } else {
            hi = std::max(hi, b);
          }
        }
        if (hi > lo) covered += hi - lo;
      }
      self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return self;
  }

  /// {"spans":[{"id","parent","layer","name","start_us","end_us"}],
  ///  "self_s":{layer:seconds}}, times from the recorder's creation.
  std::string ToJson() const {
    std::string out = "{\"spans\":[";
    bool first = true;
    char buf[256];
    for (const Span& s : Spans()) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\":%u,\"parent\":%u,\"layer\":\"%s\",\"name\":\"%s\","
                    "\"start_us\":%.3f,\"end_us\":%.3f}",
                    first ? "" : ",", s.id, s.parent, s.layer, s.name,
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns) * 1e-3);
      out += buf;
      first = false;
    }
    out += "],\"self_s\":{";
    first = true;
    for (const auto& [layer, seconds] : SelfSeconds()) {
      std::snprintf(buf, sizeof buf, "%s\"%s\":%.9f", first ? "" : ",", layer.c_str(),
                    seconds);
      out += buf;
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  uint32_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint32_t last_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // FAB_PERFBENCH_SPANS_H_
