#ifndef FAB_BENCH_BENCH_COMMON_H_
#define FAB_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.h"
#include "util/obs/clock.h"
#include "util/obs/metrics.h"
#include "util/status.h"
#include "util/string_util.h"

namespace fab::bench {

/// Prints a banner and returns the env-configured experiment runner.
inline core::Experiments MakeExperiments(const char* title) {
  core::ExperimentConfig config = core::ExperimentConfig::FromEnv();
  std::printf("=== %s ===\n", title);
  std::printf("(seed=%llu mode=%s cache=%s)\n\n",
              static_cast<unsigned long long>(config.seed),
              config.fast ? "fast" : "full", config.cache_dir.c_str());
  return core::Experiments(config);
}

/// Aborts the binary with a readable message on error.
inline void DieIf(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T DieIfError(Result<T> result, const char* what) {
  DieIf(result.status(), what);
  return std::move(result).value();
}

namespace internal {

/// Best-effort current commit: FAB_GIT_SHA env override first (CI sets
/// it), then `git rev-parse HEAD`, else "unknown".
inline std::string GitSha() {
  const char* env = std::getenv("FAB_GIT_SHA");
  if (env != nullptr && *env != '\0') return env;
  std::string sha;
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace internal

/// Machine-readable twin of a benchmark's stdout: accumulates scalar
/// results (and pre-rendered JSON blobs like BatchServer::StatszJson())
/// and writes BENCH_<name>.json on Write() — name, wall ms, iters, the
/// process-wide obs metric snapshot, and the git SHA — so the bench
/// trajectory is diffable across commits.
///
///   fab::bench::BenchReporter reporter("parallel_scaling");
///   reporter.AddScalar("speedup_w8", speedup);
///   reporter.set_iters(n);
///   fab::bench::DieIf(reporter.Write(), "bench report");
///
/// Wall time defaults to construction → Write(); override with
/// set_wall_ms for a tighter measured section. Output lands in
/// FAB_BENCH_DIR (default: current directory).
class BenchReporter {
 public:
  explicit BenchReporter(std::string name)
      : name_(std::move(name)), constructed_(obs::Clock::Now()) {}

  void set_wall_ms(double ms) { wall_ms_ = ms; }
  void set_iters(uint64_t n) { iters_ = n; }

  void AddScalar(const std::string& key, double value) {
    entries_.emplace_back(key, JsonNumber(value));
  }

  /// Attaches an already-rendered JSON value (object/array) verbatim.
  void AddJson(const std::string& key, const std::string& raw_json) {
    entries_.emplace_back(key, raw_json);
  }

  Status Write() const {
    const double wall_ms =
        wall_ms_ >= 0.0
            ? wall_ms_
            : obs::Clock::MicrosBetween(constructed_, obs::Clock::Now()) /
                  1000.0;
    std::string out = "{";
    out += "\"name\":" + EscapeJson(name_);
    out += ",\"git_sha\":" + EscapeJson(internal::GitSha());
    out += ",\"wall_ms\":" + JsonNumber(wall_ms);
    out += ",\"iters\":" + std::to_string(iters_);
    out += ",\"results\":{";
    bool first = true;
    for (const auto& [key, value] : entries_) {
      if (!first) out += ",";
      first = false;
      out += EscapeJson(key) + ":" + value;
    }
    out += "},\"metrics\":" + obs::ExportMetrics();
    out += "}\n";

    const char* dir = std::getenv("FAB_BENCH_DIR");
    const std::string path = (dir != nullptr && *dir != '\0')
                                 ? std::string(dir) + "/BENCH_" + name_ + ".json"
                                 : "BENCH_" + name_ + ".json";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) return Status::IoError("cannot write bench report: " + path);
    file << out;
    if (!file.good()) return Status::IoError("bench report write failed: " + path);
    std::printf("\nwrote %s\n", path.c_str());
    return Status::OK();
  }

 private:
  const std::string name_;
  const obs::Clock::time_point constructed_;
  double wall_ms_ = -1.0;
  uint64_t iters_ = 0;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace fab::bench

#endif  // FAB_BENCH_BENCH_COMMON_H_
