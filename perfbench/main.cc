// The repository benchmark's workload program (run.py builds and runs it).
//
//   perfbench fixture --seed N --out DIR
//       Trains the six serving models for seed N and saves their
//       snapshots under DIR. Runs once per seed, outside any timed process.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --work DIR
//                 [--fixtures DIR] [--digests FILE] [--trace-out FILE]
//       Runs workload W (pipeline_cold or predict_closed) in
//       this process and prints "info ..." lines followed, last, by the
//       result line {"correct","attempted","failed","metrics"}. --trace 0
//       reports the end-to-end metrics; --trace 1 repeats the measured
//       phase with the benchmark's spans on and reports the per-layer
//       metrics, writing the spans and a per-layer self-time table to
//       --trace-out.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.h"
#include "helpers.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "net/forecast_service.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/shard_router.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "spans.h"
#include "util/obs/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using fab::core::StudyPeriod;
using perfbench::Metric;
using perfbench::SpanRecorder;
using Scope = perfbench::SpanRecorder::Scope;
constexpr uint32_t kRoot = SpanRecorder::kNoParent;

// ---------------------------------------------------------------------------
// Workload constants. They are part of the benchmark's definition: changing
// any of them changes every number it reports.

// pipeline_cold: one cold pass over the 2019 period's five windows under
// FAST model settings. Every run simulates the program's default market
// and runs FRA with its default seed; the workload seed draws the seeds of
// the SHAP forest and of the improvement models. FRA's trajectory decides
// most of the work: across market seeds a pass took 13.8 to 22.2 s on one
// 4-vCPU host, and across FRA seeds 14.7 to 20.2 s, which would swamp any
// bound.
constexpr uint64_t kMarketSeed = 42;
constexpr StudyPeriod kPeriod = StudyPeriod::k2019;
const std::vector<int> kWindows = {1, 7, 30, 90, 180};
constexpr size_t kFraLimit = 100;
// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 15;

// Serving: six keys (2019 × windows {1, 30} × rf/xgb/mlp) over 100
// features, with models shaped like the pipeline's serving models.
constexpr size_t kFeatures = 100;
constexpr size_t kTrainRows = 2000;
constexpr size_t kBodiesPerKey = 32;
constexpr int kClosedCallers = 4;
// Calls per body when the traced run times net::ParseJson.
constexpr int kTimingReps = 3;
// Latencies are summarised per window of this many consecutive completions
// of one connection (so a window's p90 has twelve samples beyond it), and
// completions are counted per slot of kRateSlotSeconds. The run reports the
// median across windows of their p50 and p90 and the median across slots of
// their completion rates: a change that slows more than half of the run
// shows in full, while host noise that comes in episodes covering less than
// half of it does not. Over six seeds on a 4-vCPU VM losing 1-12% of its
// CPU to steal, the whole-run p90 and completion rate spread 0.228 and
// 0.262 (quartile distance over median), these medians 0.108 and 0.201.
// The summaries take memory that does not grow with the request count, so
// peak RSS does not rise with the server's throughput.
constexpr size_t kWindowPerConnection = 125;
constexpr double kRateSlotSeconds = 0.5;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

#ifdef FAB_OBS_DISABLED
constexpr bool kFabObs = false;
#else
constexpr bool kFabObs = true;
#endif

const std::vector<fab::serve::ModelKey>& Keys() {
  static const std::vector<fab::serve::ModelKey> keys = {
      {"2019", 1, "rf"},  {"2019", 1, "xgb"},  {"2019", 1, "mlp"},
      {"2019", 30, "rf"}, {"2019", 30, "xgb"}, {"2019", 30, "mlp"}};
  return keys;
}

// ---------------------------------------------------------------------------
// Process plumbing.

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Must(const fab::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Must(fab::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double RusageSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}
double ProcessCpuSeconds() { return RusageSeconds(RUSAGE_SELF); }
double ThreadCpuSeconds() { return RusageSeconds(RUSAGE_THREAD); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("VmHWM missing from /proc/self/status");
}

/// Steal and total jiffies of the host's aggregate CPU line.
struct Jiffies {
  double steal = 0.0;
  double total = 0.0;
  static Jiffies Read() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    Jiffies j;
    for (int i = 0; i < 8; ++i) {
      double v = 0.0;
      if (!(in >> v)) break;
      j.total += v;
      if (i == 7) j.steal = v;
    }
    return j;
  }
};

/// The program's process-wide obs instruments, read as deltas over a phase.
struct ObsSnapshot {
  uint64_t rf_fits = 0;
  uint64_t gbdt_fits = 0;
  uint64_t pool_tasks = 0;
  uint64_t http_requests = 0;
  uint64_t http_parse_errors = 0;
  double task_us_sum = 0.0;
  std::vector<uint64_t> task_us_buckets;
  double cpu_s = 0.0;

  static ObsSnapshot Take() {
    ObsSnapshot s;
    s.rf_fits = fab::obs::GetCounter("ml/rf_fits").Value();
    s.gbdt_fits = fab::obs::GetCounter("ml/gbdt_fits").Value();
    s.pool_tasks = fab::obs::GetCounter("threadpool/tasks_enqueued").Value();
    s.http_requests = fab::obs::GetCounter("net/http/requests").Value();
    s.http_parse_errors = fab::obs::GetCounter("net/http/parse_errors").Value();
    const fab::obs::Histogram& h = fab::obs::GetHistogram("threadpool/task_us");
    s.task_us_sum = h.Sum();
    s.task_us_buckets.resize(fab::obs::Histogram::kBuckets);
    for (int i = 0; i < fab::obs::Histogram::kBuckets; ++i) {
      s.task_us_buckets[static_cast<size_t>(i)] = h.BucketCount(i);
    }
    s.cpu_s = ProcessCpuSeconds();
    return s;
  }
};

/// q-quantile of the pool task times recorded between two snapshots: the
/// geometric middle of the bucket holding the nearest-rank sample.
double TaskUsQuantile(const ObsSnapshot& a, const ObsSnapshot& b, double q) {
  std::vector<uint64_t> d(a.task_us_buckets.size());
  uint64_t n = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = b.task_us_buckets[i] - a.task_us_buckets[i];
    n += d[i];
  }
  if (n == 0) return 0.0;
  const auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  uint64_t seen = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    seen += d[i];
    if (seen >= std::max<uint64_t>(rank, 1)) {
      const int bucket = static_cast<int>(i);
      const double hi = fab::obs::Histogram::BucketUpperEdge(bucket);
      const double lo = bucket == 0 ? fab::obs::Histogram::kLowest
                                    : fab::obs::Histogram::BucketUpperEdge(bucket - 1);
      return std::sqrt(lo * hi);
    }
  }
  return 0.0;
}

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
  std::string fixtures;
  std::string out;
  std::string trace_out;
  std::string digests;
};

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench fixture|run [--flag value]...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--work") a.work = value;
    else if (flag == "--fixtures") a.fixtures = value;
    else if (flag == "--out") a.out = value;
    else if (flag == "--trace-out") a.trace_out = value;
    else if (flag == "--digests") a.digests = value;
    else Die("unknown flag " + flag);
  }
  if (a.seconds <= 0.0) Die("--seconds must be positive");
  return a;
}

/// What a workload hands back to main: the result-line fields plus free
/// text for the info lines.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> info;  // value is a JSON token
};

std::string JsonString(const std::string& s) { return fab::net::EscapeJson(s); }
std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------------------
// pipeline_cold

struct PipelinePass {
  double seconds = 0.0;
  std::vector<fab::core::FinalFeatureVector> vectors;
  std::vector<fab::core::ImprovementResult> improvements;
  // Traced pass only.
  size_t fra_iterations = 0;
  std::vector<double> scenario_s;  // Fra + FinalVector, per scenario
};

/// FAST settings for kMarketSeed, with the SHAP and improvement model
/// settings (and so their seeds) ExperimentConfig::FromEnv derives for
/// `seed`.
fab::core::ExperimentConfig PipelineConfig(uint64_t seed) {
  setenv("FAB_FAST", "1", 1);
  setenv("FAB_SEED", std::to_string(seed).c_str(), 1);
  const fab::core::ExperimentConfig models = fab::core::ExperimentConfig::FromEnv();
  setenv("FAB_SEED", std::to_string(kMarketSeed).c_str(), 1);
  fab::core::ExperimentConfig config = fab::core::ExperimentConfig::FromEnv();
  config.feature_vector = models.feature_vector;
  config.improvement = models.improvement;
  return config;
}

/// Set-up: a fresh Experiments on an empty cache directory, the simulated
/// market, and the five scenario datasets.
std::unique_ptr<fab::core::Experiments> SetUpPipeline(
    const fab::core::ExperimentConfig& base, const std::string& cache_dir,
    SpanRecorder* spans, double* seconds) {
  fs::remove_all(cache_dir);
  fab::core::ExperimentConfig config = base;
  config.cache_dir = cache_dir;
  const Clock::time_point t0 = Clock::now();
  auto exp = std::make_unique<fab::core::Experiments>(config);
  {
    Scope s(spans, "sim", "sim.market", kRoot);
    Must(exp->Market().status(), "Market");
  }
  for (int w : kWindows) {
    Scope s(spans, "core", "core.scenario", kRoot);
    Must(exp->Scenario(kPeriod, w).status(), "Scenario");
  }
  *seconds = SecondsBetween(t0, Clock::now());
  return exp;
}

/// The measured phase as the program runs it: PrecomputeAll (the FRA +
/// SHAP fan-out), then Improvement(RF) for each scenario.
PipelinePass RunPipeline(fab::core::Experiments* exp) {
  PipelinePass pass;
  const Clock::time_point t0 = Clock::now();
  Must(exp->PrecomputeAll({kPeriod}, kWindows), "PrecomputeAll");
  for (int w : kWindows) {
    pass.improvements.push_back(
        Must(exp->Improvement(kPeriod, w, fab::core::ModelKind::kRandomForest),
             "Improvement"));
  }
  pass.seconds = SecondsBetween(t0, Clock::now());
  for (int w : kWindows) {
    pass.vectors.push_back(Must(exp->FinalVector(kPeriod, w), "FinalVector"));
  }
  return pass;
}

/// The same work through Experiments' public stage calls, with a span
/// around each: a ParallelFor over the scenarios runs Fra then FinalVector
/// in each (as PrecomputeAll does), then Improvement runs per scenario.
PipelinePass RunPipelineTraced(fab::core::Experiments* exp, SpanRecorder* spans) {
  PipelinePass pass;
  const size_t n = kWindows.size();
  std::vector<fab::core::FraResult> fras(n);
  std::vector<fab::Status> statuses(n);
  pass.vectors.resize(n);
  pass.scenario_s.assign(n, 0.0);
  const Clock::time_point t0 = Clock::now();
  {
    Scope root(spans, "bench", "bench.pipeline", kRoot);
    fab::util::ParallelFor(0, n, [&](size_t i) {
      const Clock::time_point s0 = Clock::now();
      {
        Scope s(spans, "core", "core.fra", root.id());
        fab::Result<fab::core::FraResult> fra = exp->Fra(kPeriod, kWindows[i]);
        if (!fra.ok()) {
          statuses[i] = fra.status();
          return;
        }
        fras[i] = std::move(*fra);
      }
      {
        Scope s(spans, "core", "core.final_vector", root.id());
        fab::Result<fab::core::FinalFeatureVector> fv =
            exp->FinalVector(kPeriod, kWindows[i]);
        if (!fv.ok()) {
          statuses[i] = fv.status();
          return;
        }
        pass.vectors[i] = std::move(*fv);
      }
      pass.scenario_s[i] = SecondsBetween(s0, Clock::now());
    });
    for (const fab::Status& s : statuses) Must(s, "traced Fra/FinalVector");
    for (int w : kWindows) {
      Scope s(spans, "core", "core.improvement", root.id());
      pass.improvements.push_back(
          Must(exp->Improvement(kPeriod, w, fab::core::ModelKind::kRandomForest),
               "Improvement"));
    }
  }
  pass.seconds = SecondsBetween(t0, Clock::now());
  for (const auto& f : fras) pass.fra_iterations += f.history.size();
  return pass;
}

/// Recorded digests of pipeline_cold's outputs: "<seed> <hex>" lines,
/// '#' starting a comment line.
std::map<uint64_t, std::string> LoadDigests(const std::string& path) {
  std::map<uint64_t, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t seed = 0;
    std::string hex;
    if (fields >> seed >> hex) out[seed] = hex;
  }
  return out;
}

Outcome PipelineCold(const Args& args, SpanRecorder* spans) {
  Outcome o;
  const int width = fab::util::ResolveThreads(0);
  fab::core::ExperimentConfig base = PipelineConfig(args.seed);
  base.num_threads = width;

  const std::map<uint64_t, std::string> digests = LoadDigests(args.digests);
  const auto recorded = digests.find(args.seed);
  std::vector<double> setup_s;
  std::unique_ptr<fab::core::Experiments> exp;
  for (int rep = 0; rep < kSetups; ++rep) {
    exp.reset();
    double s = 0.0;
    exp = SetUpPipeline(base, args.work + "/cache" + std::to_string(rep), nullptr, &s);
    setup_s.push_back(s);
  }
  // The program's counters over the pass.
  const ObsSnapshot before = ObsSnapshot::Take();
  const PipelinePass pass = RunPipeline(exp.get());
  const ObsSnapshot after = ObsSnapshot::Take();
  exp.reset();
  o.attempted = 1;
  std::string problem =
      perfbench::CheckPipeline(pass.vectors, pass.improvements, kWindows.size(), kFraLimit);
  const std::string digest = perfbench::PipelineDigest(pass.vectors, pass.improvements);
  if (problem.empty() && recorded != digests.end() && recorded->second != digest) {
    problem = "digest " + digest + " differs from recorded " + recorded->second;
  }
  if (!problem.empty()) {
    o.failed = 1;
    o.correct = false;
    o.info["check_failure"] = JsonString(problem);
  }
  o.info["digest"] = JsonString(digest);
  o.info["digest_recorded"] = recorded != digests.end() ? "true" : "false";
  o.info["pool_width"] = std::to_string(width);

  if (!args.trace) {
    o.metrics = {
        {"setup_s", perfbench::Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"latency_p50_ms", pass.seconds * 1e3, "ms"},
        {"latency_p90_ms", pass.seconds * 1e3, "ms"},
        {"throughput_ops", 1.0 / pass.seconds, "1/s"},
    };
    return o;
  }

  // Traced run: one more set-up and pass with spans on.
  double traced_setup = 0.0;
  exp = SetUpPipeline(base, args.work + "/cache_traced", spans, &traced_setup);
  const PipelinePass traced = RunPipelineTraced(exp.get(), spans);
  if (perfbench::PipelineDigest(traced.vectors, traced.improvements) != digest) {
    ++o.failed;
    o.correct = false;
    o.info["check_failure"] = JsonString("traced pass digest differs from untraced pass");
  }
  ++o.attempted;
  exp.reset();

  auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const std::vector<double> fra = spans->Durations("core.fra");
  const double mean_scenario = sum(traced.scenario_s) / static_cast<double>(traced.scenario_s.size());
  const double busy_s = (after.task_us_sum - before.task_us_sum) * 1e-6;
  o.metrics = {
      {"sim.market_s", sum(spans->Durations("sim.market")), "s"},
      {"core.scenarios_s", sum(spans->Durations("core.scenario")), "s"},
      {"core.fra_s", sum(fra), "s"},
      {"core.fra_max_s", fra.empty() ? 0.0 : *std::max_element(fra.begin(), fra.end()), "s"},
      {"core.final_vector_s", sum(spans->Durations("core.final_vector")), "s"},
      {"core.improvement_s", sum(spans->Durations("core.improvement")), "s"},
      {"core.fanout_imbalance",
       *std::max_element(traced.scenario_s.begin(), traced.scenario_s.end()) / mean_scenario,
       "ratio"},
      {"core.fra_iterations", static_cast<double>(traced.fra_iterations), "count"},
      {"ml.rf_fits", static_cast<double>(after.rf_fits - before.rf_fits), "count"},
      {"ml.gbdt_fits", static_cast<double>(after.gbdt_fits - before.gbdt_fits), "count"},
      {"util.pool.tasks", static_cast<double>(after.pool_tasks - before.pool_tasks), "count"},
      {"util.pool.busy_s", busy_s, "s"},
      {"util.pool.utilization", busy_s / (pass.seconds * width), "ratio"},
      {"util.pool.task_p50_us", TaskUsQuantile(before, after, 0.5), "us"},
      {"proc.cpu_s", after.cpu_s - before.cpu_s, "s"},
      {"trace.overhead_share", traced.seconds / pass.seconds - 1.0, "ratio"},
  };
  return o;
}

// ---------------------------------------------------------------------------
// Serving fixture

std::unique_ptr<fab::ml::Regressor> NewModel(const std::string& kind, uint64_t seed) {
  if (kind == "rf") {
    fab::ml::ForestParams p;
    p.n_trees = 80;
    p.max_depth = 10;
    p.max_features = 0.33;
    p.min_samples_leaf = 2.0;
    p.seed = seed;
    return std::make_unique<fab::ml::RandomForestRegressor>(p);
  }
  if (kind == "xgb") {
    fab::ml::GbdtParams p;
    p.n_rounds = 80;
    p.max_depth = 4;
    p.learning_rate = 0.12;
    p.subsample = 0.9;
    p.colsample = 0.8;
    p.seed = seed;
    return std::make_unique<fab::ml::GbdtRegressor>(p);
  }
  fab::ml::MlpParams p;
  p.hidden = {64, 32};
  p.epochs = 40;
  p.learning_rate = 2e-3;
  p.seed = seed;
  return std::make_unique<fab::ml::MlpRegressor>(p);
}

/// Trains the six serving models on seeded synthetic data and saves their
/// snapshots; the directory appears only once all six are written.
int Fixture(const Args& args) {
  if (args.out.empty()) Die("fixture needs --out");
  const std::string tmp = args.out + ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  for (int window : {1, 30}) {
    fab::Rng rng(args.seed * 1000003ull + static_cast<uint64_t>(window));
    std::vector<std::vector<double>> cols(kFeatures, std::vector<double>(kTrainRows));
    for (auto& col : cols) {
      for (double& v : col) v = rng.Normal();
    }
    std::vector<double> y(kTrainRows);
    for (size_t i = 0; i < kTrainRows; ++i) {
      y[i] = cols[0][i] + 0.5 * cols[1][i] * cols[2][i] + std::sin(cols[3][i]) +
             0.1 * rng.Normal();
    }
    const fab::ml::ColMatrix x =
        Must(fab::ml::ColMatrix::FromColumns(std::move(cols)), "training matrix");
    for (const fab::serve::ModelKey& key : Keys()) {
      if (key.window != window) continue;
      auto model = NewModel(key.model, args.seed + static_cast<uint64_t>(window));
      Must(model->Fit(x, y), "fit " + key.ToString());
      Must(fab::serve::SnapshotCodec::Save(*model,
                                           tmp + "/" + fab::serve::SnapshotFileName(key)),
           "save " + key.ToString());
    }
  }
  fs::remove_all(args.out);
  fs::rename(tmp, args.out);
  return 0;
}

// ---------------------------------------------------------------------------
// predict_closed

/// One 1-row request body and the forecast the in-process model gives
/// for its row.
struct Body {
  std::string json;
  fab::ml::ColMatrix row;
  std::vector<double> expected;
};

/// kBodiesPerKey bodies per key, drawn from the seed. Features are written
/// with %.6f and the expected forecast is computed from the doubles strtod
/// reads back, which is what the server sees.
std::vector<Body> MakeBodies(uint64_t seed, fab::serve::ModelRegistry* reference) {
  std::vector<Body> bodies;
  for (size_t k = 0; k < Keys().size(); ++k) {
    const fab::serve::ModelKey& key = Keys()[k];
    std::shared_ptr<const fab::serve::Servable> model =
        Must(reference->Get(key), "reference model " + key.ToString());
    for (size_t b = 0; b < kBodiesPerKey; ++b) {
      fab::Rng rng(seed * 7919ull + k * 131ull + b + 17);
      Body body;
      body.row = fab::ml::ColMatrix(1, kFeatures);
      body.json = "{\"period\":\"" + key.period + "\",\"window\":" + std::to_string(key.window) +
                  ",\"model\":\"" + key.model + "\",\"rows\":[[";
      for (size_t f = 0; f < kFeatures; ++f) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6f", rng.Normal());
        if (f != 0) body.json += ",";
        body.json += buf;
        body.row.set(0, f, std::strtod(buf, nullptr));
      }
      body.json += "]]}";
      body.expected = model->Predict(body.row);
      bodies.push_back(std::move(body));
    }
  }
  return bodies;
}

/// Registry → router → service → server, declared so that destruction
/// runs in the reverse order.
struct ServingStack {
  std::unique_ptr<fab::serve::ModelRegistry> registry;
  std::unique_ptr<fab::net::ShardedRouter> router;
  std::unique_ptr<fab::net::ForecastService> service;
  std::unique_ptr<fab::net::HttpServer> server;
  uint16_t port = 0;

  ServingStack() = default;
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
  ~ServingStack() {
    if (server) server->Shutdown();
    if (router) router->Shutdown();
  }
};

/// Set-up: a cold registry over a fresh copy of the fixture snapshots loads
/// all six keys, the router and server start, and every key answers its
/// first request with a 200 and the right forecasts.
std::unique_ptr<ServingStack> SetUpServing(const Args& args, const std::string& dir,
                                           const std::vector<Body>& bodies,
                                           double* setup_s, double* load_ms) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const fab::serve::ModelKey& key : Keys()) {
    const std::string name = fab::serve::SnapshotFileName(key);
    fs::copy_file(args.fixtures + "/" + name, dir + "/" + name);
  }
  const Clock::time_point t0 = Clock::now();
  auto stack = std::make_unique<ServingStack>();
  stack->registry = std::make_unique<fab::serve::ModelRegistry>(dir);
  for (const fab::serve::ModelKey& key : Keys()) {
    Must(stack->registry->Get(key).status(), "cold Get " + key.ToString());
  }
  *load_ms = SecondsBetween(t0, Clock::now()) * 1e3;
  fab::net::ShardedRouterOptions router_options;
  router_options.num_shards = 2;
  router_options.threads_per_shard = 1;
  stack->router = Must(fab::net::ShardedRouter::Create(stack->registry.get(), router_options),
                       "router");
  stack->service = std::make_unique<fab::net::ForecastService>(stack->router.get());
  fab::net::HttpServerOptions server_options;
  server_options.num_workers = 2;
  stack->server = std::make_unique<fab::net::HttpServer>(server_options);
  stack->service->RegisterRoutes(stack->server.get());
  Must(stack->server->Start(), "server start");
  stack->port = stack->server->port();
  fab::net::HttpClient client("127.0.0.1", stack->port);
  for (size_t k = 0; k < Keys().size(); ++k) {
    const Body& body = bodies[k * kBodiesPerKey];
    fab::net::HttpResponse response =
        Must(client.Post("/predict", body.json), "first request");
    if (response.status_code != 200 ||
        perfbench::CountWrongForecasts(response.body, body.expected) != 0) {
      Die("first request for " + Keys()[k].ToString() + " answered " +
          std::to_string(response.status_code) + ": " + response.body.substr(0, 200));
    }
  }
  *setup_s = SecondsBetween(t0, Clock::now());
  return stack;
}

/// Client-side tallies of one measured phase of `seconds`, from `start`.
struct LoadResult {
  LoadResult(Clock::time_point phase_start, double seconds)
      : start(phase_start), rate(kRateSlotSeconds, seconds + 1.0) {}

  Clock::time_point start;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t transport_errors = 0;
  uint64_t bad_status = 0;
  uint64_t wrong_responses = 0;
  // 200s with correct forecasts: their latency and completion times.
  perfbench::LatencyLog latency{kWindowPerConnection};
  perfbench::RateLog rate;
  double client_cpu_s = 0.0;

  void Merge(const LoadResult& other) {
    sent += other.sent;
    ok += other.ok;
    transport_errors += other.transport_errors;
    bad_status += other.bad_status;
    wrong_responses += other.wrong_responses;
    latency.Merge(other.latency);
    rate.Merge(other.rate);
    client_cpu_s += other.client_cpu_s;
  }
  uint64_t failed() const { return transport_errors + bad_status + wrong_responses; }
};

/// Sends one body and files the outcome; latency runs from `from`.
void Exchange(fab::net::HttpClient* client, const Body& body, Clock::time_point from,
              SpanRecorder* spans, LoadResult* r) {
  ++r->sent;
  fab::Result<fab::net::HttpResponse> response = [&] {
    Scope s(spans, "net", "net.post", kRoot);
    return client->Post("/predict", body.json);
  }();
  const Clock::time_point done = Clock::now();
  if (!response.ok()) {
    ++r->transport_errors;
    return;
  }
  if (response->status_code != 200) {
    ++r->bad_status;
    return;
  }
  if (perfbench::CountWrongForecasts(response->body, body.expected) != 0) {
    ++r->wrong_responses;
    return;
  }
  ++r->ok;
  r->latency.Add(std::chrono::duration<double, std::milli>(done - from).count());
  r->rate.Add(SecondsBetween(r->start, done));
}

/// Closed loop: kClosedCallers callers, each waiting for its reply, over
/// their own keep-alive connections; keys and bodies drawn uniformly.
LoadResult ClosedLoop(uint16_t port, const std::vector<Body>& bodies, uint64_t seed,
                      double seconds, SpanRecorder* spans) {
  const Clock::time_point start = Clock::now();
  std::vector<LoadResult> per(kClosedCallers, LoadResult(start, seconds));
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> callers;
  for (int t = 0; t < kClosedCallers; ++t) {
    callers.emplace_back([&, t] {
      LoadResult& r = per[static_cast<size_t>(t)];
      const double cpu0 = ThreadCpuSeconds();
      fab::net::HttpClient client("127.0.0.1", port);
      fab::Rng rng(seed * 104729ull + static_cast<uint64_t>(t) + 1);
      while (Clock::now() < deadline) {
        const Body& body = bodies[rng.UniformInt(bodies.size())];
        Exchange(&client, body, Clock::now(), spans, &r);
      }
      r.client_cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  for (std::thread& c : callers) c.join();
  LoadResult total(start, seconds);
  for (const LoadResult& r : per) total.Merge(r);
  return total;
}

const fab::net::JsonValue* Path(const fab::net::JsonValue& doc,
                                std::initializer_list<const char*> keys) {
  const fab::net::JsonValue* v = &doc;
  for (const char* k : keys) {
    v = v->Find(k);
    if (v == nullptr) return nullptr;
  }
  return v;
}

double Number(const fab::net::JsonValue& doc, std::initializer_list<const char*> keys) {
  const fab::net::JsonValue* v = Path(doc, keys);
  return v != nullptr && v->is_number() ? v->number() : 0.0;
}

/// What GET /rpcz reports: the /predict endpoint's latency histogram and
/// each shard's admission counters and BatchServer statsz.
struct ServerStats {
  double server_p50_us = 0.0;
  double server_p99_us = 0.0;
  double shed = 0.0;
  double completed = 0.0;
  double batches = 0.0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p99_us = 0.0;
  double batch_latency_p50_us = 0.0;

  static ServerStats Read(uint16_t port) {
    fab::net::HttpClient client("127.0.0.1", port);
    fab::net::HttpResponse response = Must(client.Get("/rpcz"), "GET /rpcz");
    if (response.status_code != 200) Die("GET /rpcz answered " + response.body);
    const fab::net::JsonValue doc = Must(fab::net::ParseJson(response.body), "parse /rpcz");
    ServerStats s;
    const fab::net::JsonValue* endpoints = Path(doc, {"server", "endpoints"});
    if (endpoints != nullptr && endpoints->is_array()) {
      for (const fab::net::JsonValue& e : endpoints->array()) {
        const fab::net::JsonValue* path = e.Find("path");
        if (path != nullptr && path->is_string() && path->str() == "/predict") {
          s.server_p50_us = Number(e, {"latency_us", "p50"});
          s.server_p99_us = Number(e, {"latency_us", "p99"});
        }
      }
    }
    const fab::net::JsonValue* shards = Path(doc, {"shards", "shards"});
    if (shards != nullptr && shards->is_array()) {
      for (const fab::net::JsonValue& shard : shards->array()) {
        s.shed += Number(shard, {"shed_queue_full"}) + Number(shard, {"shed_slo"});
        s.completed += Number(shard, {"server", "requests_completed"});
        s.batches += Number(shard, {"server", "batches_run"});
        s.queue_wait_p50_us =
            std::max(s.queue_wait_p50_us, Number(shard, {"server", "queue_wait_us", "p50"}));
        s.queue_wait_p99_us =
            std::max(s.queue_wait_p99_us, Number(shard, {"server", "queue_wait_us", "p99"}));
        s.batch_latency_p50_us =
            std::max(s.batch_latency_p50_us, Number(shard, {"server", "latency_us", "p50"}));
      }
    }
    return s;
  }
};

/// Median microseconds of `fn` over `reps` calls.
template <typename Fn>
double TimeUs(int reps, Fn fn, std::vector<double>* all = nullptr) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  if (all != nullptr) all->insert(all->end(), us.begin(), us.end());
  return perfbench::Median(us);
}

Outcome PredictClosed(const Args& args, SpanRecorder* spans) {
  Outcome o;
  if (args.fixtures.empty() || !fs::exists(args.fixtures)) Die("predict needs --fixtures");
  fab::serve::ModelRegistry reference(args.fixtures);
  const std::vector<Body> bodies = MakeBodies(args.seed, &reference);

  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::unique_ptr<ServingStack> stack;
  for (int rep = 0; rep < kSetups; ++rep) {
    stack.reset();
    double s = 0.0;
    double l = 0.0;
    stack = SetUpServing(args, args.work + "/registry" + std::to_string(rep), bodies, &s, &l);
    setup_s.push_back(s);
    load_ms.push_back(l);
  }

  const ServerStats stats_before = ServerStats::Read(stack->port);
  const ObsSnapshot before = ObsSnapshot::Take();
  const LoadResult load = ClosedLoop(stack->port, bodies, args.seed, args.seconds, nullptr);
  const ObsSnapshot after = ObsSnapshot::Take();
  const ServerStats stats = ServerStats::Read(stack->port);

  o.attempted = load.sent;
  o.failed = load.failed();
  o.correct = load.wrong_responses == 0;
  const uint64_t server_requests = after.http_requests - before.http_requests;
  const uint64_t parse_errors = after.http_parse_errors - before.http_parse_errors;
  if (parse_errors != 0 || (load.transport_errors == 0 && server_requests != load.sent)) {
    o.correct = false;
    o.info["check_failure"] = JsonString("server saw " + std::to_string(server_requests) +
                                         " requests (" + std::to_string(parse_errors) +
                                         " unparsed) for " + std::to_string(load.sent) + " sent");
  }
  const perfbench::Quantile p50 = load.latency.WindowP50(0.5);
  const perfbench::Quantile p90 = load.latency.WindowP90(0.5);
  const perfbench::Quantile p99 = load.latency.Percentile(0.99);
  o.info["latency_window_samples"] = std::to_string(p90.samples);
  o.info["latency_samples"] = std::to_string(p99.samples);
  o.info["transport_errors"] = std::to_string(load.transport_errors);
  o.info["non_200"] = std::to_string(load.bad_status);
  o.info["wrong_responses"] = std::to_string(load.wrong_responses);

  if (!args.trace) {
    o.metrics = {
        {"setup_s", perfbench::Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"latency_p50_ms", p50.value, "ms"},
        {"latency_p90_ms", p90.value, "ms"},
        {"throughput_ops", load.rate.Rate(0.5), "1/s"},
    };
    return o;
  }

  // Traced run: the same phase again on the same server, spans on.
  const LoadResult traced = ClosedLoop(stack->port, bodies, args.seed, args.seconds, spans);
  o.attempted += traced.sent;
  o.failed += traced.failed();
  if (traced.wrong_responses != 0) o.correct = false;

  // Layer unit costs the benchmark times itself.
  std::vector<double> parse_us;
  for (const Body& body : bodies) {
    TimeUs(kTimingReps, [&] {
      Scope s(spans, "net", "net.parse_json", kRoot);
      if (!fab::net::ParseJson(body.json).ok()) o.correct = false;
    }, &parse_us);
  }
  double kernel_us = 0.0;
  for (size_t k = 0; k < Keys().size(); ++k) {
    std::shared_ptr<const fab::serve::Servable> model =
        Must(stack->registry->Get(Keys()[k]), "kernel model");
    const Body& body = bodies[k * kBodiesPerKey];
    kernel_us += TimeUs(200, [&] {
      Scope s(spans, "serve", "serve.predict", kRoot);
      if (!perfbench::SameBits(model->Predict(body.row).front(), body.expected.front())) {
        o.correct = false;
      }
    });
  }
  kernel_us /= static_cast<double>(Keys().size());

  const double cpu_s = after.cpu_s - before.cpu_s;
  const double ok = std::max<double>(1.0, static_cast<double>(load.ok));
  o.metrics = {
      {"util.pool.tasks", static_cast<double>(after.pool_tasks - before.pool_tasks), "count"},
      {"util.pool.busy_s", (after.task_us_sum - before.task_us_sum) * 1e-6, "s"},
      {"util.pool.task_p50_us", TaskUsQuantile(before, after, 0.5), "us"},
      {"proc.cpu_s", cpu_s, "s"},
      {"proc.cpu_us_per_req", cpu_s * 1e6 / ok, "us"},
      {"net.server_p50_us", stats.server_p50_us, "us"},
      {"net.server_p99_us", stats.server_p99_us, "us"},
      {"net.json_parse_us", perfbench::Median(parse_us), "us"},
      {"net.http_requests", static_cast<double>(server_requests), "count"},
      {"net.http_parse_errors", static_cast<double>(parse_errors), "count"},
      {"net.router_shed", stats.shed - stats_before.shed, "count"},
      {"serve.queue_wait_p50_us", stats.queue_wait_p50_us, "us"},
      {"serve.queue_wait_p99_us", stats.queue_wait_p99_us, "us"},
      {"serve.batch_latency_p50_us", stats.batch_latency_p50_us, "us"},
      {"serve.mean_batch_rows", stats.completed / std::max(1.0, stats.batches), "rows"},
      {"serve.kernel_us", kernel_us, "us"},
      {"serve.snapshot_load_ms", perfbench::Median(load_ms), "ms"},
      {"loadgen.cpu_share", load.client_cpu_s / cpu_s, "ratio"},
      {"loadgen.latency_p99_ms", p99.value, "ms"},
      {"trace.overhead_share",
       traced.latency.WindowP50(0.5).value / p50.value - 1.0, "ratio"},
  };
  return o;
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  if (args.work.empty()) Die("run needs --work");
  fs::create_directories(args.work);
  const Jiffies j0 = Jiffies::Read();
  SpanRecorder spans(args.trace);
  Outcome o;
  if (args.workload == "pipeline_cold") {
    o = PipelineCold(args, &spans);
  } else if (args.workload == "predict_closed") {
    o = PredictClosed(args, &spans);
  } else {
    Die("unknown workload " + args.workload);
  }
  const Jiffies j1 = Jiffies::Read();
  const double steal_share =
      j1.total > j0.total ? (j1.steal - j0.steal) / (j1.total - j0.total) : 0.0;
  if (args.trace) {
    o.metrics.push_back({"host.steal_share", steal_share, "ratio"});
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << spans.ToJson() << "\n";
      if (!out) Die("cannot write " + args.trace_out);
    }
    for (const auto& [layer, seconds] : spans.SelfSeconds()) {
      std::printf("info self_s %s %.6f\n", layer.c_str(), seconds);
    }
  }
  std::ifstream loadavg("/proc/loadavg");
  double load1 = 0.0;
  loadavg >> load1;
  std::string info = "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                     ",\"compiler\":" + JsonString(kCompiler) +
                     ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                     ",\"fab_obs\":" + (kFabObs ? "true" : "false") +
                     ",\"steal_share\":" + JsonNum(steal_share) +
                     ",\"loadavg_1m\":" + JsonNum(load1);
  for (const auto& [k, v] : o.info) info += "," + JsonString(k) + ":" + v;
  info += "}";
  std::printf("info %s\n", info.c_str());
  std::printf("%s\n", perfbench::ResultJson(o.correct, o.attempted, o.failed, o.metrics).c_str());
  std::fflush(stdout);
  fs::remove_all(args.work);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.command == "fixture") return Fixture(args);
  if (args.command == "run") return Run(args);
  Die("unknown command " + args.command);
}
