// Serving-path microbenchmark: single-row virtual dispatch vs the
// flattened SoA kernel, plus the end-to-end BatchServer path.
//
//   ./serve_throughput [rows] [trees]
//
// Reports rows/sec for each prediction path and p50/p99 single-request
// latency, and checks the flat batched path clears the 2x acceptance bar
// over per-row virtual PredictOne. Each prediction path is timed as the
// median of kPasses passes, so one pass caught by a noisy neighbour on a
// shared host cannot flip the exit code.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "serve/batch_server.h"
#include "serve/flat_forest.h"
#include "serve/servable.h"
#include "util/random.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

fab::ml::ColMatrix MakeMatrix(size_t n, size_t f, uint64_t seed) {
  fab::Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  return *fab::ml::ColMatrix::FromColumns(std::move(cols));
}

/// Defeats dead-code elimination.
volatile double g_sink = 0.0;

constexpr int kPasses = 5;

/// Median wall time of kPasses runs of `pass`, in seconds.
template <typename Fn>
double MedianSeconds(const Fn& pass) {
  std::vector<double> seconds;
  for (int i = 0; i < kPasses; ++i) {
    const Clock::time_point start = Clock::now();
    pass();
    seconds.push_back(SecondsSince(start));
  }
  return Percentile(std::move(seconds), 0.5);
}

using Forecasts = fab::Result<std::vector<double>>;

}  // namespace

int main(int argc, char** argv) {
  const size_t kRows = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const int kTrees = argc > 2 ? std::atoi(argv[2]) : 100;
  const size_t kFeatures = 20;

  std::printf("=== serve_throughput: %zu rows, %d trees, %zu features ===\n\n",
              kRows, kTrees, kFeatures);
  fab::bench::BenchReporter reporter("serve_throughput");

  // Train once on a modest sample; inference is what we measure.
  const fab::ml::ColMatrix train = MakeMatrix(2000, kFeatures, 1);
  fab::Rng rng(2);
  std::vector<double> y(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    y[i] = train.at(i, 0) * train.at(i, 1) + 0.5 * train.at(i, 2) +
           0.1 * rng.Normal();
  }
  fab::ml::ForestParams params;
  params.n_trees = kTrees;
  params.max_depth = 10;
  fab::ml::RandomForestRegressor rf(params);
  if (!rf.Fit(train, y).ok()) {
    std::fprintf(stderr, "FATAL: forest fit failed\n");
    return 1;
  }
  const fab::ml::ColMatrix queries = MakeMatrix(kRows, kFeatures, 3);
  auto flat_result = fab::serve::FlatForest::FromRegressor(rf);
  if (!flat_result.ok()) {
    std::fprintf(stderr, "FATAL: flatten failed\n");
    return 1;
  }
  const fab::serve::FlatForest& flat = *flat_result;
  std::printf("flat kernel: %zu trees, %zu nodes (16 B/node vs 40 B/node)\n\n",
              flat.num_trees(), flat.num_nodes());

  // --- Batch paths: rows/sec. ----------------------------------------------
  const fab::ml::Regressor& virt = rf;  // force virtual dispatch
  const double sec_virtual_per_row = MedianSeconds([&] {
    double acc = 0.0;
    for (size_t r = 0; r < kRows; ++r) acc += virt.PredictOne(queries, r);
    g_sink = acc;
  });

  std::vector<double> batch_virtual;
  const double sec_virtual_batch = MedianSeconds([&] {
    batch_virtual = virt.Predict(queries);
    g_sink = batch_virtual.back();
  });

  std::vector<double> batch_flat;
  const double sec_flat_batch = MedianSeconds([&] {
    batch_flat = flat.Predict(queries);
    g_sink = batch_flat.back();
  });

  for (size_t r = 0; r < kRows; ++r) {
    if (batch_flat[r] != batch_virtual[r]) {
      std::fprintf(stderr, "FATAL: flat/virtual mismatch at row %zu\n", r);
      return 1;
    }
  }

  const double rows = static_cast<double>(kRows);
  std::printf("%-34s %12.0f rows/s\n", "virtual per-row PredictOne:",
              rows / sec_virtual_per_row);
  std::printf("%-34s %12.0f rows/s  (%.2fx vs per-row)\n",
              "virtual batch Predict (trees outer):",
              rows / sec_virtual_batch, sec_virtual_per_row / sec_virtual_batch);
  std::printf("%-34s %12.0f rows/s  (%.2fx vs per-row)\n",
              "flat batch Predict:", rows / sec_flat_batch,
              sec_virtual_per_row / sec_flat_batch);

  // --- Single-row latency: p50 / p99. --------------------------------------
  const size_t kLatencyProbes = std::min<size_t>(kRows, 4000);
  std::vector<double> lat_virtual, lat_flat;
  lat_virtual.reserve(kLatencyProbes);
  lat_flat.reserve(kLatencyProbes);
  for (size_t r = 0; r < kLatencyProbes; ++r) {
    auto s = Clock::now();
    g_sink = virt.PredictOne(queries, r);
    lat_virtual.push_back(SecondsSince(s) * 1e6);
    s = Clock::now();
    g_sink = flat.PredictOne(queries, r);
    lat_flat.push_back(SecondsSince(s) * 1e6);
  }
  std::printf("\nsingle-row latency (us):        p50      p99\n");
  std::printf("  virtual PredictOne        %7.2f  %7.2f\n",
              Percentile(lat_virtual, 0.50), Percentile(lat_virtual, 0.99));
  std::printf("  flat PredictOne           %7.2f  %7.2f\n",
              Percentile(lat_flat, 0.50), Percentile(lat_flat, 0.99));

  // --- End-to-end BatchServer path. ----------------------------------------
  auto servable =
      fab::serve::Servable::Wrap(std::make_unique<fab::ml::RandomForestRegressor>(rf));
  if (!servable.ok()) {
    std::fprintf(stderr, "FATAL: wrap failed\n");
    return 1;
  }
  fab::serve::BatchServerOptions options;
  options.num_threads = 2;
  options.max_batch = 128;
  fab::serve::BatchServer server(options);

  const size_t kServerRequests = std::min<size_t>(kRows, 20000);
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = static_cast<size_t>(c); r < kServerRequests;
           r += kClients) {
        // Closed loop: each client waits for its 1-row request through a
        // local promise around the completion callback.
        auto done = std::make_shared<std::promise<Forecasts>>();
        std::future<Forecasts> forecast = done->get_future();
        if (!server
                 .Submit(*servable, queries.TakeRows({static_cast<int>(r)}),
                         [done](Forecasts result) {
                           done->set_value(std::move(result));
                         })
                 .ok()) {
          continue;
        }
        const Forecasts result = forecast.get();
        if (result.ok()) g_sink = result->front();
      }
    });
  }
  for (auto& client : clients) client.join();
  const fab::serve::BatchServerStats stats = server.Stats();
  std::printf("\nBatchServer (%d clients, %d runner slots, max_batch=%zu):\n",
              kClients, options.num_threads, options.max_batch);
  std::printf("  %llu requests in %llu batches (mean batch %.1f)\n",
              static_cast<unsigned long long>(stats.requests_completed),
              static_cast<unsigned long long>(stats.batches_run),
              stats.mean_batch_size);
  std::printf("  %12.0f rows/s   p50 %.0f us   p99 %.0f us\n",
              stats.rows_per_sec, stats.p50_latency_us, stats.p99_latency_us);

  const double speedup = sec_virtual_per_row / sec_flat_batch;
  std::printf("\nflat-batched vs per-row virtual speedup: %.2fx  [%s]\n",
              speedup, speedup >= 2.0 ? "PASS >= 2x" : "FAIL < 2x");

  reporter.set_iters(kRows);
  reporter.AddScalar("trees", kTrees);
  reporter.AddScalar("rows_per_s_virtual_per_row", rows / sec_virtual_per_row);
  reporter.AddScalar("rows_per_s_virtual_batch", rows / sec_virtual_batch);
  reporter.AddScalar("rows_per_s_flat_batch", rows / sec_flat_batch);
  reporter.AddScalar("flat_vs_per_row_speedup", speedup);
  reporter.AddScalar("server_rows_per_s", stats.rows_per_sec);
  reporter.AddJson("server_statsz", server.StatszJson());
  fab::bench::DieIf(reporter.Write(), "bench report");

  return speedup >= 2.0 ? 0 : 1;
}
