// Observability overhead microbenchmark: what does a FAB_TRACE_SCOPE
// cost with the flight ring off, and with it on (the always-on
// production configuration, and the one sink a FAB_TRACE export reads)
// — and how much serving throughput does the ring give back?
//
//   ./obs_overhead [spans] [serve_rows]
//
// Reports ns/span for the two tiers and a BatchServer submit→complete
// rows/s under each, plus the flight/off throughput ratio perf_gate
// holds a floor on (an obs regression that halves serving throughput
// fails CI before it ships).

#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "ml/forest.h"
#include "serve/batch_server.h"
#include "serve/servable.h"
#include "util/obs/clock.h"
#include "util/obs/flight.h"
#include "util/obs/trace.h"
#include "util/obs/trace_context.h"
#include "util/random.h"

namespace {

volatile double g_sink = 0.0;

/// ns per span for the current flight-ring setting. The span body is
/// empty, so this is pure instrumentation cost.
double SpanNanos(size_t iters) {
  const auto start = fab::obs::Clock::Now();
  for (size_t i = 0; i < iters; ++i) {
    FAB_TRACE_SCOPE("bench/span");
  }
  const auto end = fab::obs::Clock::Now();
  return fab::obs::Clock::MicrosBetween(start, end) * 1000.0 /
         static_cast<double>(iters);
}

fab::ml::ColMatrix MakeMatrix(size_t n, size_t f, uint64_t seed) {
  fab::Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  return *fab::ml::ColMatrix::FromColumns(std::move(cols));
}

/// Submit→complete rows/s through a BatchServer under the current obs
/// configuration — the serving path every span/sample rides in prod.
double ServeRowsPerSec(fab::serve::BatchServer& server,
                       const std::shared_ptr<const fab::serve::Servable>& model,
                       const fab::ml::ColMatrix& queries) {
  using Forecasts = fab::Result<std::vector<double>>;
  const auto start = fab::obs::Clock::Now();
  std::vector<std::future<Forecasts>> pending;
  pending.reserve(queries.rows());
  for (size_t i = 0; i < queries.rows(); ++i) {
    const fab::obs::ScopedTraceId scope(fab::obs::MintTraceId());
    // One 1-row request per row, each awaited through a local promise
    // around its completion callback.
    auto done = std::make_shared<std::promise<Forecasts>>();
    std::future<Forecasts> forecast = done->get_future();
    const fab::Status submitted = server.Submit(
        model, queries.TakeRows({static_cast<int>(i)}),
        [done](Forecasts result) { done->set_value(std::move(result)); });
    if (submitted.ok()) pending.push_back(std::move(forecast));
  }
  double sum = 0.0;
  for (auto& f : pending) {
    const Forecasts result = f.get();
    if (result.ok()) sum += result->front();
  }
  g_sink = sum;
  const auto end = fab::obs::Clock::Now();
  const double seconds = fab::obs::Clock::MicrosBetween(start, end) / 1e6;
  return static_cast<double>(queries.rows()) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t kSpans =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000000;
  const size_t kRows = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8000;

  std::printf("=== obs_overhead: %zu spans, %zu serve rows ===\n\n", kSpans,
              kRows);
  fab::bench::BenchReporter reporter("obs_overhead");
  reporter.set_iters(kSpans);

  // --- Span cost per tier. --------------------------------------------------
  fab::obs::FlightSetEnabled(false);
  const double ns_off = SpanNanos(kSpans);

  fab::obs::FlightSetEnabled(true);
  const double ns_flight = SpanNanos(kSpans);
  fab::obs::FlightSetEnabled(false);

  std::printf("span cost:   off %7.1f ns   flight %7.1f ns\n", ns_off,
              ns_flight);
  reporter.AddScalar("span_ns_off", ns_off);
  reporter.AddScalar("span_ns_flight", ns_flight);

  // --- Serving throughput per tier. -----------------------------------------
  const size_t kFeatures = 20;
  const fab::ml::ColMatrix train = MakeMatrix(2000, kFeatures, 1);
  fab::Rng rng(2);
  std::vector<double> y(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    y[i] = train.at(i, 0) * train.at(i, 1) + 0.5 * train.at(i, 2) +
           0.1 * rng.Normal();
  }
  fab::ml::ForestParams params;
  params.n_trees = 50;
  params.max_depth = 8;
  fab::ml::RandomForestRegressor rf(params);
  fab::bench::DieIf(rf.Fit(train, y), "forest fit");
  auto servable = fab::bench::DieIfError(
      fab::serve::Servable::Wrap(
          std::make_unique<fab::ml::RandomForestRegressor>(rf)),
      "wrap");
  const fab::ml::ColMatrix queries = MakeMatrix(kRows, kFeatures, 3);

  fab::serve::BatchServerOptions options;
  options.num_threads = 2;
  options.max_batch = 128;
  fab::serve::BatchServer server(options);

  // Warm up the code paths before the measured runs.
  (void)ServeRowsPerSec(server, servable, queries);

  const double serve_off = ServeRowsPerSec(server, servable, queries);

  fab::obs::FlightSetEnabled(true);
  const double serve_flight = ServeRowsPerSec(server, servable, queries);
  fab::obs::FlightSetEnabled(false);

  const double ratio_flight = serve_off > 0.0 ? serve_flight / serve_off : 0.0;
  std::printf("serve rows/s: off %9.0f   flight %9.0f (%.2fx)\n", serve_off,
              serve_flight, ratio_flight);
  reporter.AddScalar("serve_rows_per_s_off", serve_off);
  reporter.AddScalar("serve_rows_per_s_flight", serve_flight);
  reporter.AddScalar("serve_ratio_flight", ratio_flight);

  server.Shutdown();
  fab::bench::DieIf(reporter.Write(), "bench report");
  return 0;
}
