// Tests of the benchmark's own helpers (helpers.h, spans.h). Run by
// test_run.py; exits non-zero when any check fails.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "helpers.h"
#include "spans.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

using namespace perfbench;

void TestNearestRank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(NearestRank(v, 0.50).value == 50.0);
  EXPECT(NearestRank(v, 0.99).value == 99.0);
  EXPECT(NearestRank(v, 1.00).value == 100.0);
  EXPECT(NearestRank(v, 0.99).samples == 100);
  EXPECT(NearestRank({7.0}, 0.99).value == 7.0);
  EXPECT(NearestRank({3.0, 1.0}, 0.5).value == 1.0);
  EXPECT(NearestRank({}, 0.5).samples == 0);
  EXPECT(NearestRank({}, 0.5).value == 0.0);
  EXPECT(Median({5.0, 1.0, 3.0}) == 3.0);
}

void TestLatencyLog() {
  // Windows of four: the middle one is a noise episode; 99 is left over.
  LatencyLog log(4);
  for (double ms : {1, 2, 3, 4, 50, 60, 70, 80, 1, 2, 3, 5, 99}) log.Add(ms);
  EXPECT(log.count() == 13);
  EXPECT(log.WindowP90(0.1).value == 4.0);  // window p90s 4, 80, 5; lowest tenth
  EXPECT(log.WindowP90(0.1).samples == 12);
  EXPECT(log.WindowP90(1.0).value == 80.0);
  EXPECT(log.WindowP50(0.5).value == 2.0);  // window p50s 2, 60, 2
  // The histogram keeps every sample, within 1% above the exact value.
  const Quantile top = log.Percentile(1.0);
  EXPECT(top.samples == 13);
  EXPECT(top.value >= 99.0 && top.value <= 99.0 * 1.01);
  EXPECT(log.Percentile(0.01).value >= 1.0 && log.Percentile(0.01).value <= 1.01);

  LatencyLog a(2);
  LatencyLog b(2);
  for (int i = 1; i <= 1000; ++i) (i % 2 == 0 ? a : b).Add(i * 0.01);
  a.Add(7.0);  // an unfinished window of a
  a.Merge(b);
  EXPECT(a.count() == 1001);
  EXPECT(a.WindowP50(1.0).samples == 1000);
  const double p99 = a.Percentile(0.99).value;  // exact nearest rank: 9.90
  EXPECT(p99 >= 9.90 && p99 <= 9.90 * 1.01);
  EXPECT(LatencyLog(4).Percentile(0.5).samples == 0);
  EXPECT(LatencyLog(4).WindowP50(0.5).value == 0.0);
}

void TestRateLog() {
  RateLog rate(0.5, 10.0);
  for (int i = 0; i < 10; ++i) rate.Add(0.05 * i);        // 0 .. 0.45
  for (int i = 0; i < 30; ++i) rate.Add(0.5 + 0.01 * i);  // 0.5 .. 0.79
  rate.Add(1.2);  // ends the run inside the third slot, which is dropped
  RateLog other(0.5, 10.0);
  other.Add(0.1);
  rate.Merge(other);
  // Slot 0: 11 completions over 0.45 s; slot 1: 30 over 0.29 s.
  EXPECT(std::fabs(rate.Rate(0.9) - 29.0 / 0.29) < 1e-9);
  EXPECT(std::fabs(rate.Rate(0.1) - 10.0 / 0.45) < 1e-9);
  rate.Add(-1.0);  // before the phase: not counted
  EXPECT(std::fabs(rate.Rate(0.1) - 10.0 / 0.45) < 1e-9);
  EXPECT(RateLog(0.5, 10.0).Rate(0.5) == 0.0);
}

void TestForecasts() {
  const std::vector<double> expected = {0.1, -2.5, 1e-300};
  char body[256];
  std::snprintf(body, sizeof body, "{\"forecasts\":[%.17g,%.17g,%.17g],\"shard\":1}",
                expected[0], expected[1], expected[2]);
  EXPECT(CountWrongForecasts(body, expected) == 0);
  // One ulp off is wrong.
  std::vector<double> off = expected;
  off[1] = std::nextafter(off[1], 0.0);
  EXPECT(CountWrongForecasts(body, off) == 1);
  // Short output counts every forecast as wrong; so does garbage.
  EXPECT(CountWrongForecasts("{\"forecasts\":[0.1],\"shard\":0}", expected) == 3);
  EXPECT(CountWrongForecasts("{\"error\":\"busy\"}", expected) == 3);
  EXPECT(CountWrongForecasts("{\"forecasts\":[\"nan\"]}", {0.0}) == 1);
  EXPECT(ParseForecasts("{\"forecasts\":[]}")->empty());
  EXPECT(!SameBits(0.0, -0.0));
}

fab::core::FinalFeatureVector Vector() {
  fab::core::FinalFeatureVector v;
  v.features = {"btc_close", "gold"};
  v.fra_ranked = {"btc_close"};
  v.shap_ranked = {"gold", "btc_close"};
  v.overlap_fra_shap_top100 = 1;
  return v;
}

fab::core::ImprovementResult Improvement() {
  fab::core::ImprovementResult r;
  r.diverse_mse = 0.25;
  fab::core::CategoryImprovement c;
  c.category = static_cast<fab::sim::DataCategory>(0);
  c.single_mse = 0.5;
  c.diverse_mse = 0.25;
  c.improvement_pct = 100.0;
  r.per_category.push_back(c);
  return r;
}

void TestPipelineChecks() {
  const std::vector<fab::core::FinalFeatureVector> vs = {Vector()};
  const std::vector<fab::core::ImprovementResult> rs = {Improvement()};
  EXPECT(CheckPipeline(vs, rs, 1, 100).empty());
  EXPECT(!CheckPipeline(vs, rs, 2, 100).empty());
  EXPECT(!CheckPipeline(vs, rs, 1, 0).empty());  // FRA kept more than allowed
  auto empty = vs;
  empty[0].features.clear();
  EXPECT(!CheckPipeline(empty, rs, 1, 100).empty());
  auto nan = rs;
  nan[0].per_category[0].improvement_pct = std::numeric_limits<double>::quiet_NaN();
  EXPECT(!CheckPipeline(vs, nan, 1, 100).empty());

  const std::string d = PipelineDigest(vs, rs);
  EXPECT(d.size() == 16);
  EXPECT(d == PipelineDigest(vs, rs));
  auto moved = rs;
  moved[0].diverse_mse = std::nextafter(moved[0].diverse_mse, 1.0);
  EXPECT(d != PipelineDigest(vs, moved));
  auto renamed = vs;
  renamed[0].shap_ranked = {"btc_close", "gold"};
  EXPECT(d != PipelineDigest(renamed, rs));
}

void TestResultJson() {
  EXPECT(ResultJson(true, 3, 1, {{"latency_ms", 1.25, "ms"}}) ==
         "{\"correct\":true,\"attempted\":3,\"failed\":1,\"metrics\":"
         "{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}");
  // All 17 significant digits survive.
  EXPECT(ResultJson(true, 1, 0, {{"x", 0.1, "s"}}).find("0.10000000000000001") !=
         std::string::npos);
  // A non-finite value marks the run incorrect instead of breaking the JSON.
  const std::string bad =
      ResultJson(true, 1, 0, {{"x", std::numeric_limits<double>::infinity(), "s"}});
  EXPECT(bad.find("\"correct\":false") != std::string::npos);
  EXPECT(bad.find("inf") == std::string::npos);
}

void TestSpans() {
  SpanRecorder off(false);
  {
    SpanRecorder::Scope s(&off, "core", "x", SpanRecorder::kNoParent);
    EXPECT(s.id() == SpanRecorder::kNoParent);
  }
  EXPECT(off.Spans().empty());

  SpanRecorder rec(true);
  {
    SpanRecorder::Scope root(&rec, "bench", "root", SpanRecorder::kNoParent);
    SpanRecorder::Scope child(&rec, "core", "child", root.id());
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  const std::vector<SpanRecorder::Span> spans = rec.Spans();
  EXPECT(spans.size() == 2);
  EXPECT(rec.Durations("child").size() == 1);
  const auto self = rec.SelfSeconds();
  // The root's time is almost all covered by its child.
  EXPECT(self.at("core") >= 0.002);
  EXPECT(self.at("bench") < self.at("core"));
  EXPECT(rec.ToJson().find("\"self_s\":{") != std::string::npos);
}

}  // namespace

int main() {
  TestNearestRank();
  TestLatencyLog();
  TestRateLog();
  TestForecasts();
  TestPipelineChecks();
  TestResultJson();
  TestSpans();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("helpers_test: all checks passed\n");
  return 0;
}
