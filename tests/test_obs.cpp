// The observability layer: counter/gauge/histogram semantics, registry
// snapshot isolation, and the Prometheus / JSON exposition formats.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/pipeline.h"
#include "obs/stage_timer.h"

using namespace infilter;

namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  obs::Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-4.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.5);
}

TEST(Histogram, BucketBoundsAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1   -> bucket 0
  h.observe(1.0);  // == 1   -> bucket 0 (inclusive)
  h.observe(1.5);  // <= 2   -> bucket 1
  h.observe(4.0);  // == 4   -> bucket 2
  h.observe(9.0);  // > last -> overflow
  const auto snapshot = h.snapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);  // overflow
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(Histogram, ExponentialBounds) {
  const auto bounds = obs::Histogram::exponential_bounds(0.5, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.5);
  EXPECT_DOUBLE_EQ(bounds[1], 1.0);
  EXPECT_DOUBLE_EQ(bounds[2], 2.0);
  EXPECT_DOUBLE_EQ(bounds[3], 4.0);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  obs::Histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);   // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);  // bucket (10, 20]
  const auto snapshot = h.snapshot();
  // Rank 10 of 20 is the last observation of the first bucket: its upper
  // edge. Rank 20 is the last of the second.
  EXPECT_DOUBLE_EQ(snapshot.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(snapshot.quantile(1.0), 20.0);
  // Rank 15 sits halfway through the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(snapshot.quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 10.0);
}

TEST(Histogram, QuantileEdgeCases) {
  obs::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.snapshot().quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.snapshot().mean(), 0.0);

  // All mass in overflow: quantiles clamp to the last finite bound.
  obs::Histogram overflow({1.0, 2.0});
  overflow.observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.snapshot().quantile(0.5), 2.0);
}

TEST(Registry, RegistrationIsIdempotent) {
  obs::Registry registry;
  auto& a = registry.counter("x_total", "a counter");
  auto& b = registry.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);

  auto& h1 = registry.histogram("h_us", {1.0, 2.0});
  auto& h2 = registry.histogram("h_us", {9.0});  // bounds ignored on re-reg
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Registry, SnapshotIsIsolatedFromLaterUpdates) {
  obs::Registry registry;
  auto& counter = registry.counter("events_total");
  auto& histogram = registry.histogram("lat_us", {1.0, 10.0});
  counter.inc(5);
  histogram.observe(0.5);

  const auto snapshot = registry.snapshot();
  counter.inc(100);
  histogram.observe(0.5);

  EXPECT_DOUBLE_EQ(snapshot.value("events_total"), 5.0);
  const auto* h = snapshot.histogram("lat_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(counter.value(), 105u);
}

TEST(Registry, SnapshotSortsByNameAndFindsMetrics) {
  obs::Registry registry;
  registry.counter("zzz_total").inc();
  registry.gauge("aaa").set(1.0);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 2u);
  EXPECT_EQ(snapshot.metrics[0].name, "aaa");
  EXPECT_EQ(snapshot.metrics[1].name, "zzz_total");
  EXPECT_EQ(snapshot.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.value("missing", -7.0), -7.0);
}

TEST(Registry, CallbackMetricsAreSampledAtSnapshotTime) {
  obs::Registry registry;
  std::uint64_t ticks = 0;
  double level = 0.0;
  registry.counter_fn("ticks_total", [&] { return ticks; });
  registry.gauge_fn("level", [&] { return level; });
  // Re-registration of a callback name is a no-op.
  registry.counter_fn("ticks_total", [] { return std::uint64_t{999}; });

  ticks = 12;
  level = 3.5;
  const auto snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.value("ticks_total"), 12.0);
  EXPECT_DOUBLE_EQ(snapshot.value("level"), 3.5);
}

TEST(Histogram, ObserveNMatchesNSingleObservations) {
  obs::Histogram batched({1.0, 4.0, 16.0});
  obs::Histogram single({1.0, 4.0, 16.0});
  batched.observe_n(2.5, 0);  // no-op
  EXPECT_EQ(batched.count(), 0u);
  EXPECT_DOUBLE_EQ(batched.snapshot().sum, 0.0);

  for (const auto& [value, n] : {std::pair{2.5, 7u}, std::pair{0.5, 3u},
                                 std::pair{40.0, 2u}, std::pair{4.0, 1u}}) {
    batched.observe_n(value, n);
    for (unsigned i = 0; i < n; ++i) single.observe(value);
  }
  const auto a = batched.snapshot();
  const auto b = single.snapshot();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, 13u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  for (const double q : {0.1, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << q;
  }
}

TEST(StageTimer, RecordsIntoHistogramOnceAndNullDisables) {
  obs::Histogram h({1e9});
  {
    obs::StageTimer timer(&h, 64);
    const double elapsed = timer.stop();
    EXPECT_GE(elapsed, 0.0);
    EXPECT_DOUBLE_EQ(timer.stop(), 0.0);  // idempotent
    // One elapsed time, recorded as 64 observations of it.
    EXPECT_EQ(h.count(), 64u);
    EXPECT_DOUBLE_EQ(h.snapshot().sum, 64.0 * elapsed);
  }
  EXPECT_EQ(h.count(), 64u);  // scope exit after stop() records nothing
  {
    obs::StageTimer timer(&h, 1);
  }
  EXPECT_EQ(h.count(), 65u);  // scope exit records when not stopped

  obs::StageTimer disabled(nullptr, 64);
  EXPECT_DOUBLE_EQ(disabled.stop(), 0.0);
  obs::StageTimer unsampled(&h, 0);  // a run the StageSampler skips
  EXPECT_DOUBLE_EQ(unsampled.stop(), 0.0);
  EXPECT_EQ(h.count(), 65u);
}

TEST(StageSampler, OneTimedRunPerWindowWeightsSumToRuns) {
  for (const std::size_t runs : {1u, 2u, 7u, 63u, 64u, 65u, 128u, 200u, 1000u}) {
    for (const std::size_t phase : {0u, 5u, 37u, 63u}) {
      SCOPED_TRACE(::testing::Message() << "runs " << runs << " phase " << phase);
      const obs::StageSampler sampler(runs, phase);
      std::uint64_t weight_sum = 0;
      std::size_t timed = 0;
      for (std::size_t run = 0; run < runs; ++run) {
        const std::uint64_t weight = sampler.weight(run);
        if (weight == 0) continue;
        ++timed;
        weight_sum += weight;
        // The timed run lies inside the window its weight covers.
        const std::size_t window = run / obs::StageSampler::kStride;
        EXPECT_EQ(weight, std::min(obs::StageSampler::kStride,
                                   runs - window * obs::StageSampler::kStride));
      }
      EXPECT_EQ(weight_sum, runs);
      EXPECT_EQ(timed, (runs + obs::StageSampler::kStride - 1) /
                           obs::StageSampler::kStride);
    }
  }
  // A batch of one is always timed; a full window is not pinned to its head.
  EXPECT_EQ(obs::StageSampler(1, 37).weight(0), 1u);
  EXPECT_EQ(obs::StageSampler(64, 37).weight(0), 0u);
  EXPECT_EQ(obs::StageSampler(64, 37).weight(37), 64u);
}

TEST(PipelineMetrics, RegistersTheDocumentedSchema) {
  obs::Registry registry;
  obs::PipelineMetrics metrics(registry);
  metrics.flows_total->inc(2);
  metrics.stage_eia_us->observe(1.0);
  const auto snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.value("infilter_flows_total"), 2.0);
  EXPECT_NE(snapshot.histogram("infilter_stage_eia_latency_us"), nullptr);
  EXPECT_NE(snapshot.histogram("infilter_process_latency_us"), nullptr);
  EXPECT_NE(snapshot.find("infilter_verdict_cleared_learned_total"), nullptr);
  // Two engines sharing a registry share the instruments.
  obs::PipelineMetrics again(registry);
  EXPECT_EQ(again.flows_total, metrics.flows_total);
}

TEST(Export, FormatNumber) {
  EXPECT_EQ(obs::format_number(42.0), "42");
  EXPECT_EQ(obs::format_number(-3.0), "-3");
  EXPECT_EQ(obs::format_number(2.5), "2.5");
}

TEST(Export, PrometheusTextFormat) {
  obs::Registry registry;
  registry.counter("requests_total", "Total requests").inc(3);
  auto& h = registry.histogram("latency_us", {1.0, 2.0}, "Latency");
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);

  const std::string expected =
      "# HELP latency_us Latency\n"
      "# TYPE latency_us histogram\n"
      "latency_us_bucket{le=\"1\"} 1\n"
      "latency_us_bucket{le=\"2\"} 2\n"
      "latency_us_bucket{le=\"+Inf\"} 3\n"
      "latency_us_sum 101\n"
      "latency_us_count 3\n"
      "# HELP requests_total Total requests\n"
      "# TYPE requests_total counter\n"
      "requests_total 3\n";
  EXPECT_EQ(obs::to_prometheus(registry.snapshot()), expected);
}

TEST(Export, JsonFormat) {
  obs::Registry registry;
  registry.gauge("depth").set(1.5);
  auto& h = registry.histogram("t_us", {2.0});
  h.observe(1.0);

  const std::string expected =
      "{\"metrics\":["
      "{\"name\":\"depth\",\"kind\":\"gauge\",\"value\":1.5},"
      "{\"name\":\"t_us\",\"kind\":\"histogram\",\"count\":1,\"sum\":1,"
      "\"buckets\":[{\"le\":2,\"count\":1}],\"overflow\":0,"
      "\"p50\":2,\"p95\":2,\"p99\":2,\"p999\":2}"
      "]}";
  EXPECT_EQ(obs::to_json(registry.snapshot()), expected);
}

// Text-exposition-format conformance, checked by parsing the output
// rather than pinning it: histogram buckets must be cumulative and
// monotone, the +Inf bucket must exist and equal _count, _sum/_count
// series must be present, and HELP text must escape backslash + newline.
TEST(Export, PrometheusConformance) {
  obs::Registry registry;
  registry.counter("evil_total", "line one\nline two with a \\ backslash").inc(7);
  auto& h = registry.histogram("lat_us", {1.0, 2.0, 4.0}, "Latency");
  h.observe(0.5);
  h.observe(3.0);
  h.observe(3.5);
  h.observe(50.0);  // overflow

  const std::string text = obs::to_prometheus(registry.snapshot());

  // HELP escaping: the raw newline and backslash must not survive.
  EXPECT_NE(text.find("# HELP evil_total line one\\nline two with a \\\\ backslash\n"),
            std::string::npos);
  EXPECT_EQ(text.find("line one\nline two"), std::string::npos);

  // Parse every lat_us_bucket line in order.
  std::vector<std::pair<std::string, double>> buckets;  // (le, cumulative)
  double sum_value = -1.0;
  double count_value = -1.0;
  std::size_t type_lines = 0;
  std::size_t at = 0;
  while (at < text.size()) {
    const auto end = text.find('\n', at);
    const std::string line = text.substr(at, end - at);
    at = end == std::string::npos ? text.size() : end + 1;
    if (line.rfind("# TYPE lat_us ", 0) == 0) {
      ++type_lines;
      EXPECT_EQ(line, "# TYPE lat_us histogram");
    } else if (line.rfind("lat_us_bucket{le=\"", 0) == 0) {
      const auto quote = line.find('"', 18);
      ASSERT_NE(quote, std::string::npos);
      const auto space = line.rfind(' ');
      buckets.emplace_back(line.substr(18, quote - 18),
                           std::stod(line.substr(space + 1)));
    } else if (line.rfind("lat_us_sum ", 0) == 0) {
      sum_value = std::stod(line.substr(11));
    } else if (line.rfind("lat_us_count ", 0) == 0) {
      count_value = std::stod(line.substr(13));
    }
  }

  EXPECT_EQ(type_lines, 1u);
  ASSERT_EQ(buckets.size(), 4u);  // three finite bounds + the +Inf terminator
  EXPECT_EQ(buckets.back().first, "+Inf");
  for (std::size_t b = 1; b < buckets.size(); ++b) {
    EXPECT_GE(buckets[b].second, buckets[b - 1].second)
        << "bucket counts must be cumulative";
  }
  // Cumulative values: 1 (<=1), 1 (<=2), 3 (<=4), 4 (+Inf).
  EXPECT_DOUBLE_EQ(buckets[0].second, 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].second, 1.0);
  EXPECT_DOUBLE_EQ(buckets[2].second, 3.0);
  EXPECT_DOUBLE_EQ(buckets[3].second, 4.0);
  EXPECT_DOUBLE_EQ(count_value, 4.0);
  EXPECT_DOUBLE_EQ(buckets.back().second, count_value)
      << "+Inf bucket must equal _count";
  EXPECT_DOUBLE_EQ(sum_value, 0.5 + 3.0 + 3.5 + 50.0);
}

}  // namespace
