// Tests for the flight recorder (obs/trace.h): the SPSC trace ring's
// wraparound and overflow-drop accounting, the Chrome-trace export and its
// flight-recorder (drain-once) semantics, the stall detector, and -- at the
// runtime level -- the span-tiling identity: a sampled record's spans sum
// to exactly the end-to-end latency the histograms report. The concurrency
// tests double as the TSan lane's evidence that snapshots and exports can
// run against live trace-ring writers.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/runtime.h"

namespace infilter {
namespace {

using obs::SpanKind;
using obs::ThreadState;
using obs::TraceEvent;
using obs::Tracer;
using obs::TracerConfig;
using obs::TraceRing;

// -- TraceRing ---------------------------------------------------------------

TEST(TraceRing, CapacityRoundsUpToPowerOfTwoWithMinimumTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 2u);
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRing, FifoOrderAcrossManyWraparounds) {
  TraceRing ring(8);
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  TraceEvent out;
  // Uneven push/pop rhythm so head and tail cross the wrap point at
  // different offsets (same shape as the SpscRing test).
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 1 + round % 7; ++i) {
      if (!ring.try_push(TraceEvent{1, 1, next_push, SpanKind::kDecode})) break;
      ++next_push;
    }
    for (int i = 0; i < 1 + round % 5 && ring.try_pop(out); ++i) {
      ASSERT_EQ(out.id, next_pop);
      ++next_pop;
    }
  }
  while (ring.try_pop(out)) {
    ASSERT_EQ(out.id, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_TRUE(ring.empty());
}

TEST(TraceRing, FullRingRejectsAndFreedSlotIsReusable) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push(TraceEvent{i, 1, i, SpanKind::kEia}));
  }
  EXPECT_FALSE(ring.try_push(TraceEvent{99, 1, 99, SpanKind::kEia}));
  TraceEvent out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out.id, 0u);
  EXPECT_TRUE(ring.try_push(TraceEvent{4, 1, 4, SpanKind::kEia}));
  for (std::uint64_t expect = 1; expect <= 4; ++expect) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out.id, expect);
  }
}

// -- ThreadLane --------------------------------------------------------------

// A full ring must lose the *new* event (the recorder never blocks or
// overwrites in-flight history) and count every loss.
TEST(ThreadLane, OverflowDropsNewestAndCountsEveryLoss) {
  obs::ThreadLane lane("worker", "worker", /*ring_capacity=*/4, {});
  for (std::uint64_t i = 0; i < 6; ++i) {
    lane.emit(SpanKind::kProcess, 100 + i, 10, i);
  }
  EXPECT_EQ(lane.events_emitted(), 4u);
  EXPECT_EQ(lane.events_dropped(), 2u);

  std::vector<TraceEvent> events;
  lane.drain(events);
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].id, i);  // oldest kept

  // Drained capacity is reusable; accounting keeps running totals.
  lane.emit(SpanKind::kProcess, 200, 10, 42);
  EXPECT_EQ(lane.events_emitted(), 5u);
  EXPECT_EQ(lane.events_dropped(), 2u);
}

TEST(ThreadLane, RetireStopsLaneAndDetachesQueueProbe) {
  obs::ThreadLane lane("decode", "decode", 8, [] { return std::size_t{7}; });
  EXPECT_EQ(lane.queue_depth(), 7u);
  EXPECT_EQ(lane.state(), ThreadState::kIdle);
  lane.retire();
  EXPECT_EQ(lane.state(), ThreadState::kStopped);
  EXPECT_EQ(lane.queue_depth(), 0u);  // probe gone, not dangling
}

// -- Tracer ------------------------------------------------------------------

TEST(Tracer, SamplingArithmeticAndMonotonicClock) {
  TracerConfig config;
  config.sample_every = 4;
  Tracer tracer(config);
  EXPECT_TRUE(tracer.sampled(0));
  EXPECT_TRUE(tracer.sampled(4));
  EXPECT_FALSE(tracer.sampled(1));
  EXPECT_FALSE(tracer.sampled(7));

  TracerConfig all;
  all.sample_every = 0;  // coerced to 1: everything sampled
  EXPECT_EQ(Tracer(all).sample_every(), 1u);

  const auto t0 = Tracer::now_ns();
  const auto t1 = Tracer::now_ns();
  EXPECT_NE(t0, 0u);  // 0 means "unsampled" pipeline-wide
  EXPECT_GE(t1, t0);
}

TEST(Tracer, ChromeTraceJsonRebasesDrainsAndNamesThreads) {
  TracerConfig config;
  config.enabled = true;
  Tracer tracer(config);
  auto* recv = tracer.register_thread("recv-0", "receiver");
  auto* scan = tracer.register_thread("scan", "scan");
  // Fabricated stamps: earliest start must rebase to ts 0.000.
  recv->emit(SpanKind::kQueueIngest, 5'000'000'000, 2500, 64);
  scan->emit(SpanKind::kScanNns, 5'000'001'000, 1000, 64);

  const auto json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"recv-0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"scan\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue_ingest\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scan_nns\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"id\":64}"), std::string::npos);

  // Flight-recorder semantics: a second export has the thread metadata but
  // no span events (they were drained).
  const auto empty = tracer.chrome_trace_json();
  EXPECT_EQ(empty.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(empty.find("\"args\":{\"name\":\"recv-0\"}"), std::string::npos);
}

TEST(Tracer, RegistryExposesCountsRolesAndExternalValueMetrics) {
  obs::Registry external;
  TracerConfig config;
  config.registry = &external;
  Tracer tracer(config);
  auto* a = tracer.register_thread("shard-0", "worker");
  tracer.register_thread("shard-1", "worker");
  tracer.register_thread("decode", "decode");
  a->emit(SpanKind::kProcess, 1, 1, 0);
  tracer.e2e_us->observe(5.0);

  const auto snap = tracer.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("infilter_trace_threads"), 3.0);
  EXPECT_DOUBLE_EQ(snap.value("infilter_pipeline_threads_worker"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("infilter_pipeline_threads_decode"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("infilter_trace_events_total"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("infilter_trace_dropped_total"), 0.0);

  // Value instruments live in the caller's registry; `this`-capturing pull
  // gauges stay tracer-private (the external registry may outlive us).
  const auto ext = external.snapshot();
  ASSERT_NE(ext.histogram("infilter_e2e_latency_us"), nullptr);
  EXPECT_EQ(ext.histogram("infilter_e2e_latency_us")->count, 1u);
  EXPECT_EQ(ext.find("infilter_trace_threads"), nullptr);
  EXPECT_EQ(ext.find("infilter_trace_events_total"), nullptr);

  a->retire();
  const auto after = tracer.snapshot();
  EXPECT_DOUBLE_EQ(after.value("infilter_trace_threads"), 2.0);
  EXPECT_DOUBLE_EQ(after.value("infilter_pipeline_threads_worker"), 1.0);
}

// The stall detector's definition: progress stopped AND input queued.
// Empty-queue idleness and advancing threads are healthy; retired lanes
// are invisible.
TEST(Tracer, StallDetectorFlagsOnlyStuckThreadsWithBacklog) {
  Tracer tracer;
  auto* stuck = tracer.register_thread("stuck", "worker", [] { return std::size_t{3}; });
  auto* idle = tracer.register_thread("idle", "worker", [] { return std::size_t{0}; });
  auto* alive = tracer.register_thread("alive", "worker", [] { return std::size_t{5}; });
  auto* dead = tracer.register_thread("dead", "worker", [] { return std::size_t{9}; });
  stuck->set_state(ThreadState::kBlocked);
  dead->retire();

  // First scan only establishes progress baselines.
  EXPECT_TRUE(tracer.scan_liveness(0.0).empty());

  alive->heartbeat();  // progress between scans: healthy
  const auto stalls = tracer.scan_liveness(0.0);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].name, "stuck");
  EXPECT_EQ(stalls[0].state, ThreadState::kBlocked);
  EXPECT_EQ(stalls[0].queued, 3u);
  EXPECT_GE(stalls[0].stalled_for_ms, 0.0);
  EXPECT_DOUBLE_EQ(tracer.snapshot().value("infilter_trace_threads_stalled"), 1.0);
  (void)idle;

  // Progress clears the flag on the next scan. (Every backlogged lane must
  // advance between scans: with a zero threshold, going quiet for one scan
  // interval *is* a stall.)
  stuck->heartbeat();
  alive->heartbeat();
  EXPECT_TRUE(tracer.scan_liveness(0.0).empty());
  EXPECT_DOUBLE_EQ(tracer.snapshot().value("infilter_trace_threads_stalled"), 0.0);

  // A long threshold keeps a fresh backlog from being flagged.
  EXPECT_TRUE(tracer.scan_liveness(1e9).empty());
}

// Live writers vs. every reader the monitor uses: snapshot scrapes,
// liveness scans, and Chrome-trace drains must all be safe against lanes
// that are emitting (and registering) concurrently. Run under
// INFILTER_SANITIZE=thread this pins the absence of data races.
TEST(Tracer, ConcurrentWritersWithLiveSnapshotsAndExports) {
  TracerConfig config;
  config.ring_capacity = 256;  // small: force overflow accounting too
  config.enabled = true;
  Tracer tracer(config);
  constexpr int kWriters = 3;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto* lane = tracer.register_thread("w" + std::to_string(w), "worker",
                                          [] { return std::size_t{1}; });
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        lane->set_state(ThreadState::kBusy);
        lane->emit(SpanKind::kProcess, Tracer::now_ns(), 100, i);
        lane->heartbeat();
      }
      lane->retire();
    });
  }
  go.store(true, std::memory_order_release);
  std::vector<TraceEvent> drained_count_probe;
  std::uint64_t json_bytes = 0;
  for (int scrape = 0; scrape < 50; ++scrape) {
    json_bytes += tracer.chrome_trace_json().size();
    (void)tracer.scan_liveness(1.0);
    (void)tracer.snapshot();
  }
  for (auto& t : writers) t.join();
  EXPECT_GT(json_bytes, 0u);
  EXPECT_EQ(tracer.events_emitted() + tracer.events_dropped(),
            kWriters * kPerWriter);
  (void)drained_count_probe;
}

// -- Runtime integration -----------------------------------------------------

netflow::V5Record simple_flow(std::uint32_t salt) {
  netflow::V5Record r;
  r.src_ip = net::IPv4Address{(10u << 24) | (salt << 8)};
  r.dst_ip = *net::IPv4Address::parse("100.64.0.1");
  r.proto = 6;
  r.src_port = 40000;
  r.dst_port = 80;
  r.packets = 10;
  r.bytes = 5000;
  r.first = salt;
  r.last = salt + 10;
  return r;
}

/// Submits `item` alone, as a batch of one; true when it was accepted.
bool submit_one(runtime::ShardedRuntime& rt, const runtime::FlowItem& item) {
  return rt.submit_batch(std::span<const runtime::FlowItem>(&item, 1)) == 1;
}

struct ParsedSpan {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  std::uint64_t id = 0;
};

/// Minimal extraction of the "X" events from our own Chrome-trace output.
std::vector<ParsedSpan> parse_spans(const std::string& json) {
  std::vector<ParsedSpan> spans;
  std::size_t at = 0;
  while ((at = json.find("\"ph\":\"X\"", at)) != std::string::npos) {
    const auto obj = json.rfind('{', at);
    const auto name_at = json.find("\"name\":\"", obj) + 8;
    const auto ts_at = json.find("\"ts\":", at) + 5;
    const auto dur_at = json.find("\"dur\":", at) + 6;
    const auto id_at = json.find("\"id\":", at) + 5;
    spans.push_back(ParsedSpan{
        json.substr(name_at, json.find('"', name_at) - name_at),
        std::stod(json.substr(ts_at)), std::stod(json.substr(dur_at)),
        std::stoull(json.substr(id_at))});
    at = id_at;
  }
  return spans;
}

// The acceptance-criterion identity: a sampled record's spans tile the
// interval from its first stamp to its verdict, so (a) per journey the
// spans are contiguous, and (b) the sum of all span durations equals the
// e2e histogram's sum. sample_every=1 makes every record a journey.
TEST(TraceRuntime, SpanSumsMatchExportedE2eHistogram) {
  TracerConfig trace_config;
  trace_config.sample_every = 1;
  trace_config.enabled = true;
  Tracer tracer(trace_config);  // declared before the runtime: must outlive it

  runtime::RuntimeConfig config;
  config.shards = 2;
  config.queue_depth = 1024;
  config.engine.mode = core::EngineMode::kBasic;  // no scan stage: kProcess path
  config.tracer = &tracer;
  constexpr std::uint64_t kFlows = 500;
  {
    runtime::ShardedRuntime rt(config);
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      ASSERT_TRUE(submit_one(rt, {simple_flow(i), 9001, i, i + 1}));
    }
    rt.flush();

    const auto snap = tracer.snapshot();
    const auto* e2e = snap.histogram("infilter_e2e_latency_us");
    const auto* shard_wait = snap.histogram("infilter_queue_wait_shard_us");
    ASSERT_NE(e2e, nullptr);
    ASSERT_NE(shard_wait, nullptr);
    EXPECT_EQ(e2e->count, kFlows);
    EXPECT_EQ(shard_wait->count, kFlows);
    EXPECT_EQ(tracer.events_dropped(), 0u);
    EXPECT_EQ(tracer.events_emitted(), 2 * kFlows);  // queue_shard + process

    const auto spans = parse_spans(tracer.chrome_trace_json());
    ASSERT_EQ(spans.size(), 2 * kFlows);
    std::map<std::uint64_t, std::vector<ParsedSpan>> journeys;
    for (const auto& span : spans) journeys[span.id].push_back(span);
    ASSERT_EQ(journeys.size(), kFlows);

    double span_total_us = 0.0;
    for (auto& [id, journey] : journeys) {
      ASSERT_EQ(journey.size(), 2u) << "journey " << id;
      if (journey[0].ts > journey[1].ts) std::swap(journey[0], journey[1]);
      EXPECT_EQ(journey[0].name, "queue_shard");
      EXPECT_EQ(journey[1].name, "process");
      // Tiling: each span starts where the previous one ended (exact in
      // ns; the export prints microseconds with 3 decimals, i.e. exactly).
      EXPECT_NEAR(journey[0].ts + journey[0].dur, journey[1].ts, 0.002);
      span_total_us += journey[0].dur + journey[1].dur;
    }
    // Same stamps feed both sides, so the sums agree to rounding noise.
    EXPECT_NEAR(span_total_us, e2e->sum, 0.01 * static_cast<double>(kFlows));
    rt.shutdown();
  }
  // The tracer outlives the runtime: lanes are retired, not freed, so the
  // post-mortem view still works (no dangling queue probes).
  EXPECT_DOUBLE_EQ(tracer.snapshot().value("infilter_trace_threads"), 0.0);
  EXPECT_EQ(tracer.scan_liveness(0.0).size(), 0u);
}

// Sampling keys on the tag -- the id every span is emitted under -- not on
// the runtime's internal sequence counter. The two differ whenever the
// submitter numbers tags from its own counter (the ingest decode thread
// does), and sampling on the sequence would then double-start journeys
// under a shifted id: the upstream screen passes tag multiples, the
// dispatcher fallback would pass sequence multiples.
TEST(TraceRuntime, SamplingKeysOnTagNotInternalSequence) {
  TracerConfig trace_config;
  trace_config.sample_every = 8;
  trace_config.enabled = true;
  Tracer tracer(trace_config);

  runtime::RuntimeConfig config;
  config.shards = 2;
  config.queue_depth = 1024;
  config.engine.mode = core::EngineMode::kBasic;
  config.tracer = &tracer;
  runtime::ShardedRuntime rt(config);
  // Tags 0..99 while the internal sequence runs 1..100 (the ingest
  // offset): multiples of 8 among the tags are 0, 8, ..., 96.
  constexpr std::uint64_t kFlows = 100;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    ASSERT_TRUE(submit_one(rt, {simple_flow(i), 9001, i, i}));
  }
  rt.flush();

  const auto snap = tracer.snapshot();
  const auto* e2e = snap.histogram("infilter_e2e_latency_us");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, 13u);  // ceil(100 / 8): tags 0, 8, ..., 96
  const auto spans = parse_spans(tracer.chrome_trace_json());
  EXPECT_EQ(spans.size(), 2 * 13u);
  for (const auto& span : spans) {
    EXPECT_EQ(span.id % 8, 0u) << "journey started under an unsampled id";
  }
  rt.shutdown();
}

// Scan-stage journeys: every flow misses EIA, so every journey crosses the
// suspect rings and ends in scan_nns -- four spans tiling receive..verdict.
TEST(TraceRuntime, ScanStageJourneysTileAcrossAllFourSpans) {
  TracerConfig trace_config;
  trace_config.sample_every = 1;
  trace_config.enabled = true;
  Tracer tracer(trace_config);

  runtime::RuntimeConfig config;
  config.shards = 2;
  config.queue_depth = 256;
  config.engine.mode = core::EngineMode::kEnhanced;
  config.engine.use_scan_analysis = true;
  config.engine.use_nns = false;  // no training needed; scan still runs
  config.tracer = &tracer;
  Tracer* tracer_ptr = &tracer;
  runtime::ShardedRuntime rt(config);
  ASSERT_NE(rt.scan_stage_engine(), nullptr);
  constexpr std::uint64_t kFlows = 200;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    ASSERT_TRUE(submit_one(rt, {simple_flow(i), 9001, i, i + 1}));
  }
  rt.flush();

  const auto snap = tracer_ptr->snapshot();
  EXPECT_EQ(snap.histogram("infilter_e2e_latency_us")->count, kFlows);
  EXPECT_EQ(snap.histogram("infilter_queue_wait_shard_us")->count, kFlows);
  EXPECT_EQ(snap.histogram("infilter_queue_wait_scan_us")->count, kFlows);
  ASSERT_EQ(tracer_ptr->events_dropped(), 0u);
  // queue_shard + eia on the worker, queue_scan + scan_nns on the stage.
  EXPECT_EQ(tracer_ptr->events_emitted(), 4 * kFlows);

  const auto spans = parse_spans(tracer_ptr->chrome_trace_json());
  std::map<std::uint64_t, std::vector<ParsedSpan>> journeys;
  for (const auto& span : spans) journeys[span.id].push_back(span);
  ASSERT_EQ(journeys.size(), kFlows);
  for (auto& [id, journey] : journeys) {
    ASSERT_EQ(journey.size(), 4u) << "journey " << id;
    std::sort(journey.begin(), journey.end(),
              [](const ParsedSpan& x, const ParsedSpan& y) { return x.ts < y.ts; });
    EXPECT_EQ(journey[0].name, "queue_shard");
    EXPECT_EQ(journey[1].name, "eia");
    EXPECT_EQ(journey[2].name, "queue_scan");
    EXPECT_EQ(journey[3].name, "scan_nns");
    for (int s = 1; s < 4; ++s) {
      EXPECT_NEAR(journey[s - 1].ts + journey[s - 1].dur, journey[s].ts, 0.002)
          << "journey " << id << " span " << s;
    }
  }
  rt.shutdown();
}

// Mid-stream observability against live trace writers: runtime snapshots,
// merged tracer scrapes, liveness scans, and trace exports all while the
// workers are emitting spans. TSan-lane material; the assertions are
// deliberately coarse (the precise accounting is pinned above).
TEST(TraceRuntime, SnapshotsAndScansConcurrentWithTraceWriters) {
  TracerConfig trace_config;
  trace_config.sample_every = 1;
  trace_config.enabled = true;
  Tracer tracer(trace_config);

  runtime::RuntimeConfig config;
  config.shards = 2;
  config.queue_depth = 64;
  config.engine.mode = core::EngineMode::kBasic;
  config.tracer = &tracer;
  runtime::ShardedRuntime rt(config, nullptr,
                             [](const runtime::FlowItem&, const core::Verdict&) {
                               std::this_thread::sleep_for(std::chrono::microseconds(50));
                             });
  constexpr std::uint32_t kFlows = 400;
  std::uint64_t json_bytes = 0;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    submit_one(rt, {simple_flow(i), 9001, i, i + 1});
    if (i % 40 == 0) {
      const auto merged =
          obs::merge_snapshots({rt.snapshot(), tracer.snapshot()});
      EXPECT_GE(merged.value("infilter_runtime_submitted_total"),
                static_cast<double>(i));
      (void)tracer.scan_liveness(100.0);
      json_bytes += tracer.chrome_trace_json().size();
    }
  }
  rt.flush();
  const auto merged = obs::merge_snapshots({rt.snapshot(), tracer.snapshot()});
  EXPECT_DOUBLE_EQ(merged.value("infilter_flows_total"),
                   static_cast<double>(kFlows));
  EXPECT_GT(merged.value("infilter_trace_events_total"), 0.0);
  EXPECT_GT(json_bytes, 0u);
  rt.shutdown();
}

// Tracing compiled in but *disabled* must leave no trace: no span events,
// no journey observations -- the disabled path is one branch per hop.
// (The "costs nothing" half is pinned by bench/ingest_throughput.)
TEST(TraceRuntime, DisabledTracerEmitsNoSpansButKeepsLiveness) {
  Tracer tracer;  // enabled = false
  runtime::RuntimeConfig config;
  config.shards = 2;
  config.engine.mode = core::EngineMode::kBasic;
  config.tracer = &tracer;
  runtime::ShardedRuntime rt(config);
  for (std::uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(submit_one(rt, {simple_flow(i), 9001, i, i + 1}));
  }
  rt.flush();
  EXPECT_EQ(tracer.events_emitted(), 0u);
  const auto snap = tracer.snapshot();
  EXPECT_EQ(snap.histogram("infilter_e2e_latency_us")->count, 0u);
  EXPECT_EQ(snap.histogram("infilter_queue_wait_shard_us")->count, 0u);
  // Liveness is always on: the lanes exist, report roles, and heartbeat.
  EXPECT_DOUBLE_EQ(snap.value("infilter_pipeline_threads_worker"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("infilter_pipeline_threads_dispatch"), 1.0);
  EXPECT_TRUE(tracer.scan_liveness(0.0).empty());
  rt.shutdown();
}

}  // namespace
}  // namespace infilter
