// Tests for the concurrent sharded detection runtime (runtime/):
// the SPSC ring's boundary behavior, the runtime's serial-equivalence and
// self-determinism guarantees, backpressure accounting, and the
// alert/metrics plumbing that makes N shards look like one engine.

#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "runtime/affinity.h"

#include "obs/metrics.h"
#include "sim/testbed.h"

namespace infilter::runtime {
namespace {

// -- SpscRing --

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 4u);
  SpscRing<int> big(1000);
  EXPECT_EQ(big.capacity(), 1024u);
}

TEST(SpscRing, FullAndEmptyBoundaries) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));

  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.try_push(99));  // full

  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(4));  // freed slot is reusable
  for (int expect = 1; expect <= 4; ++expect) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, expect);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FifoOrderAcrossManyWraparounds) {
  SpscRing<int> ring(8);
  int next_push = 0;
  int next_pop = 0;
  // Uneven push/pop rhythm so head and tail cross the wrap point at
  // different offsets.
  for (int round = 0; round < 1000; ++round) {
    const int burst = 1 + round % 7;
    for (int i = 0; i < burst; ++i) {
      if (!ring.try_push(next_push)) break;
      ++next_push;
    }
    int out = -1;
    for (int i = 0; i < 1 + round % 5 && ring.try_pop(out); ++i) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  int out = -1;
  while (ring.try_pop(out)) {
    ASSERT_EQ(out, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRing, BatchedPushAcceptsOnlyFreeSpace) {
  SpscRing<int> ring(4);
  const int items[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push_batch(items), 4u);  // capacity-bounded
  EXPECT_EQ(ring.try_push_batch(items), 0u);  // full

  int out[8] = {};
  EXPECT_EQ(ring.try_pop_batch(out, 2), 2u);  // max-bounded
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(ring.try_pop_batch(out, 8), 2u);  // drains the rest
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(ring.try_pop_batch(out, 8), 0u);  // empty
}

TEST(SpscRing, BatchedOpsPreserveOrderAcrossWraparound) {
  SpscRing<int> ring(8);
  std::vector<int> sent(64);
  std::iota(sent.begin(), sent.end(), 0);
  std::vector<int> received;
  std::size_t pushed = 0;
  int scratch[8];
  while (received.size() < sent.size()) {
    pushed += ring.try_push_batch(
        std::span<const int>(sent).subspan(pushed, std::min<std::size_t>(
                                                       3, sent.size() - pushed)));
    const std::size_t got = ring.try_pop_batch(scratch, 5);
    received.insert(received.end(), scratch, scratch + got);
  }
  EXPECT_EQ(received, sent);
}

TEST(SpscRing, ThreadedProducerConsumerDeliversEverythingInOrder) {
  SpscRing<std::uint32_t> ring(64);
  constexpr std::uint32_t kCount = 200000;
  std::thread producer([&] {
    std::uint32_t batch[16];
    std::uint32_t next = 0;
    while (next < kCount) {
      const std::uint32_t n = std::min<std::uint32_t>(16, kCount - next);
      for (std::uint32_t i = 0; i < n; ++i) batch[i] = next + i;
      std::size_t sent = 0;
      while (sent < n) {
        sent += ring.try_push_batch(
            std::span<const std::uint32_t>(batch + sent, n - sent));
      }
      next += n;
    }
  });
  std::uint32_t expect = 0;
  std::uint32_t out[32];
  while (expect < kCount) {
    const std::size_t n = ring.try_pop_batch(out, 32);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// -- merge_snapshots --

TEST(MergeSnapshots, SumsCountersAndMergesEqualBoundHistograms) {
  obs::Registry a;
  obs::Registry b;
  a.counter("flows").inc(3);
  b.counter("flows").inc(4);
  b.counter("only_b").inc(1);
  a.histogram("lat", {1.0, 10.0}).observe(0.5);
  b.histogram("lat", {1.0, 10.0}).observe(5.0);
  b.histogram("lat", {1.0, 10.0}).observe(5.0);

  const auto merged = obs::merge_snapshots({a.snapshot(), b.snapshot()});
  EXPECT_DOUBLE_EQ(merged.value("flows"), 7.0);
  EXPECT_DOUBLE_EQ(merged.value("only_b"), 1.0);
  const auto* lat = merged.histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 3u);
  EXPECT_DOUBLE_EQ(lat->sum, 10.5);
  EXPECT_EQ(lat->counts[0], 1u);  // <= 1.0
  EXPECT_EQ(lat->counts[1], 2u);  // <= 10.0
}

TEST(MergeSnapshots, BoundsMismatchKeepsFirstHistogramIntact) {
  obs::Registry a;
  obs::Registry b;
  a.histogram("lat", {1.0, 10.0}).observe(0.5);
  b.histogram("lat", {2.0, 20.0}).observe(5.0);
  b.histogram("lat", {2.0, 20.0}).observe(15.0);

  const auto merged = obs::merge_snapshots({a.snapshot(), b.snapshot()});
  const auto* lat = merged.histogram("lat");
  ASSERT_NE(lat, nullptr);
  // The first snapshot's histogram wins wholesale: no count/sum/bucket
  // contribution from the incompatible layout leaks in.
  EXPECT_EQ(lat->bounds, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(lat->count, 1u);
  EXPECT_DOUBLE_EQ(lat->sum, 0.5);
  EXPECT_EQ(lat->counts[0], 1u);
  EXPECT_EQ(lat->counts[1], 0u);
}

// -- SerializingSink --

TEST(SerializingSink, RenumbersConcurrentAlertsDensely) {
  alert::CollectingSink inner;
  alert::SerializingSink sink(&inner);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        alert::Alert a;
        a.id = static_cast<std::uint64_t>(t);  // shard-local ids collide
        sink.consume(a);
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(inner.alerts().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(sink.delivered(), static_cast<std::uint64_t>(kThreads * kPerThread));
  std::set<std::uint64_t> ids;
  for (const auto& a : inner.alerts()) ids.insert(a.id);
  EXPECT_EQ(ids.size(), inner.alerts().size());  // no collisions
  EXPECT_EQ(*ids.begin(), 1u);                   // dense from 1
  EXPECT_EQ(*ids.rbegin(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

// -- ShardedRuntime --

sim::ExperimentConfig runtime_config() {
  sim::ExperimentConfig c;
  c.normal_flows_per_source = 1200;
  c.training_flows = 500;
  c.attack_volume = 0.04;
  c.engine.cluster.bits_per_feature = 48;
  c.seed = 77;
  return c;
}

void expect_same_result(const sim::ExperimentResult& x,
                        const sim::ExperimentResult& y) {
  EXPECT_EQ(x.attack_instances, y.attack_instances);
  EXPECT_EQ(x.detected_instances, y.detected_instances);
  EXPECT_EQ(x.attack_flows, y.attack_flows);
  EXPECT_EQ(x.detected_attack_flows, y.detected_attack_flows);
  EXPECT_EQ(x.benign_flows, y.benign_flows);
  EXPECT_EQ(x.false_positives, y.false_positives);
  EXPECT_EQ(x.benign_suspects, y.benign_suspects);
  EXPECT_EQ(x.alerts_eia, y.alerts_eia);
  EXPECT_EQ(x.alerts_scan, y.alerts_scan);
  EXPECT_EQ(x.alerts_nns, y.alerts_nns);
  EXPECT_EQ(x.alerts_fused, y.alerts_fused);
  EXPECT_DOUBLE_EQ(x.mean_detection_latency_ms, y.mean_detection_latency_ms);
  for (std::size_t k = 0; k < x.per_kind.size(); ++k) {
    EXPECT_EQ(x.per_kind[k], y.per_kind[k]) << "attack kind " << k;
  }
}

TEST(ShardedRuntime, ShardOfIsStableAndCoversAllShards) {
  const auto source = *net::IPv4Address::parse("10.1.2.3");
  const auto s = ShardedRuntime::shard_of(source, 4);
  EXPECT_EQ(ShardedRuntime::shard_of(source, 4), s);
  // Same source /24 always lands together, whatever the ingress -- the
  // grain of every (ingress, /24)-keyed learning structure.
  EXPECT_EQ(ShardedRuntime::shard_of(*net::IPv4Address::parse("10.1.2.200"), 4), s);
  std::set<std::size_t> seen;
  for (std::uint32_t i = 0; i < 256; ++i) {
    seen.insert(ShardedRuntime::shard_of(net::IPv4Address{i << 8}, 4));
  }
  EXPECT_EQ(seen.size(), 4u);  // hash actually spreads over the shards
}

// With scan analysis off, every pipeline stage keys its state on data
// colocated by the shard hash, so N shards must reproduce the serial
// engine's verdicts *exactly* -- the runtime's headline guarantee.
TEST(ShardedRuntime, ScanOffShardedExactlyMatchesSerial) {
  auto config = runtime_config();
  config.engine.use_scan_analysis = false;
  const auto serial = run_experiment(config);
  config.runtime_shards = 4;
  config.runtime_queue_depth = 256;
  const auto sharded = run_experiment(config);
  expect_same_result(serial, sharded);
  EXPECT_DOUBLE_EQ(sharded.metrics.value("infilter_runtime_dropped_total"), 0.0);
}

// With one shard, dispatch order == ring order == processing order, so the
// whole pipeline (scan analysis included) is exactly serial.
TEST(ShardedRuntime, OneShardFullPipelineExactlyMatchesSerial) {
  auto config = runtime_config();
  const auto serial = run_experiment(config);
  config.runtime_shards = 1;
  const auto sharded = run_experiment(config);
  expect_same_result(serial, sharded);
}

// The tentpole guarantee: with scan analysis ENABLED, every shard count
// reproduces the serial engine's verdicts exactly. The destination-keyed
// suspect buffer lives on the shared scan stage, which replays suspects
// in global dispatch order, so worker interleaving is invisible.
TEST(ShardedRuntime, ShardSweepFullPipelineExactlyMatchesSerial) {
  auto config = runtime_config();
  ASSERT_TRUE(config.engine.use_scan_analysis);
  const auto serial = run_experiment(config);
  // The property is only meaningful if the scan stage actually fires.
  EXPECT_GT(serial.alerts_scan, 0u);
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto sharded_config = config;
    sharded_config.runtime_shards = shards;
    const auto sharded = run_experiment(sharded_config);
    expect_same_result(serial, sharded);
  }
}

// The TTL-fusion extension of the same guarantee: hop-count classification
// and learning are keyed by the same (ingress, source /24) shard key as the
// EIA check and run in the worker half; the fused verdict is a pure
// function of the SuspectFlow, decided on the shared scan stage in global
// dispatch order. Every shard count must stay bit-identical to serial with
// TTL detection on.
TEST(ShardedRuntime, ShardSweepWithTtlDetectionExactlyMatchesSerial) {
  auto config = runtime_config();
  config.ttl_scenario = true;
  config.engine.use_hopcount = true;
  const auto serial = run_experiment(config);
  // Meaningful only if the fusion path actually fires (spoofed standard
  // kinds are EIA miss + TTL miss) and benign TTL learning happened.
  EXPECT_GT(serial.alerts_fused, 0u);
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto sharded_config = config;
    sharded_config.runtime_shards = shards;
    const auto sharded = run_experiment(sharded_config);
    expect_same_result(serial, sharded);
  }
}

// The Bloom EIA backend extension of the serial-equivalence guarantee:
// membership bits live in banks keyed by the SAME /24 hash as shard_of,
// so a bank's contents (and its rotation schedule) evolve from exactly
// the keys one shard processes, in that shard's dispatch order. Verdicts
// -- false positives included -- must be bit-identical to serial at every
// power-of-two shard count.
TEST(ShardedRuntime, ShardSweepWithBloomBackendExactlyMatchesSerial) {
  auto config = runtime_config();
  // Fewer preload blocks: 10 sources x 4 /11s is ~330k /24 inserts, the
  // regime 2^22 bits is sized for (the full Table 3 footprint would need
  // a 2^26-bit budget; quality-at-scale is bench_eia_scale's job).
  config.blocks_per_source = 4;
  config.engine.eia.backend.type = core::EiaBackendType::kBloom;
  config.engine.eia.backend.bits = 1 << 22;
  const auto serial = run_experiment(config);
  EXPECT_GT(serial.detected_instances, 0u);
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto sharded_config = config;
    sharded_config.runtime_shards = shards;
    const auto sharded = run_experiment(sharded_config);
    expect_same_result(serial, sharded);
  }
}

// Same invariance with aging on (rotating sub-filters) and the counting
// variant: rotation counters are bank-local, so the erasure schedule is
// also a pure function of each shard's own traffic.
TEST(ShardedRuntime, ShardSweepWithAgingCountingBloomMatchesSerial) {
  auto config = runtime_config();
  config.blocks_per_source = 4;
  config.engine.eia.backend.type = core::EiaBackendType::kCountingBloom;
  config.engine.eia.backend.bits = 1 << 21;
  config.engine.eia.backend.subfilters = 2;
  config.engine.eia.backend.rotate_every = 64;
  const auto serial = run_experiment(config);
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto sharded_config = config;
    sharded_config.runtime_shards = shards;
    const auto sharded = run_experiment(sharded_config);
    expect_same_result(serial, sharded);
  }
}

// Reproducibility across runs of the same configuration, independent of
// thread interleaving (a weaker property than serial equality, pinned
// separately so a failure distinguishes "nondeterministic" from "wrong").
TEST(ShardedRuntime, FullPipelineShardedIsSelfDeterministic) {
  auto config = runtime_config();
  config.runtime_shards = 3;
  const auto first = run_experiment(config);
  const auto second = run_experiment(config);
  expect_same_result(first, second);
}

void expect_same_alert(const alert::Alert& x, const alert::Alert& y) {
  EXPECT_EQ(x.id, y.id);
  EXPECT_EQ(x.create_time, y.create_time);
  EXPECT_EQ(x.stage, y.stage);
  EXPECT_EQ(x.source_ip.value(), y.source_ip.value());
  EXPECT_EQ(x.target_ip.value(), y.target_ip.value());
  EXPECT_EQ(x.target_port, y.target_port);
  EXPECT_EQ(x.proto, y.proto);
  EXPECT_EQ(x.ingress_port, y.ingress_port);
  EXPECT_EQ(x.expected_ingress, y.expected_ingress);
  EXPECT_EQ(x.nns_distance, y.nns_distance);
  EXPECT_EQ(x.nns_threshold, y.nns_threshold);
  EXPECT_DOUBLE_EQ(x.detection_latency_ms, y.detection_latency_ms);
}

// Field-level exactness on the raw streams: the sharded runtime's alert
// sequence (ids, contents, order) and the shared scan stage's internal
// stats must be bit-identical to the serial engine's, not just equal in
// aggregate.
TEST(ShardedRuntime, AlertStreamAndScanStatsBitIdenticalToSerial) {
  const auto config = runtime_config();
  const auto stream = sim::generate_stream(config);
  const auto clusters = sim::train_clusters(config);
  core::EngineConfig engine_config = config.engine;
  engine_config.seed = config.seed;

  alert::CollectingSink serial_sink;
  core::InFilterEngine serial(engine_config, &serial_sink);
  serial.set_clusters(clusters);
  for (int s = 0; s < config.sources; ++s) {
    const auto port = static_cast<core::IngressId>(config.first_port + s);
    const auto range = dagflow::eia_range(s, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      serial.add_expected(port, net::SubBlock{b}.prefix());
    }
  }
  for (const auto& flow : stream.flows) {
    (void)serial.process(flow.record, flow.arrival_port, flow.record.last);
  }
  ASSERT_GT(serial_sink.alerts().size(), 0u);
  ASSERT_GT(serial.scan().stats().network_scans + serial.scan().stats().host_scans,
            0u);

  for (const int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RuntimeConfig runtime_config;
    runtime_config.shards = shards;
    runtime_config.engine = engine_config;
    alert::CollectingSink sharded_sink;
    ShardedRuntime rt(runtime_config, &sharded_sink);
    rt.set_clusters(clusters);
    for (int s = 0; s < config.sources; ++s) {
      const auto port = static_cast<core::IngressId>(config.first_port + s);
      const auto range = dagflow::eia_range(s, config.blocks_per_source);
      for (int b = range.first.index(); b <= range.last.index(); ++b) {
        rt.add_expected(port, net::SubBlock{b}.prefix());
      }
    }
    sim::submit_stream(rt, stream);
    rt.flush();
    ASSERT_EQ(rt.stats().dispatched, stream.flows.size());

    ASSERT_NE(rt.scan_stage_engine(), nullptr);
    const auto& serial_scan = serial.scan().stats();
    const auto& sharded_scan = rt.scan_stage_engine()->scan().stats();
    EXPECT_EQ(sharded_scan.observed, serial_scan.observed);
    EXPECT_EQ(sharded_scan.network_scans, serial_scan.network_scans);
    EXPECT_EQ(sharded_scan.host_scans, serial_scan.host_scans);
    EXPECT_EQ(sharded_scan.evictions, serial_scan.evictions);
    EXPECT_EQ(rt.scan_stage_engine()->scan().buffered_flows(),
              serial.scan().buffered_flows());

    ASSERT_EQ(sharded_sink.alerts().size(), serial_sink.alerts().size());
    for (std::size_t i = 0; i < serial_sink.alerts().size(); ++i) {
      SCOPED_TRACE("alert " + std::to_string(i));
      expect_same_alert(sharded_sink.alerts()[i], serial_sink.alerts()[i]);
    }

    const auto merged = rt.snapshot();
    EXPECT_DOUBLE_EQ(merged.value("infilter_flows_total"),
                     static_cast<double>(stream.flows.size()));
    EXPECT_DOUBLE_EQ(merged.value("infilter_alerts_total"),
                     static_cast<double>(serial_sink.alerts().size()));
  }
}

TEST(ShardedRuntime, MergedSnapshotAccountsForEveryFlow) {
  auto config = runtime_config();
  config.runtime_shards = 4;
  const auto result = run_experiment(config);
  // Per-shard engine counters merge into one coherent view.
  EXPECT_DOUBLE_EQ(result.metrics.value("infilter_flows_total"),
                   static_cast<double>(result.attack_flows + result.benign_flows));
  EXPECT_DOUBLE_EQ(result.metrics.value("infilter_runtime_shards"), 4.0);
  EXPECT_DOUBLE_EQ(
      result.metrics.value("infilter_runtime_submitted_total"),
      static_cast<double>(result.attack_flows + result.benign_flows));
  EXPECT_GT(result.metrics.value("infilter_runtime_batches_total"), 0.0);
}

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
bool submit_one(ShardedRuntime& rt, const FlowItem& item) {
  return rt.submit_batch(std::span<const FlowItem>(&item, 1)) == 1;
}

// Mid-stream snapshots must not race worker engine state: runtime-level
// metrics are always present, busy shards' engine registries are skipped,
// and after flush() the merged view is complete. Run under
// INFILTER_SANITIZE=thread this pins the absence of the data race.
TEST(ShardedRuntime, LiveSnapshotSkipsBusyShardsAndIsCompleteAfterFlush) {
  RuntimeConfig config;
  config.shards = 2;
  config.queue_depth = 64;
  config.engine.mode = core::EngineMode::kBasic;
  // A slow hook keeps workers mid-flow while the dispatcher snapshots.
  ShardedRuntime rt(config, nullptr,
                    [](const FlowItem&, const core::Verdict&) {
                      std::this_thread::sleep_for(std::chrono::microseconds(200));
                    });
  constexpr std::uint32_t kFlows = 300;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    submit_one(rt, {simple_flow(i), 9001, i});
    if (i % 50 == 0) {
      const auto live = rt.snapshot();
      EXPECT_GE(live.value("infilter_runtime_submitted_total"),
                static_cast<double>(i));
      EXPECT_DOUBLE_EQ(live.value("infilter_runtime_shards"), 2.0);
    }
  }
  rt.flush();
  const auto drained = rt.snapshot();
  EXPECT_DOUBLE_EQ(drained.value("infilter_flows_total"),
                   static_cast<double>(kFlows));
}

// `this`-capturing pull gauges must not land in a caller-supplied registry:
// it can outlive the runtime, and a snapshot taken afterwards would call a
// dangling callback. Value counters (plain instruments) do land there and
// stay readable after the runtime dies.
TEST(ShardedRuntime, ExternalRegistryOutlivesRuntimeWithoutDanglingPulls) {
  obs::Registry registry;
  {
    RuntimeConfig config;
    config.shards = 2;
    config.engine.mode = core::EngineMode::kBasic;
    config.registry = &registry;
    ShardedRuntime rt(config);
    EXPECT_TRUE(submit_one(rt, {simple_flow(1), 9001, 1}));
    rt.shutdown();
    // While alive, snapshot() still exposes the private pull gauges.
    EXPECT_DOUBLE_EQ(rt.snapshot().value("infilter_runtime_shards"), 2.0);
  }
  const auto after = registry.snapshot();
  EXPECT_DOUBLE_EQ(after.value("infilter_runtime_submitted_total"), 1.0);
  EXPECT_EQ(after.find("infilter_runtime_shards"), nullptr);
  EXPECT_EQ(after.find("infilter_runtime_queued"), nullptr);
}

TEST(ShardedRuntime, DropPolicyShedsAndCountsWhenRingsStayFull) {
  RuntimeConfig config;
  config.shards = 1;
  config.queue_depth = 2;
  config.backpressure = BackpressurePolicy::kDrop;
  config.engine.mode = core::EngineMode::kBasic;
  // A slow hook keeps the single worker busy so the tiny ring fills.
  ShardedRuntime rt(config, nullptr,
                    [](const FlowItem&, const core::Verdict&) {
                      std::this_thread::sleep_for(std::chrono::milliseconds(2));
                    });
  constexpr std::uint64_t kFlows = 64;
  std::uint64_t accepted = 0;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    accepted += submit_one(rt, {simple_flow(i), 9001, i}) ? 1 : 0;
  }
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, kFlows);
  EXPECT_EQ(stats.dispatched, accepted);
  EXPECT_EQ(stats.processed, accepted);
  EXPECT_EQ(stats.dropped, kFlows - accepted);
  EXPECT_GT(stats.dropped, 0u);  // 64 x 2ms against a depth-2 ring must shed
  EXPECT_EQ(stats.backpressure_waits, 0u);
}

TEST(ShardedRuntime, BlockPolicyLosesNothingThroughTinyRings) {
  RuntimeConfig config;
  config.shards = 2;
  config.queue_depth = 2;
  config.backpressure = BackpressurePolicy::kBlock;
  config.engine.mode = core::EngineMode::kBasic;
  ShardedRuntime rt(config);
  constexpr std::uint64_t kFlows = 2000;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    EXPECT_TRUE(submit_one(rt, {simple_flow(i), 9001, i}));
  }
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.dispatched, kFlows);
  EXPECT_EQ(stats.processed, kFlows);
  EXPECT_EQ(stats.dropped, 0u);
}

// Drain completeness across the scan stage: flush() must not return while
// any suspect sits in a worker ring, the reorder window, or the scan
// thread's hands. Tiny rings and single-flow batches maximize in-flight
// hand-offs; every flow is an EIA miss, so every flow crosses both rings.
TEST(ShardedRuntime, FlushCompletesEveryInFlightSuspect) {
  RuntimeConfig config;
  config.shards = 4;
  config.queue_depth = 2;
  config.max_batch = 1;
  config.engine.mode = core::EngineMode::kEnhanced;
  config.engine.use_scan_analysis = true;
  config.engine.use_nns = false;  // no training needed; scan still runs
  std::atomic<std::uint64_t> hooks{0};
  std::atomic<std::uint64_t> suspect_hooks{0};
  ShardedRuntime rt(config, nullptr,
                    [&](const FlowItem&, const core::Verdict& verdict) {
                      hooks.fetch_add(1);
                      if (verdict.suspect) suspect_hooks.fetch_add(1);
                    });
  ASSERT_NE(rt.scan_stage_engine(), nullptr);
  constexpr std::uint64_t kFlows = 3000;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    ASSERT_TRUE(submit_one(rt, {simple_flow(i), 9001, i}));  // no EIA entries: all miss
  }
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.processed, kFlows);
  EXPECT_EQ(stats.suspects_forwarded, kFlows);
  EXPECT_EQ(stats.suspects_completed, kFlows);
  EXPECT_EQ(hooks.load(), kFlows);
  EXPECT_EQ(suspect_hooks.load(), kFlows);
  EXPECT_EQ(rt.scan_stage_engine()->scan().stats().observed, kFlows);
  // The merged view reconciles: the EIA halves on the shards, the scan
  // half on the stage engine, no flow double-counted or lost.
  const auto merged = rt.snapshot();
  EXPECT_DOUBLE_EQ(merged.value("infilter_flows_total"),
                   static_cast<double>(kFlows));
  EXPECT_DOUBLE_EQ(merged.value("infilter_scan_analyzed_total"),
                   static_cast<double>(kFlows));
  rt.shutdown();
  EXPECT_EQ(hooks.load(), kFlows);  // shutdown added nothing
}

TEST(ShardedRuntime, ShutdownIsIdempotentAndRejectsLateSubmits) {
  RuntimeConfig config;
  config.shards = 2;
  config.engine.mode = core::EngineMode::kBasic;
  ShardedRuntime rt(config);
  EXPECT_TRUE(submit_one(rt, {simple_flow(1), 9001, 1}));
  rt.shutdown();
  rt.shutdown();
  EXPECT_FALSE(submit_one(rt, {simple_flow(2), 9001, 2}));
  const auto stats = rt.stats();
  EXPECT_EQ(stats.processed, 1u);
  EXPECT_EQ(stats.dropped, 1u);
}

// -- Multi-producer dispatch --

// A producer that has finished submitting must keep beaconing idle until
// every producer is done: the merge bound waits on silent producers'
// watermarks, and a finished-but-silent producer would stall the other
// producers' flows against a full ring (the ingest receivers beacon every
// poll cycle for the same reason).
void beacon_until_done(ShardedRuntime& rt, int producer,
                       std::atomic<int>& live) {
  live.fetch_sub(1);
  while (live.load() > 0) {
    rt.producer_idle(producer);
    std::this_thread::yield();
  }
}

// The merge property behind every multi-producer guarantee: whatever the
// producer interleaving, each shard worker consumes its multi-SPSC fan-in
// in strictly increasing seq order, and each producer's claims stay
// monotone in its own submission order. Small rings + kBlock maximize
// merge pressure. TSan-clean under scripts/check.sh's --producers lane.
TEST(ShardedRuntime, MergeKeepsSeqStrictlyMonotonePerShard) {
  constexpr int kShards = 4;
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 4000;
  RuntimeConfig config;
  config.shards = kShards;
  config.producers = kProducers;
  config.queue_depth = 32;
  config.backpressure = BackpressurePolicy::kBlock;
  config.engine.mode = core::EngineMode::kBasic;
  // kBasic keeps the scan stage inactive, so the hook fires on the owning
  // worker thread only: one writer per shard log, no lock needed.
  std::array<std::vector<std::uint64_t>, kShards> seq_log;
  std::array<std::vector<std::uint64_t>, kShards> tag_log;
  {
    ShardedRuntime rt(config, nullptr,
                      [&](const FlowItem& item, const core::Verdict&) {
                        const auto shard =
                            ShardedRuntime::shard_of(item.record.src_ip, kShards);
                        seq_log[shard].push_back(item.seq);
                        tag_log[shard].push_back(item.tag);
                      });
    ASSERT_EQ(rt.producer_count(), static_cast<std::size_t>(kProducers));
    std::atomic<int> live{kProducers};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<FlowItem> batch;
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          const auto salt = static_cast<std::uint32_t>(i);
          batch.push_back(FlowItem{simple_flow(salt), 9001,
                                   static_cast<util::TimeMs>(i),
                                   (static_cast<std::uint64_t>(p) << 32) | i});
          if (batch.size() == 8) {
            rt.submit_batch(batch, p);
            batch.clear();
          }
        }
        if (!batch.empty()) rt.submit_batch(batch, p);
        beacon_until_done(rt, p, live);
      });
    }
    for (auto& t : producers) t.join();
    rt.flush();
    const auto stats = rt.stats();
    EXPECT_EQ(stats.processed, kPerProducer * kProducers);
    EXPECT_EQ(stats.dropped, 0u);
  }

  std::size_t total = 0;
  std::set<std::uint64_t> seqs;
  std::array<std::vector<std::uint64_t>, kProducers> seq_by_producer;
  for (auto& per : seq_by_producer) per.resize(kPerProducer, 0);
  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard=" + std::to_string(s));
    total += seq_log[s].size();
    for (std::size_t i = 1; i < seq_log[s].size(); ++i) {
      ASSERT_LT(seq_log[s][i - 1], seq_log[s][i]) << "merge out of order at " << i;
    }
    for (std::size_t i = 0; i < seq_log[s].size(); ++i) {
      seqs.insert(seq_log[s][i]);
      const auto p = static_cast<std::size_t>(tag_log[s][i] >> 32);
      seq_by_producer[p][tag_log[s][i] & 0xFFFFFFFFu] = seq_log[s][i];
    }
  }
  EXPECT_EQ(total, kPerProducer * kProducers);
  EXPECT_EQ(seqs.size(), total);  // seqs globally unique across producers
  // Each producer's seq claims are monotone in its own submission order.
  for (int p = 0; p < kProducers; ++p) {
    SCOPED_TRACE("producer=" + std::to_string(p));
    for (std::uint64_t i = 1; i < kPerProducer; ++i) {
      ASSERT_LT(seq_by_producer[p][i - 1], seq_by_producer[p][i]);
    }
  }
}

// The tentpole equivalence guarantee, multi-producer form: for every
// (shard count, producer count), the realized dispatch order -- read back
// through FlowItem::seq -- replayed through a fresh serial engine yields
// the sharded run's exact alert stream and scan stats. With one producer
// the realized order is submission order, so this subsumes the
// single-dispatcher sweep above.
TEST(ShardedRuntime, MultiProducerSweepReplaysIdenticalAlertStream) {
  auto config = runtime_config();
  config.normal_flows_per_source = 600;  // 12 combos below: keep each cheap
  config.training_flows = 300;
  const auto stream = sim::generate_stream(config);
  const auto clusters = sim::train_clusters(config);
  core::EngineConfig engine_config = config.engine;
  engine_config.seed = config.seed;
  const auto n = stream.flows.size();

  const auto preload = [&](auto& target) {
    for (int s = 0; s < config.sources; ++s) {
      const auto port = static_cast<core::IngressId>(config.first_port + s);
      const auto range = dagflow::eia_range(s, config.blocks_per_source);
      for (int b = range.first.index(); b <= range.last.index(); ++b) {
        target.add_expected(port, net::SubBlock{b}.prefix());
      }
    }
  };

  for (const int shards : {1, 2, 4, 8}) {
    for (const int producers : {1, 2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      RuntimeConfig rc;
      rc.shards = shards;
      rc.producers = producers;
      rc.engine = engine_config;
      std::vector<std::uint64_t> seq_of(n, 0);  // one writer per tag: race-free
      alert::CollectingSink sharded_sink;
      ShardedRuntime rt(rc, &sharded_sink,
                        [&](const FlowItem& item, const core::Verdict&) {
                          seq_of[item.tag] = item.seq;
                        });
      rt.set_clusters(clusters);
      preload(rt);
      std::atomic<int> live{producers};
      std::vector<std::thread> threads;
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          std::vector<FlowItem> batch;
          for (std::size_t i = static_cast<std::size_t>(p); i < n;
               i += static_cast<std::size_t>(producers)) {
            const auto& flow = stream.flows[i];
            batch.push_back(FlowItem{flow.record, flow.arrival_port,
                                     static_cast<util::TimeMs>(flow.record.last),
                                     i});
            if (batch.size() == 128) {
              rt.submit_batch(batch, p);
              batch.clear();
            }
          }
          if (!batch.empty()) rt.submit_batch(batch, p);
          beacon_until_done(rt, p, live);
        });
      }
      for (auto& t : threads) t.join();
      rt.flush();

      // Replay the realized total order through a fresh serial engine.
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return seq_of[a] < seq_of[b];
      });
      alert::CollectingSink replay_sink;
      core::InFilterEngine replay(engine_config, &replay_sink);
      replay.set_clusters(clusters);
      preload(replay);
      for (const auto i : order) {
        const auto& flow = stream.flows[i];
        (void)replay.process(flow.record, flow.arrival_port, flow.record.last);
      }

      ASSERT_GT(replay_sink.alerts().size(), 0u);
      ASSERT_EQ(sharded_sink.alerts().size(), replay_sink.alerts().size());
      for (std::size_t i = 0; i < replay_sink.alerts().size(); ++i) {
        SCOPED_TRACE("alert " + std::to_string(i));
        expect_same_alert(sharded_sink.alerts()[i], replay_sink.alerts()[i]);
      }
      if (rt.scan_stage_engine() != nullptr) {
        const auto& replay_scan = replay.scan().stats();
        const auto& sharded_scan = rt.scan_stage_engine()->scan().stats();
        EXPECT_EQ(sharded_scan.observed, replay_scan.observed);
        EXPECT_EQ(sharded_scan.network_scans, replay_scan.network_scans);
        EXPECT_EQ(sharded_scan.host_scans, replay_scan.host_scans);
        EXPECT_EQ(sharded_scan.evictions, replay_scan.evictions);
      }
    }
  }
}

// Satellite regression for the old single-dispatcher precondition:
// snapshot() and flush() must be safe while producer threads are
// mid-submit -- the submit gate stalls producers, advances every
// watermark, and nothing is lost or double-counted. TSan-clean.
TEST(ShardedRuntime, SnapshotAndFlushAreSafeWhileProducersSubmit) {
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  RuntimeConfig config;
  config.shards = 2;
  config.producers = kProducers;
  config.queue_depth = 64;
  config.backpressure = BackpressurePolicy::kBlock;
  config.engine.mode = core::EngineMode::kBasic;
  ShardedRuntime rt(config);
  std::atomic<int> live{kProducers};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<FlowItem> batch;
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        batch.push_back(FlowItem{simple_flow(static_cast<std::uint32_t>(i)),
                                 9001, static_cast<util::TimeMs>(i)});
        if (batch.size() == 16) {
          rt.submit_batch(batch, p);
          batch.clear();
        }
      }
      if (!batch.empty()) rt.submit_batch(batch, p);
      beacon_until_done(rt, p, live);
    });
  }
  // Hammer the gate from the control thread while producers are live.
  while (live.load() > 0) {
    const auto snap = rt.snapshot();
    EXPECT_DOUBLE_EQ(snap.value("infilter_runtime_shards"), 2.0);
    rt.flush();  // mid-stream flush: drains what was claimed, loses nothing
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (auto& t : producers) t.join();
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, kPerProducer * kProducers);
  EXPECT_EQ(stats.dispatched, kPerProducer * kProducers);
  EXPECT_EQ(stats.processed, kPerProducer * kProducers);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_DOUBLE_EQ(rt.snapshot().value("infilter_flows_total"),
                   static_cast<double>(kPerProducer * kProducers));
}

// -- CPU placement (runtime/affinity.h) --

TEST(Affinity, ParseCpuSetExpandsRangesDedupsAndSorts) {
  const auto cpus = parse_cpu_set("8,0-3,2");
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<int>{0, 1, 2, 3, 8}));
  const auto one = parse_cpu_set("7");
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(*one, std::vector<int>{7});
}

TEST(Affinity, ParseCpuSetRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_cpu_set("", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_cpu_set("a").has_value());
  EXPECT_FALSE(parse_cpu_set("1,,2").has_value());
  EXPECT_FALSE(parse_cpu_set("3-1").has_value());  // reversed range
  EXPECT_FALSE(parse_cpu_set("0-").has_value());
  EXPECT_FALSE(parse_cpu_set("4096").has_value());  // above the id cap
}

TEST(Affinity, PinCurrentThreadIsGracefulOnAnyHost) {
  // Empty set: placement disabled, trivially succeeds.
  EXPECT_TRUE(pin_current_thread({}, 3));
  // Pin a scratch thread (not the test runner) to cpu 0, which exists on
  // any host; slot wraps round-robin past the set size.
  bool pinned = false;
  std::thread([&] { pinned = pin_current_thread({0}, 5); }).join();
#if defined(__linux__)
  EXPECT_TRUE(pinned);
#else
  EXPECT_FALSE(pinned);  // no-affinity platforms report the graceful no
#endif
}

TEST(ShardedRuntime, AlertsFromAllShardsArriveWithDenseIds) {
  RuntimeConfig config;
  config.shards = 4;
  config.queue_depth = 128;
  config.engine.mode = core::EngineMode::kBasic;  // every flow alerts (no EIA)
  alert::CollectingSink ui;
  ShardedRuntime rt(config, &ui);
  constexpr std::uint64_t kFlows = 500;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    submit_one(rt, {simple_flow(i), 9001, i});
  }
  rt.shutdown();
  ASSERT_EQ(ui.alerts().size(), kFlows);
  std::set<std::uint64_t> ids;
  for (const auto& a : ui.alerts()) ids.insert(a.id);
  EXPECT_EQ(ids.size(), kFlows);
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), kFlows);
}

}  // namespace
}  // namespace infilter::runtime
