// Tests for the lifecycle subsystem (src/lifecycle): exact-EIA entry
// aging (expiry / stale grace / relearn and its determinism contract),
// EiaSet prefix removal, age-metadata persistence through eia_io, live
// shard-pool resizes with state migration (bit-consistency against a
// serial replay of the realized dispatch order), the resize/flush/
// snapshot race under live producers (TSan lane), and the long-horizon
// churn soak harness (sim/soak.h).

#include "lifecycle/lifecycle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/eia.h"
#include "core/eia_io.h"
#include "runtime/runtime.h"
#include "sim/soak.h"
#include "sim/testbed.h"

namespace infilter {
namespace {

net::Prefix prefix(const char* text) { return *net::Prefix::parse(text); }

net::IPv4Address addr(const char* text) { return *net::IPv4Address::parse(text); }

// -- The idle-expiry predicate (lifecycle/lifecycle.h) --

TEST(Lifecycle, IdleExpiredIsMonotoneInNow) {
  constexpr util::TimeMs kLastSeen = 1000;
  constexpr util::DurationMs kMaxIdle = 500;
  EXPECT_FALSE(lifecycle::idle_expired(kLastSeen, 1500, kMaxIdle));  // boundary
  EXPECT_TRUE(lifecycle::idle_expired(kLastSeen, 1501, kMaxIdle));
  // Monotone: once expired at T, expired at every later T'.
  bool expired = false;
  for (util::TimeMs now = 0; now < 3000; now += 7) {
    const bool e = lifecycle::idle_expired(kLastSeen, now, kMaxIdle);
    EXPECT_TRUE(!expired || e) << "expiry regressed at now=" << now;
    expired = e;
  }
}

TEST(Lifecycle, RebasedClockNeverExpires) {
  // Exporter restart: record timestamps rebase below last_seen. The
  // predicate must treat a past-reading clock as "no idle time at all".
  EXPECT_FALSE(lifecycle::idle_expired(5000, 0, 10));
  EXPECT_FALSE(lifecycle::idle_expired(5000, 5000, 10));
}

TEST(Lifecycle, StaleThresholdDerivesHalfMaxIdle) {
  lifecycle::LifecycleConfig config;
  EXPECT_FALSE(config.enabled());
  config.max_idle_ms = 1000;
  EXPECT_TRUE(config.enabled());
  EXPECT_EQ(config.stale_threshold(), 500u);
  config.stale_after_ms = 800;
  EXPECT_EQ(config.stale_threshold(), 800u);
}

// -- EiaSet::remove --

TEST(EiaSetRemove, SplitsCoveringRange) {
  core::EiaSet set;
  set.add(prefix("10.0.0.0/16"));
  EXPECT_TRUE(set.remove(prefix("10.0.1.0/24")));
  EXPECT_TRUE(set.contains(addr("10.0.0.5")));
  EXPECT_FALSE(set.contains(addr("10.0.1.5")));
  EXPECT_TRUE(set.contains(addr("10.0.2.5")));
  EXPECT_EQ(set.range_count(), 2u);
  EXPECT_EQ(set.address_count(), 65536u - 256u);
  // Already gone: nothing left to remove.
  EXPECT_FALSE(set.remove(prefix("10.0.1.0/24")));
}

TEST(EiaSetRemove, TrimsRangeEdgesAndEmptiesExactMatch) {
  core::EiaSet set;
  set.add(prefix("10.1.0.0/24"));
  set.add(prefix("10.1.1.0/24"));
  // Trim the front /24 off the merged [10.1.0.0, 10.1.1.255] range.
  EXPECT_TRUE(set.remove(prefix("10.1.0.0/24")));
  EXPECT_FALSE(set.contains(addr("10.1.0.9")));
  EXPECT_TRUE(set.contains(addr("10.1.1.9")));
  // Remove the remainder exactly: the set goes empty.
  EXPECT_TRUE(set.remove(prefix("10.1.1.0/24")));
  EXPECT_EQ(set.range_count(), 0u);
  EXPECT_EQ(set.address_count(), 0u);
  EXPECT_FALSE(set.remove(prefix("10.1.1.0/24")));
}

// -- EiaTable aging --

core::EiaTableConfig aging_config(util::DurationMs max_idle) {
  core::EiaTableConfig config;
  config.learn_threshold = 2;
  config.lifecycle.max_idle_ms = max_idle;
  return config;
}

// Learns `source`'s /24 into `ingress` at virtual time `now`.
void learn(core::EiaTable& table, core::IngressId ingress, net::IPv4Address source,
           util::TimeMs now) {
  bool learned = false;
  for (int i = 0; i < table.config().learn_threshold; ++i) {
    learned = table.observe_mismatch(ingress, source, now);
  }
  ASSERT_TRUE(learned);
}

TEST(EiaAging, EntryWalksLearningEstablishedStaleExpired) {
  core::EiaTable table(aging_config(1000));
  ASSERT_TRUE(table.aging_enabled());
  table.declare_ingress(9001);
  const auto src = addr("10.1.2.3");

  EXPECT_FALSE(table.entry_state(9001, src, 0).has_value());
  ASSERT_FALSE(table.observe_mismatch(9001, src, 100));
  EXPECT_EQ(table.entry_state(9001, src, 100), lifecycle::EntryState::kLearning);
  ASSERT_TRUE(table.observe_mismatch(9001, src, 100));

  // Fresh within the stale threshold (1000 / 2 = 500 of idle time).
  EXPECT_EQ(table.entry_state(9001, src, 400), lifecycle::EntryState::kEstablished);
  // The grace window: stale but still accepted.
  EXPECT_EQ(table.entry_state(9001, src, 700), lifecycle::EntryState::kStale);
  EXPECT_TRUE(table.is_expected(9001, src, 700));  // refreshes last_seen to 700
  EXPECT_EQ(table.entry_state(9001, src, 900), lifecycle::EntryState::kEstablished);

  // Past max_idle the lookup itself expires the entry.
  EXPECT_FALSE(table.is_expected(9001, src, 2000));
  EXPECT_EQ(table.entry_state(9001, src, 2000), lifecycle::EntryState::kExpired);
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 1u);
  // The tombstone is permanent until relearned: still expired much later.
  EXPECT_FALSE(table.is_expected(9001, src, 9000));
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 1u);  // counted once
}

TEST(EiaAging, RelearnAfterExpiryIsCountedAndLive) {
  core::EiaTable table(aging_config(1000));
  table.declare_ingress(9001);
  const auto src = addr("10.1.2.3");
  learn(table, 9001, src, 100);
  EXPECT_FALSE(table.is_expected(9001, src, 5000));  // idled out
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 1u);

  learn(table, 9001, src, 5100);
  EXPECT_EQ(table.lifecycle_stats().entries_relearned, 1u);
  EXPECT_TRUE(table.is_expected(9001, src, 5200));
  EXPECT_EQ(table.entry_state(9001, src, 5200), lifecycle::EntryState::kEstablished);
}

TEST(EiaAging, PreloadedRangesNeverAge) {
  core::EiaTable table(aging_config(10));
  table.add_expected(9001, prefix("3.0.0.0/11"));
  const auto src = addr("3.0.0.7");
  EXPECT_TRUE(table.is_expected(9001, src, 1u << 30));
  EXPECT_EQ(table.entry_state(9001, src, 1u << 30),
            lifecycle::EntryState::kEstablished);
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 0u);
  EXPECT_EQ(table.aged_entry_count(), 0u);
}

TEST(EiaAging, ExporterRebaseNeverExpires) {
  core::EiaTable table(aging_config(1000));
  table.declare_ingress(9001);
  const auto src = addr("10.1.2.3");
  learn(table, 9001, src, 50000);
  // The exporter restarted: flow timestamps read far below last_seen.
  EXPECT_TRUE(table.is_expected(9001, src, 0));
  EXPECT_TRUE(table.is_expected(9001, src, 10));
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 0u);
}

TEST(EiaAging, SweepMatchesLazyExpiryExactly) {
  // Two identical tables, one swept eagerly at T: every later lookup must
  // answer the same -- the sweep only reclaims what lazy expiry would
  // have rejected anyway (verdict-neutral).
  core::EiaTable swept(aging_config(1000));
  core::EiaTable lazy(aging_config(1000));
  for (auto* table : {&swept, &lazy}) {
    table->declare_ingress(9001);
    learn(*table, 9001, addr("10.1.2.3"), 100);   // idles out by T
    learn(*table, 9001, addr("10.7.7.7"), 4800);  // still fresh at T
  }
  const std::size_t expired = swept.age_sweep(5000);
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(swept.aged_entry_count(), 2u);  // tombstone retained
  for (const char* probe : {"10.1.2.3", "10.7.7.7", "10.9.9.9"}) {
    EXPECT_EQ(swept.is_expected(9001, addr(probe), 5200),
              lazy.is_expected(9001, addr(probe), 5200))
        << probe;
  }
  EXPECT_EQ(swept.lifecycle_stats().entries_expired,
            lazy.lifecycle_stats().entries_expired);
}

TEST(EiaAging, DisabledConfigIsExactlyTheConstPath) {
  core::EiaTable table;  // default: aging off
  ASSERT_FALSE(table.aging_enabled());
  table.declare_ingress(9001);
  const auto src = addr("10.1.2.3");
  for (int i = 0; i < table.config().learn_threshold; ++i) {
    table.observe_mismatch(9001, src, 100);
  }
  // No expiry however far the clock runs, and no age metadata kept.
  EXPECT_TRUE(table.is_expected(9001, src, ~util::TimeMs{0} / 2));
  EXPECT_EQ(table.aged_entry_count(), 0u);
  EXPECT_EQ(table.age_sweep(~util::TimeMs{0} / 2), 0u);
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 0u);
}

// -- Persistence (core/eia_io.h) --

TEST(EiaIoLifecycle, AgeMetadataRoundTripsByteIdentically) {
  core::EiaTable table(aging_config(60000));
  table.add_expected(9001, prefix("3.0.0.0/11"));  // preload: no age line
  learn(table, 9001, addr("10.1.2.3"), 1000);
  learn(table, 9002, addr("10.5.0.9"), 2000);
  EXPECT_FALSE(table.is_expected(9002, addr("10.5.0.9"), 500000));  // tombstone

  const auto text = core::export_eia(table);
  EXPECT_NE(text.find("lifecycle v1 max_idle=60000"), std::string::npos);
  EXPECT_NE(text.find("age 9001 10.1.2.0/24 1000 1000"), std::string::npos);
  EXPECT_NE(text.find("age 9002 10.5.0.0/24 2000 2000 expired"), std::string::npos);

  auto imported = core::import_eia(text);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  // The directive overrides the caller's (default, aging-off) config.
  EXPECT_EQ(imported->config().lifecycle.max_idle_ms, 60000u);
  ASSERT_TRUE(imported->aging_enabled());
  EXPECT_EQ(imported->aged_entries(), table.aged_entries());
  // Byte-exact round trip: export(import(export(t))) == export(t).
  // Checked before any aging-aware lookup -- those refresh last_seen.
  EXPECT_EQ(core::export_eia(*imported), text);
  EXPECT_TRUE(imported->is_expected(9001, addr("10.1.2.3"), 1500));
  EXPECT_FALSE(imported->is_expected(9002, addr("10.5.0.9"), 1500));  // expired
  EXPECT_EQ(imported->entry_state(9002, addr("10.5.0.9"), 1500),
            lifecycle::EntryState::kExpired);
}

TEST(EiaIoLifecycle, AgingOffExportCarriesNoLifecycleLines) {
  core::EiaTable table;
  table.add_expected(9001, prefix("3.0.0.0/11"));
  const auto text = core::export_eia(table);
  EXPECT_EQ(text.find("lifecycle"), std::string::npos);
  EXPECT_EQ(text.find("age "), std::string::npos);
}

TEST(EiaIoLifecycle, LegacyDumpLoadsEstablishedUnderAgingConfig) {
  // A pre-lifecycle file: plain stanzas, no directive, no age lines.
  const std::string legacy = "ingress 9001\n  10.1.2.0/24\n";
  auto config = aging_config(60000);
  auto imported = core::import_eia(legacy, config);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  ASSERT_TRUE(imported->aging_enabled());
  EXPECT_EQ(imported->aged_entry_count(), 0u);
  // No metadata = treated as an operator preload: established forever.
  EXPECT_EQ(imported->entry_state(9001, addr("10.1.2.3"), 1u << 30),
            lifecycle::EntryState::kEstablished);
  EXPECT_TRUE(imported->is_expected(9001, addr("10.1.2.3"), 1u << 30));
}

TEST(EiaIoLifecycle, DirectiveAfterStateLinesIsRejected) {
  const std::string bad = "ingress 9001\n  10.1.2.0/24\nlifecycle v1 max_idle=5\n";
  const auto imported = core::import_eia(bad);
  EXPECT_FALSE(imported.has_value());
}

// -- Verdict neutrality at the engine level --

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

sim::ExperimentConfig small_config() {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 600;
  config.training_flows = 300;
  config.attack_volume = 0.04;
  config.engine.cluster.bits_per_feature = 48;
  config.seed = 77;
  return config;
}

// Aging enabled but never firing (max_idle beyond the horizon) must be
// bit-identical to aging off: the metadata bookkeeping (stamps, refreshes,
// tombstone checks) is pure observation, never a verdict input.
TEST(LifecycleEngine, AgingWithNoExpiryIsBitIdenticalToAgingOff) {
  const auto config = small_config();
  const auto baseline = sim::run_experiment(config);
  auto aged = config;
  aged.engine.eia.lifecycle.max_idle_ms = 365 * util::kDay;
  expect_same_result(baseline, sim::run_experiment(aged));
}

// -- Live resize: bit-consistency across the boundary --

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

void beacon_until_done(runtime::ShardedRuntime& rt, int producer,
                       std::atomic<int>& live) {
  live.fetch_sub(1);
  while (live.load() > 0) {
    rt.producer_idle(producer);
    std::this_thread::yield();
  }
}

// The tentpole acceptance sweep: at every (shard count, producer count),
// a grow resize at ~1/3 and a shrink back at ~2/3 of the stream -- fired
// from the control thread while producers are live -- must leave the
// alert stream and scan stats bit-identical to a fresh serial engine
// replaying the realized dispatch order. Aging is ON with a horizon that
// fires mid-stream, so expiry/relearn state rides the migration too.
TEST(LifecycleResize, MidStreamResizeSweepReplaysIdenticalAlertStream) {
  auto config = small_config();
  config.engine.eia.lifecycle.max_idle_ms = 2000;
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
      runtime::RuntimeConfig rc;
      rc.shards = shards;
      rc.producers = producers;
      rc.engine = engine_config;
      std::vector<std::uint64_t> seq_of(n, 0);  // one writer per tag
      alert::CollectingSink sharded_sink;
      runtime::ShardedRuntime rt(
          rc, &sharded_sink,
          [&](const runtime::FlowItem& item, const core::Verdict&) {
            seq_of[item.tag] = item.seq;
          });
      rt.set_clusters(clusters);
      preload(rt);
      std::atomic<int> live{producers};
      std::vector<std::thread> threads;
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          std::vector<runtime::FlowItem> batch;
          for (std::size_t i = static_cast<std::size_t>(p); i < n;
               i += static_cast<std::size_t>(producers)) {
            const auto& flow = stream.flows[i];
            batch.push_back(
                runtime::FlowItem{flow.record, flow.arrival_port,
                                  static_cast<util::TimeMs>(flow.record.last), i});
            if (batch.size() == 128) {
              rt.submit_batch(batch, p);
              batch.clear();
            }
          }
          if (!batch.empty()) rt.submit_batch(batch, p);
          beacon_until_done(rt, p, live);
        });
      }
      // Grow, then shrink back, from the control thread mid-stream. The
      // exact trigger point is irrelevant to the property -- any boundary
      // must be invisible in the replayed stream.
      const auto wait_processed = [&](std::uint64_t target) {
        while (rt.stats().processed < target && live.load() > 0) {
          std::this_thread::yield();
        }
      };
      wait_processed(n / 3);
      EXPECT_TRUE(rt.resize(shards * 2));
      wait_processed(2 * n / 3);
      EXPECT_TRUE(rt.resize(std::max(1, shards / 2)));
      for (auto& t : threads) t.join();
      rt.flush();
      EXPECT_EQ(rt.shard_count(), static_cast<std::size_t>(std::max(1, shards / 2)));

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
      const auto snap = rt.snapshot();
      EXPECT_DOUBLE_EQ(snap.value("infilter_lifecycle_resizes_total"), 2.0);
      // Resize-retired engine history stays in the merged view: every
      // flow is still accounted for after two pool replacements.
      EXPECT_DOUBLE_EQ(snap.value("infilter_flows_total"),
                       static_cast<double>(n));
    }
  }
}

netflow::V5Record simple_flow(std::uint32_t salt) {
  netflow::V5Record r;
  r.src_ip = net::IPv4Address{(10u << 24) | (salt << 8)};
  r.dst_ip = addr("100.64.0.1");
  r.proto = 6;
  r.src_port = 40000;
  r.dst_port = 80;
  r.packets = 10;
  r.bytes = 5000;
  r.first = salt;
  r.last = salt + 10;
  return r;
}

// The race lane: resize(), flush(), and snapshot() hammered from the
// control thread while producer threads submit -- nothing lost, nothing
// double-counted, whatever interleaving the scheduler picks. Run under
// INFILTER_SANITIZE=thread this pins the absence of data races in the
// quiesce/harvest/restart protocol (scripts/check.sh's lifecycle lane).
TEST(LifecycleResize, ResizeFlushSnapshotRaceProducersSafely) {
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  runtime::RuntimeConfig config;
  config.shards = 2;
  config.producers = kProducers;
  config.queue_depth = 64;
  config.backpressure = runtime::BackpressurePolicy::kBlock;
  config.engine.mode = core::EngineMode::kBasic;
  config.engine.eia.lifecycle.max_idle_ms = 50;  // churn mid-run too
  runtime::ShardedRuntime rt(config);
  std::atomic<int> live{kProducers};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<runtime::FlowItem> batch;
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        batch.push_back(
            runtime::FlowItem{simple_flow(static_cast<std::uint32_t>(i)), 9001,
                              static_cast<util::TimeMs>(i)});
        if (batch.size() == 16) {
          rt.submit_batch(batch, p);
          batch.clear();
        }
      }
      if (!batch.empty()) rt.submit_batch(batch, p);
      beacon_until_done(rt, p, live);
    });
  }
  const int sizes[] = {3, 1, 4, 2};
  std::size_t next_size = 0;
  while (live.load() > 0) {
    EXPECT_TRUE(rt.resize(sizes[next_size++ % 4]));
    const auto snap = rt.snapshot();
    EXPECT_GT(snap.value("infilter_runtime_shards"), 0.0);
    rt.flush();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (auto& t : producers) t.join();
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, kPerProducer * kProducers);
  EXPECT_EQ(stats.dispatched, kPerProducer * kProducers);
  EXPECT_EQ(stats.processed, kPerProducer * kProducers);
  EXPECT_EQ(stats.dropped, 0u);
  // Retired-pool history keeps the merged flow count exact.
  EXPECT_DOUBLE_EQ(rt.snapshot().value("infilter_flows_total"),
                   static_cast<double>(kPerProducer * kProducers));
}

TEST(LifecycleResize, RejectsInvalidAndPostShutdownRequests) {
  runtime::RuntimeConfig config;
  config.shards = 2;
  config.engine.mode = core::EngineMode::kBasic;
  runtime::ShardedRuntime rt(config);
  EXPECT_FALSE(rt.resize(0));
  EXPECT_TRUE(rt.resize(2));  // same-size no-op succeeds
  EXPECT_EQ(rt.shard_count(), 2u);
  rt.shutdown();
  EXPECT_FALSE(rt.resize(4));
}

// -- The churn soak harness (sim/soak.h) --

// Acceptance: aging + two live resizes (grow then shrink) across a
// multi-wave horizon with day-long idle gaps and per-wave exporter
// restarts must not decay detection quality versus a static-pool run of
// the same waves. With a single submitting producer the realized order is
// the submission order, so the two runs' verdicts are bit-identical --
// asserted exactly, not within a tolerance.
TEST(LifecycleSoak, ResizedRunMatchesStaticPoolQuality) {
  sim::SoakConfig soak;
  soak.base = small_config();
  soak.base.normal_flows_per_source = 400;
  soak.base.runtime_shards = 2;
  soak.base.runtime_queue_depth = 512;
  // Routing churn donates blocks between sources, so drift entries get
  // learned each wave; a low threshold makes that certain at this scale.
  soak.base.route_change_blocks = 8;
  soak.base.engine.eia.learn_threshold = 2;
  soak.base.engine.eia.lifecycle.max_idle_ms = 12 * util::kHour;
  soak.waves = 3;
  soak.wave_gap_ms = util::kDay;
  soak.resizes = {{.before_wave = 1, .shards = 4}, {.before_wave = 2, .shards = 1}};
  const auto churned = sim::run_soak(soak);

  auto static_pool = soak;
  static_pool.resizes.clear();
  const auto baseline = sim::run_soak(static_pool);

  EXPECT_EQ(churned.resizes, 2u);
  EXPECT_EQ(baseline.resizes, 0u);
  EXPECT_GT(churned.migrated_entries, 0u);
  EXPECT_GT(churned.resize_pause_p99_us, 0.0);
  ASSERT_EQ(churned.waves.size(), 3u);
  EXPECT_EQ(churned.waves[1].shards, 4);
  EXPECT_EQ(churned.waves[2].shards, 1);
  // The day-long gaps exceed max_idle: learned drift entries expire and
  // relearn across waves in both runs.
  EXPECT_GT(churned.entries_expired, 0u);
  EXPECT_GT(churned.min_detection_rate(), 0.0);
  for (std::size_t w = 0; w < churned.waves.size(); ++w) {
    SCOPED_TRACE("wave " + std::to_string(w));
    const auto& c = churned.waves[w];
    const auto& b = baseline.waves[w];
    EXPECT_DOUBLE_EQ(c.detection_rate, b.detection_rate);
    EXPECT_DOUBLE_EQ(c.flow_detection_rate, b.flow_detection_rate);
    EXPECT_DOUBLE_EQ(c.false_positive_rate, b.false_positive_rate);
    EXPECT_DOUBLE_EQ(c.benign_suspect_rate, b.benign_suspect_rate);
    EXPECT_EQ(c.entries_expired, b.entries_expired);
    EXPECT_EQ(c.entries_relearned, b.entries_relearned);
  }
}

// The explicit sweep is verdict-neutral: eager reclamation between waves
// versus purely lazy expiry yields the same quality trajectory.
TEST(LifecycleSoak, EagerSweepIsVerdictNeutral) {
  sim::SoakConfig soak;
  soak.base = small_config();
  soak.base.normal_flows_per_source = 400;
  soak.base.runtime_shards = 2;
  soak.base.route_change_blocks = 8;
  soak.base.engine.eia.learn_threshold = 2;
  soak.base.engine.eia.lifecycle.max_idle_ms = 12 * util::kHour;
  soak.waves = 2;
  soak.age_sweep_between_waves = true;
  const auto swept = sim::run_soak(soak);
  EXPECT_GT(swept.waves.at(0).swept + swept.waves.at(1).swept, 0u);

  auto lazy_config = soak;
  lazy_config.age_sweep_between_waves = false;
  const auto lazy = sim::run_soak(lazy_config);
  ASSERT_EQ(swept.waves.size(), lazy.waves.size());
  for (std::size_t w = 0; w < swept.waves.size(); ++w) {
    SCOPED_TRACE("wave " + std::to_string(w));
    EXPECT_DOUBLE_EQ(swept.waves[w].detection_rate, lazy.waves[w].detection_rate);
    EXPECT_DOUBLE_EQ(swept.waves[w].false_positive_rate,
                     lazy.waves[w].false_positive_rate);
    EXPECT_DOUBLE_EQ(swept.waves[w].benign_suspect_rate,
                     lazy.waves[w].benign_suspect_rate);
    EXPECT_EQ(lazy.waves[w].swept, 0u);
  }
}

}  // namespace
}  // namespace infilter
