// Tests for the deployable analysis node (app/node.h): the full live
// pipeline over real loopback sockets.

#include "app/node.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "dagflow/dagflow.h"
#include "obs/trace.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"

namespace infilter::app {
namespace {

std::vector<netflow::V5Record> training_records(std::uint64_t seed) {
  traffic::NormalTrafficModel model;
  util::Rng rng{seed};
  const auto trace = model.generate(600, 0, rng);
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), seed);
  std::vector<netflow::V5Record> records;
  for (const auto& labeled : replayer.replay(trace)) records.push_back(labeled.record);
  return records;
}

NodeConfig test_config(std::vector<std::uint16_t> ports) {
  NodeConfig config;
  config.ports = std::move(ports);
  config.engine.cluster.bits_per_feature = 48;
  config.engine.seed = 5;
  return config;
}

void preload_table3(InFilterNode& node, std::span<const std::uint16_t> ports) {
  // Map source s's Table 3 blocks to the s-th bound port.
  for (std::size_t s = 0; s < ports.size(); ++s) {
    for (const auto& block : dagflow::eia_range(static_cast<int>(s)).expand()) {
      node.add_expected(ports[s], block.prefix());
    }
  }
}

TEST(InFilterNode, BindsEphemeralPorts) {
  auto node = InFilterNode::create(test_config({0, 0, 0}));
  ASSERT_TRUE(node.has_value()) << node.error().message;
  const auto ports = (*node)->ports();
  ASSERT_EQ(ports.size(), 3u);
  for (const auto port : ports) EXPECT_GT(port, 0);
}

TEST(InFilterNode, PollWithoutTrafficProcessesNothing) {
  auto node = InFilterNode::create(test_config({0}));
  ASSERT_TRUE(node.has_value());
  const auto processed = (*node)->poll_once(10);
  ASSERT_TRUE(processed.has_value());
  EXPECT_EQ(*processed, 0u);
  EXPECT_EQ((*node)->stats().flows_processed, 0u);
}

TEST(InFilterNode, EndToEndLiveDetection) {
  alert::CollectingSink ui;
  auto node = InFilterNode::create(test_config({0, 0}), &ui);
  ASSERT_TRUE(node.has_value()) << node.error().message;
  const auto ports = (*node)->ports();
  preload_table3(**node, ports);
  (*node)->train(training_records(7));

  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());

  // Normal traffic through port 0 (source 0's own blocks): clean.
  traffic::NormalTrafficModel model;
  util::Rng rng{8};
  {
    const auto trace = model.generate(150, 0, rng);
    dagflow::Dagflow source(
        dagflow::DagflowConfig{.netflow_port = ports[0]},
        dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
        9);
    const auto labeled = source.replay(trace);
    for (const auto& datagram : source.export_datagrams(labeled, 1000)) {
      ASSERT_TRUE(sender->send(ports[0], datagram).has_value());
    }
  }
  // A spoofed Slammer sweep through port 1.
  traffic::AttackConfig attack_config;
  attack_config.companion_fraction = 0;
  const auto worm = traffic::generate_attack(traffic::AttackKind::kSlammer,
                                             attack_config, 2000, rng);
  {
    dagflow::Dagflow attacker(
        dagflow::DagflowConfig{.netflow_port = ports[1]},
        dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("70a")}), 10);
    const auto labeled = attacker.replay(worm);
    for (const auto& datagram : attacker.export_datagrams(labeled, 2000)) {
      ASSERT_TRUE(sender->send(ports[1], datagram).has_value());
    }
  }

  // Drain until everything sent has been analyzed (bounded retries).
  const std::size_t expected = 150 + worm.flows.size();
  std::size_t processed = 0;
  for (int i = 0; i < 200 && processed < expected; ++i) {
    const auto result = (*node)->poll_once(20);
    ASSERT_TRUE(result.has_value()) << result.error().message;
    processed += *result;
  }
  EXPECT_EQ(processed, expected);

  const auto& stats = (*node)->stats();
  EXPECT_EQ(stats.flows_processed, expected);
  EXPECT_EQ(stats.suspects, worm.flows.size());  // only the worm is spoofed
  EXPECT_GT(stats.attacks_flagged, worm.flows.size() / 2);
  EXPECT_EQ(stats.malformed_datagrams, 0u);

  // Alerts flowed through traceback to the UI, and traceback grouped the
  // sweep into one episode entering via port 1.
  EXPECT_GT(ui.alerts().size(), 0u);
  const auto episodes = (*node)->traceback().episodes();
  ASSERT_GE(episodes.size(), 1u);
  EXPECT_EQ(episodes.front().primary_ingress(), ports[1]);
  EXPECT_EQ(episodes.front().service_port, std::optional<std::uint16_t>{1434});
}

TEST(InFilterNode, StatsAccumulateAcrossPolls) {
  auto node = InFilterNode::create(test_config({0}));
  ASSERT_TRUE(node.has_value());
  const auto ports = (*node)->ports();
  preload_table3(**node, ports);
  (*node)->train(training_records(11));

  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  traffic::NormalTrafficModel model;
  util::Rng rng{12};
  for (int batch = 0; batch < 3; ++batch) {
    const auto trace = model.generate(40, 0, rng);
    dagflow::Dagflow source(
        dagflow::DagflowConfig{.netflow_port = ports[0]},
        dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
        static_cast<std::uint64_t>(13 + batch));
    const auto labeled = source.replay(trace);
    for (const auto& datagram : source.export_datagrams(labeled, 1000)) {
      ASSERT_TRUE(sender->send(ports[0], datagram).has_value());
    }
    std::size_t processed = 0;
    for (int i = 0; i < 100 && processed < 40; ++i) {
      const auto result = (*node)->poll_once(20);
      ASSERT_TRUE(result.has_value());
      processed += *result;
    }
  }
  EXPECT_EQ((*node)->stats().flows_processed, 120u);
}

// Collector mode on the runtime tags each record with its arrival index,
// so trace sampling picks 1 record in sample_every, each journey under its
// own id. Untagged (all-zero) records would all be sampled under id 0.
TEST(InFilterNode, RuntimeCollectorJourneysHaveDistinctIds) {
  obs::TracerConfig trace_config;
  trace_config.sample_every = 4;
  trace_config.enabled = true;
  obs::Tracer tracer(trace_config);  // outlives the node, which emits into it

  NodeConfig config = test_config({0});
  config.threads = 1;
  config.tracer = &tracer;
  auto node = InFilterNode::create(config);
  ASSERT_TRUE(node.has_value()) << node.error().message;
  const auto ports = (*node)->ports();
  preload_table3(**node, ports);

  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  traffic::NormalTrafficModel model;
  util::Rng rng{17};
  const auto trace = model.generate(120, 0, rng);
  dagflow::Dagflow source(
      dagflow::DagflowConfig{.netflow_port = ports[0]},
      dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
      18);
  const auto labeled = source.replay(trace);
  for (const auto& datagram : source.export_datagrams(labeled, 1000)) {
    ASSERT_TRUE(sender->send(ports[0], datagram).has_value());
  }
  std::size_t processed = 0;
  for (int i = 0; i < 100 && processed < labeled.size(); ++i) {
    const auto result = (*node)->poll_once(20);
    ASSERT_TRUE(result.has_value());
    processed += *result;
  }
  ASSERT_EQ(processed, labeled.size());
  (*node)->flush();

  const auto snapshot = tracer.snapshot();
  const auto* e2e = snapshot.histogram("infilter_e2e_latency_us");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, processed / 4);  // tags 4, 8, ..., processed

  const std::string json = tracer.chrome_trace_json();
  std::set<std::uint64_t> ids;
  const std::string key = "\"args\":{\"id\":";
  for (auto at = json.find(key); at != std::string::npos; at = json.find(key, at)) {
    at += key.size();
    const std::uint64_t id = std::stoull(json.substr(at, 24));
    EXPECT_EQ(id % 4, 0u) << "journey under an unsampled id";
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), e2e->count);
}

}  // namespace
}  // namespace infilter::app
