#include "app/node.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace infilter::app {
namespace {

/// Routes engine metrics into the node-owned registry unless the caller
/// already supplied one.
core::EngineConfig with_registry(core::EngineConfig engine, obs::Registry* registry) {
  if (engine.registry == nullptr) engine.registry = registry;
  return engine;
}

}  // namespace

InFilterNode::InFilterNode(const NodeConfig& config,
                           std::unique_ptr<flowtools::LiveCollector> collector,
                           alert::AlertSink* alert_consumer)
    : collector_(std::move(collector)),
      registry_ptr_(config.engine.registry != nullptr ? config.engine.registry
                                                      : &registry_),
      traceback_(config.traceback, alert_consumer),
      tracer_(config.tracer) {
  if (config.threads > 0) {
    // Runtime-backed analysis: the poll loop becomes the dispatcher and N
    // shard engines do the work. The runtime serializes shard alerts, so
    // the (single-threaded) traceback aggregator works unmodified.
    runtime::RuntimeConfig runtime_config;
    runtime_config.shards = config.threads;
    runtime_config.queue_depth = config.queue_depth;
    runtime_config.backpressure = config.backpressure;
    runtime_config.engine = config.engine;
    runtime_config.registry = registry_ptr_;
    runtime_config.tracer = tracer_;
    runtime_config.cpu_set = config.affinity;
    if (config.ingest_threads > 0) {
      // One producer slot per ingest receiver (receiver i dispatches as
      // producer i). Receivers take cpu slots 0..R-1 of the affinity
      // list, so the runtime's workers and scan thread start after them.
      const auto receivers = std::max<std::size_t>(
          std::min<std::size_t>(
              static_cast<std::size_t>(std::max(1, config.ingest_threads)),
              config.ports.size()),
          1);
      runtime_config.producers = static_cast<int>(receivers);
      runtime_config.cpu_slot_offset = receivers;
    }
    runtime_ = std::make_unique<runtime::ShardedRuntime>(
        std::move(runtime_config), &traceback_,
        [this](const runtime::FlowItem&, const core::Verdict& verdict) {
          if (verdict.suspect)
            hook_suspects_.fetch_add(1, std::memory_order_relaxed);
          if (verdict.attack)
            hook_attacks_.fetch_add(1, std::memory_order_relaxed);
        });
  } else {
    engine_ = std::make_unique<core::InFilterEngine>(
        with_registry(config.engine, &registry_), &traceback_);
    if (tracer_ != nullptr) {
      // Serial analysis runs on whichever thread drives poll_once() --
      // one logical thread, like the runtime's dispatcher.
      poll_lane_ = tracer_->register_thread("poll", "serial");
    }
  }

  // Collector-path health, sampled from the capture at snapshot time.
  // Ingest mode has no capture; the pipeline registers its own
  // infilter_ingest_* counters into the same registry instead.
  if (collector_ == nullptr) return;
  auto& registry = *registry_ptr_;
  registry.counter_fn(
      "infilter_collector_datagrams_total",
      [this] { return static_cast<std::uint64_t>(collector_->capture().datagrams_received()); },
      "NetFlow export datagrams received on the collector sockets");
  registry.counter_fn(
      "infilter_collector_malformed_total",
      [this] { return static_cast<std::uint64_t>(collector_->capture().datagrams_malformed()); },
      "Datagrams dropped as undecodable NetFlow v5");
  registry.counter_fn(
      "infilter_collector_records_total",
      [this] { return collector_->capture().records_decoded(); },
      "Flow records decoded from received datagrams");
  registry.counter_fn(
      "infilter_collector_sequence_gaps_total",
      [this] { return collector_->capture().sequence_gaps(); },
      "Export records lost to sequence gaps (per engine/port stream)");
}

InFilterNode::~InFilterNode() {
  // The receiver threads dispatch into runtime_, which member order would
  // otherwise destroy first; stop the pipeline before anything else dies.
  if (ingest_) ingest_->stop();
  if (poll_lane_ != nullptr) poll_lane_->retire();
}

util::Result<std::unique_ptr<InFilterNode>> InFilterNode::create(
    const NodeConfig& config, alert::AlertSink* alert_consumer) {
  if (config.ingest_threads > 0) {
    // Threaded reception needs something to dispatch into: force runtime
    // mode, then attach the pipeline once the runtime exists (the node
    // must be at its final address first -- the dispatch callback and the
    // metric callbacks point into it).
    NodeConfig adjusted = config;
    adjusted.threads = std::max(1, config.threads);
    auto node = std::unique_ptr<InFilterNode>(
        new InFilterNode(adjusted, nullptr, alert_consumer));
    ingest::IngestConfig ingest_config;
    ingest_config.ports = adjusted.ports;
    ingest_config.receiver_threads = adjusted.ingest_threads;
    ingest_config.overload = adjusted.overload;
    ingest_config.registry = node->registry_ptr_;
    ingest_config.tracer = adjusted.tracer;
    ingest_config.cpu_set = adjusted.affinity;  // receivers take slots 0..R-1
    auto pipeline = ingest::IngestPipeline::create(std::move(ingest_config),
                                                   *node->runtime_);
    if (!pipeline) return pipeline.error();
    node->ingest_ = std::move(*pipeline);
    return node;
  }
  auto collector = flowtools::LiveCollector::bind(config.ports);
  if (!collector) return collector.error();
  // unique_ptr because the engine holds a pointer to the traceback member:
  // the node must not be movable.
  return std::unique_ptr<InFilterNode>(new InFilterNode(
      config,
      std::make_unique<flowtools::LiveCollector>(std::move(*collector)),
      alert_consumer));
}

void InFilterNode::add_expected(core::IngressId ingress, const net::Prefix& prefix) {
  if (ingest_) {
    // The runtime's training calls are gate-exclusive and safe under live
    // producers; quiescing the receivers on top keeps the whole pipeline
    // empty while the tables change, in case traffic is already arriving.
    ingest_->quiesce([&] { runtime_->add_expected(ingress, prefix); });
  } else if (runtime_) {
    runtime_->add_expected(ingress, prefix);
  } else {
    engine_->add_expected(ingress, prefix);
  }
}

void InFilterNode::train(std::span<const netflow::V5Record> normal_flows) {
  if (ingest_) {
    ingest_->quiesce([&] { runtime_->train(normal_flows); });
  } else if (runtime_) {
    runtime_->train(normal_flows);
  } else {
    engine_->train(normal_flows);
  }
}

util::Result<std::size_t> InFilterNode::poll_once(int timeout_ms) {
  if (ingest_) {
    // Reception, decode, and dispatch all run on pipeline threads; the
    // poll loop only paces itself and reports progress.
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
    refresh_ingest_stats();
    refresh_runtime_stats();
    const auto dispatched = stats_.flows_processed;
    const auto delta = dispatched - ingest_consumed_;
    ingest_consumed_ = dispatched;
    return static_cast<std::size_t>(delta);
  }

  const auto stored = collector_->poll_once(timeout_ms);
  if (!stored) return stored.error();

  const auto& capture = collector_->capture();
  const auto& flows = capture.flows();
  std::size_t processed = 0;
  if (runtime_) {
    // The records stored by this poll are one run: submit it as one batch,
    // each record tagged with its 1-based arrival index (its trace
    // journey id, as in serial mode).
    std::vector<runtime::FlowItem> items;
    items.reserve(flows.size() - consumed_);
    for (; consumed_ < flows.size(); ++consumed_) {
      const auto& flow = flows[consumed_];
      items.push_back(runtime::FlowItem{flow.record, flow.arrival_port,
                                        flow.record.last, ++record_seq_});
    }
    const std::size_t accepted = runtime_->submit_batch(items);
    stats_.flows_processed += accepted;
    stats_.dropped_flows += items.size() - accepted;
    processed = items.size();
  } else {
    for (; consumed_ < flows.size(); ++consumed_) {
      const auto& flow = flows[consumed_];
      core::Verdict verdict;
      ++record_seq_;
      if (poll_lane_ != nullptr && tracer_->enabled() &&
          tracer_->sampled(record_seq_)) {
        // Serial mode has no hand-offs: one span is the whole journey.
        const auto t0 = obs::Tracer::now_ns();
        verdict = engine_->process(flow.record, flow.arrival_port, flow.record.last);
        const auto t1 = obs::Tracer::now_ns();
        poll_lane_->emit(obs::SpanKind::kSerial, t0, t1 - t0, record_seq_);
        tracer_->e2e_us->observe(static_cast<double>(t1 - t0) / 1000.0);
      } else {
        verdict = engine_->process(flow.record, flow.arrival_port, flow.record.last);
      }
      ++stats_.flows_processed;
      stats_.suspects += verdict.suspect ? 1 : 0;
      stats_.attacks_flagged += verdict.attack ? 1 : 0;
      ++processed;
    }
  }
  if (poll_lane_ != nullptr && processed > 0) poll_lane_->heartbeat(processed);
  if (runtime_) refresh_runtime_stats();
  stats_.datagrams = capture.datagrams_received();
  stats_.malformed_datagrams = capture.datagrams_malformed();
  stats_.sequence_gaps = capture.sequence_gaps();
  return processed;
}

void InFilterNode::flush() {
  if (!runtime_) return;
  if (ingest_) {
    // Two-phase: park the receivers with everything they accepted already
    // dispatched, then flush the runtime inside the quiet window so no
    // new submits race the drain accounting.
    ingest_->quiesce([&] { runtime_->flush(); });
    refresh_ingest_stats();
  } else {
    runtime_->flush();
  }
  refresh_runtime_stats();
}

bool InFilterNode::resize(int new_shards) {
  if (!runtime_) return false;
  return runtime_->resize(new_shards);
}

void InFilterNode::refresh_runtime_stats() {
  stats_.suspects = hook_suspects_.load(std::memory_order_relaxed);
  stats_.attacks_flagged = hook_attacks_.load(std::memory_order_relaxed);
}

void InFilterNode::refresh_ingest_stats() {
  const auto ingest_stats = ingest_->stats();
  stats_.flows_processed = ingest_stats.records_dispatched;
  stats_.dropped_flows = ingest_stats.records_shed;
  stats_.datagrams = ingest_stats.datagrams_received;
  stats_.malformed_datagrams = ingest_stats.datagrams_malformed;
  stats_.sequence_gaps = ingest_stats.sequence_gaps;
}

obs::RegistrySnapshot InFilterNode::metrics() const {
  if (ingest_) {
    // runtime_->snapshot() is safe under live producers, but taking it
    // (and the pipeline's private gauges) inside the pipeline's quiet
    // window gives one coherent, nothing-in-flight view.
    obs::RegistrySnapshot merged;
    ingest_->quiesce([&] {
      std::vector<obs::RegistrySnapshot> parts{runtime_->snapshot(),
                                               ingest_->snapshot()};
      if (tracer_ != nullptr) parts.push_back(tracer_->snapshot());
      merged = obs::merge_snapshots(parts);
    });
    return merged;
  }
  auto base = runtime_ ? runtime_->snapshot() : registry_ptr_->snapshot();
  if (tracer_ == nullptr) return base;
  return obs::merge_snapshots({std::move(base), tracer_->snapshot()});
}

}  // namespace infilter::app
