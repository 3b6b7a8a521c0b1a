// The deployable analysis node: Figure 9 assembled.
//
// One object owning the whole receiving side of the architecture --
// flow-capture sockets (one per Peer AS / BR collector port), the
// Enhanced InFilter engine, the traceback aggregator and an alert sink.
// There is one execution path: ingest receiver threads decode the export
// datagrams and dispatch them into a ShardedRuntime, whose shard engines
// analyze the flows. This is what an operator actually runs
// (tools/infilter-monitor); the testbed and benches drive the same runtime
// in-process instead.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/traceback.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "util/result.h"

namespace infilter::app {

struct NodeConfig {
  /// Collector UDP ports, one per emulated Peer AS / border router.
  std::vector<std::uint16_t> ports{9001, 9002, 9003, 9004, 9005,
                                   9006, 9007, 9008, 9009, 9010};
  core::EngineConfig engine;
  core::TracebackConfig traceback;

  // -- Concurrent runtime (src/runtime) --
  /// Worker shards of the ShardedRuntime that analyzes every flow
  /// (clamped to >= 1). Verdict stats trail reception by whatever is still
  /// in flight -- call flush() before reading them exactly.
  int threads = 1;
  /// Per-shard ring capacity.
  std::size_t queue_depth = 4096;
  runtime::BackpressurePolicy backpressure = runtime::BackpressurePolicy::kBlock;

  // -- Live ingest (src/ingest) --
  /// Receiver threads of the IngestPipeline (clamped to [1, ports.size()]):
  /// each recvmmsg()s into pooled buffers, decodes inline and dispatches
  /// directly into the runtime -- receiver i is runtime producer i.
  /// poll_once() only reports progress; reception never waits for it.
  int ingest_threads = 1;

  // -- CPU placement (src/runtime/affinity.h) --
  /// Cpu ids for the pipeline's threads (--cpu-set): ingest receivers
  /// take the first slots, runtime shard workers the next, then the scan
  /// thread; assignment is round-robin over the list. Empty = unpinned.
  /// Pinning is a hint -- failures are counted in the affinity metrics,
  /// never fatal, so the same config runs on a 1-CPU host.
  std::vector<int> affinity;

  // -- Flight recorder (src/obs/trace.h) --
  /// Not owned; null = no tracing. Shared by the ingest pipeline and the
  /// runtime, so one tracer sees the whole record journey. Must outlive
  /// the node.
  obs::Tracer* tracer = nullptr;
};

/// Counters the monitor reports.
struct NodeStats {
  /// Flows *accepted for analysis* (dispatched to a shard ring, possibly
  /// still queued), while suspects/attacks_flagged count completed flows
  /// -- so a live reading can show fewer verdicts than flows. flush()
  /// reconciles them exactly.
  std::uint64_t flows_processed = 0;
  /// Flows shed by a full shard ring (kDrop only).
  std::uint64_t dropped_flows = 0;
  std::uint64_t suspects = 0;
  std::uint64_t attacks_flagged = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t malformed_datagrams = 0;
  std::uint64_t sequence_gaps = 0;
};

class InFilterNode {
 public:
  /// Binds the collector sockets and starts the receiver, shard and scan
  /// threads. `alert_consumer` (optional, not owned) receives every alert
  /// after traceback aggregation.
  static util::Result<std::unique_ptr<InFilterNode>> create(
      const NodeConfig& config, alert::AlertSink* alert_consumer = nullptr);

  /// Pipeline threads and callbacks hold the node's address.
  InFilterNode(const InFilterNode&) = delete;
  InFilterNode& operator=(const InFilterNode&) = delete;

  /// Training-phase helpers (Figure 11). Fan out to every shard, with the
  /// receivers parked so no flow is analyzed mid-update.
  void add_expected(core::IngressId ingress, const net::Prefix& prefix);
  void train(std::span<const netflow::V5Record> normal_flows);

  /// Reception, decode and dispatch run on the pipeline's threads: this
  /// sleeps `timeout_ms`, refreshes stats(), and returns how many records
  /// the pipeline dispatched since the previous poll. Flow timestamps come
  /// from the records (virtual time), so analysis is deterministic for a
  /// given input stream.
  util::Result<std::size_t> poll_once(int timeout_ms);

  /// Blocks until every received flow has been analyzed, making stats()
  /// and metrics() exact. Two-phase: ingest drain, then runtime flush.
  void flush();

  /// Live-resizes the worker shard pool, migrating per-shard engine state
  /// (see runtime::ShardedRuntime::resize). Safe while ingest receivers
  /// are dispatching -- they stall on the submit gate for the pause.
  /// Returns false when the runtime rejects the request.
  bool resize(int new_shards);

  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] const core::TracebackEngine& traceback() const { return traceback_; }
  [[nodiscard]] std::vector<std::uint16_t> ports() const { return ingest_->ports(); }
  /// Worker shards processing flows.
  [[nodiscard]] int threads() const { return static_cast<int>(runtime_->shard_count()); }
  /// Ingest receiver threads (NodeConfig::ingest_threads after clamping).
  [[nodiscard]] int receivers() const { return static_cast<int>(ingest_->receiver_count()); }

  /// Every metric of the node in one view: the runtime (with the
  /// per-shard engine registries merged in), the ingest pipeline and the
  /// tracer, taken with the receivers parked. Call from the polling thread
  /// only, and flush() first for a complete view -- busy shards' engine
  /// registries are omitted.
  [[nodiscard]] obs::RegistrySnapshot metrics() const;

 private:
  InFilterNode(const NodeConfig& config, alert::AlertSink* alert_consumer);

  void refresh_stats();

  // Declaration order is teardown order, reversed: the receivers stop
  // before the runtime they dispatch into, and the runtime joins its
  // workers before the registry, traceback and verdict counters they
  // write to go away.
  obs::Registry registry_;
  obs::Registry* registry_ptr_;  ///< user-supplied or &registry_
  core::TracebackEngine traceback_;
  /// Verdict counts from the runtime's workers (hook side).
  std::atomic<std::uint64_t> hook_suspects_{0};
  std::atomic<std::uint64_t> hook_attacks_{0};
  obs::Tracer* tracer_ = nullptr;  ///< NodeConfig::tracer; may be null
  std::unique_ptr<runtime::ShardedRuntime> runtime_;
  /// Set in create() once the node is at its final address.
  std::unique_ptr<ingest::IngestPipeline> ingest_;
  NodeStats stats_;
  /// Records already reported by previous polls.
  std::uint64_t reported_ = 0;
};

}  // namespace infilter::app
