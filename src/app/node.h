// The deployable analysis node: Figure 9 assembled.
//
// One object owning the whole receiving side of the architecture --
// flow-capture sockets (one per Peer AS / BR collector port), the
// Enhanced InFilter engine, the traceback aggregator and an alert sink --
// driven by a poll loop. This is what an operator actually runs
// (tools/infilter-monitor); the testbed and benches drive the same engine
// in-process instead.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/traceback.h"
#include "flowtools/udp.h"
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
  /// 0 analyzes flows inline on the polling thread (the paper's prototype
  /// shape); N >= 1 dispatches them to a ShardedRuntime with N worker
  /// shards. Verdict stats then trail the poll loop by whatever is still
  /// in flight -- call flush() before reading them exactly.
  int threads = 0;
  /// Per-shard ring capacity when threads > 0.
  std::size_t queue_depth = 4096;
  runtime::BackpressurePolicy backpressure = runtime::BackpressurePolicy::kBlock;

  // -- Threaded live ingest (src/ingest) --
  /// 0 receives with the classic single-thread LiveCollector on the poll
  /// loop; N >= 1 replaces it with an IngestPipeline: N receiver threads
  /// recvmmsg-ing into pooled buffers, decoding inline, and dispatching
  /// directly into the runtime -- receiver i is runtime producer i, no
  /// intermediate decode/dispatcher thread. Implies runtime mode (threads
  /// is clamped to >= 1). poll_once() then only reports progress --
  /// reception never waits for the poll loop.
  int ingest_threads = 0;
  /// Retained for compatibility; receiver-direct ingest has no internal
  /// queue for the policy to govern (see ingest::OverloadPolicy).
  ingest::OverloadPolicy overload = ingest::OverloadPolicy::kBlock;

  // -- CPU placement (src/runtime/affinity.h) --
  /// Cpu ids for the pipeline's threads (--cpu-set): ingest receivers
  /// take the first slots, runtime shard workers the next, then the scan
  /// thread; assignment is round-robin over the list. Empty = unpinned.
  /// Pinning is a hint -- failures are counted in the affinity metrics,
  /// never fatal, so the same config runs on a 1-CPU host.
  std::vector<int> affinity;

  // -- Flight recorder (src/obs/trace.h) --
  /// Not owned; null = no tracing. Shared by the ingest pipeline, the
  /// runtime, and (serial mode) the poll loop, so one tracer sees the
  /// whole record journey. Must outlive the node.
  obs::Tracer* tracer = nullptr;
};

/// Counters the monitor reports.
struct NodeStats {
  /// Serial mode: flows fully analyzed. Runtime mode: flows *accepted for
  /// analysis* (dispatched to a shard ring, possibly still queued), while
  /// suspects/attacks_flagged count completed flows -- so a live reading
  /// can show fewer verdicts than flows. flush() reconciles them exactly.
  std::uint64_t flows_processed = 0;
  /// Flows shed by a full shard ring (threads > 0 with kDrop only).
  std::uint64_t dropped_flows = 0;
  std::uint64_t suspects = 0;
  std::uint64_t attacks_flagged = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t malformed_datagrams = 0;
  std::uint64_t sequence_gaps = 0;
};

class InFilterNode {
 public:
  /// Binds the collector sockets. `alert_consumer` (optional, not owned)
  /// receives every alert after traceback aggregation.
  static util::Result<std::unique_ptr<InFilterNode>> create(
      const NodeConfig& config, alert::AlertSink* alert_consumer = nullptr);

  /// Stops the ingest pipeline before the runtime dies (the receiver
  /// threads dispatch into it) and retires the node's trace lane.
  ~InFilterNode();

  /// Training-phase helpers (Figure 11). Fan out to every shard when the
  /// node is runtime-backed.
  void add_expected(core::IngressId ingress, const net::Prefix& prefix);
  void train(std::span<const netflow::V5Record> normal_flows);

  /// Waits up to `timeout_ms` for export datagrams, analyzes (or, with
  /// threads > 0, dispatches) every flow that arrived, and returns how
  /// many flows were drained from the capture. Flow timestamps come from
  /// the records (virtual time), so analysis is deterministic for a given
  /// input stream. Ingest mode: reception and dispatch run on their own
  /// threads, so this just sleeps the timeout and reports how many records
  /// the pipeline dispatched since the previous poll.
  util::Result<std::size_t> poll_once(int timeout_ms);

  /// Runtime-backed nodes: blocks until every dispatched flow has been
  /// analyzed, making stats() and metrics() exact. Ingest mode drains the
  /// receive pipeline first (two-phase: ingest drain, then runtime flush).
  /// Serial nodes: no-op.
  void flush();

  /// Runtime-backed nodes: live-resizes the worker shard pool, migrating
  /// per-shard engine state (see runtime::ShardedRuntime::resize). Safe
  /// while ingest receivers are dispatching -- they stall on the submit
  /// gate for the pause. Returns false on serial nodes or when the
  /// runtime rejects the request.
  bool resize(int new_shards);

  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] const core::TracebackEngine& traceback() const { return traceback_; }
  [[nodiscard]] std::vector<std::uint16_t> ports() const {
    return collector_ ? collector_->ports() : ingest_->ports();
  }
  /// Worker shards processing flows; 0 = serial in-process analysis.
  [[nodiscard]] int threads() const { return runtime_ ? static_cast<int>(runtime_->shard_count()) : 0; }

  /// Every metric of the node in one view; runtime-backed nodes merge the
  /// per-shard engine registries in (see ShardedRuntime::snapshot()).
  /// Runtime mode: call from the polling thread only, and flush() first
  /// for a complete view -- busy shards' engine registries are omitted.
  [[nodiscard]] obs::RegistrySnapshot metrics() const;

 private:
  InFilterNode(const NodeConfig& config,
               std::unique_ptr<flowtools::LiveCollector> collector,
               alert::AlertSink* alert_consumer);

  void refresh_runtime_stats();
  void refresh_ingest_stats();

  /// Exactly one of collector_ (classic poll-loop reception) and ingest_
  /// (threaded reception, set in create() after the runtime exists) holds
  /// the sockets.
  std::unique_ptr<flowtools::LiveCollector> collector_;
  std::unique_ptr<ingest::IngestPipeline> ingest_;
  /// Declared before the engine/runtime: both register callbacks into it.
  obs::Registry registry_;
  obs::Registry* registry_ptr_;  ///< user-supplied or &registry_
  core::TracebackEngine traceback_;
  /// Exactly one of these two is set (engine_ when threads == 0).
  std::unique_ptr<core::InFilterEngine> engine_;
  std::unique_ptr<runtime::ShardedRuntime> runtime_;
  NodeStats stats_;
  /// Verdict counts from the runtime's workers (hook side).
  std::atomic<std::uint64_t> hook_suspects_{0};
  std::atomic<std::uint64_t> hook_attacks_{0};
  /// Flows already drained from the capture on previous polls.
  std::size_t consumed_ = 0;
  /// Ingest mode: records already reported by previous polls.
  std::uint64_t ingest_consumed_ = 0;
  /// Flight recorder (NodeConfig::tracer; may be null) and, in serial
  /// mode, the poll thread's lane.
  obs::Tracer* tracer_ = nullptr;
  obs::ThreadLane* poll_lane_ = nullptr;
  /// Collector records analyzed so far: the journey id (serial mode) or
  /// runtime tag (threads > 0) of the next record is record_seq_ + 1.
  std::uint64_t record_seq_ = 0;
};

}  // namespace infilter::app
