// The concurrent sharded detection runtime.
//
// A layer between flow ingestion and the analysis engine: N worker
// threads, each owning a private InFilterEngine (its own EIA table, scan
// buffer, and metrics registry), fed by bounded SPSC rings from P
// producers -- one ring per (producer, shard) pair, merged by the worker.
// Producers hash each flow's source /24 to a fixed shard, so every flow
// from one source -- and every flow sharing that source's EIA
// auto-learning counter -- always reaches the same engine. The paper's
// prototype sits at a POP border; this is the piece that lets the same
// pipeline keep up with carrier-grade export rates, with each ingest
// receiver dispatching its own traffic (no dedicated dispatcher thread).
//
// Sequence tags (the total order everything hangs off):
//   * One shared atomic claim counter. A producer claims a contiguous tag
//     range with a single fetch_add per submit call, so tags are globally
//     unique, strictly monotone per producer, and together form one total
//     order over all flows -- "dispatch order" is the order of the claims.
//   * Each producer release-publishes a watermark (`published`) once every
//     flow of a claimed range is visible in its rings. Any flow a producer
//     has not yet pushed carries a tag above its published watermark
//     (ranges are claimed after the previous publish), which is the
//     invariant every merge below leans on.
//   * A worker k-way merges its P rings in tag order. It may process up
//     to `bound` = min over producers of (ring non-empty ? unbounded :
//     that producer's published watermark, acquired *before* the
//     emptiness check) -- past `bound` a still-silent producer could yet
//     contribute an earlier flow. Within a ring tags ascend, so the merge
//     emits the shard's flows in exactly the order a single dispatcher
//     would have.
//
// Semantics relative to one serial engine processing the flows in tag
// order (with one producer, that is submission order; with several, the
// realized claim interleaving -- tests/test_runtime.cpp replays the
// realized order through a serial engine and pins bit-identity):
//   * EIA: exact. The EIA check and Section 5.2 auto-learning key on
//     (ingress, source /24) -- a refinement of the shard hash -- and the
//     per-shard merge preserves tag order, so a shard engine sees the
//     same state-relevant history a serial engine would.
//   * NNS: exact. Trained clusters are shared immutable state and the
//     probe RNG is derived per flow (core/engine.h), not from a stream.
//   * Scan analysis: exact. The suspect buffer keys on *destination*
//     (hosts-per-port / ports-per-host), which source-sharding would
//     split. Instead, shard engines run only the EIA stage
//     (pre_process_batch); flows that fail it are forwarded -- tagged
//     with their dispatch sequence number -- over per-shard SPSC rings to
//     one scan-stage thread, which reorders them (a min-heap reorder
//     window bounded by per-shard watermarks) back into tag order and
//     completes them (scan -> NNS -> alert) on a single shared engine.
//     Verdicts, alert streams, and scan stats are bit-identical to the
//     serial engine at every shard count and every producer count --
//     tests/test_runtime.cpp pins shards {1,2,4,8} x producers {1,2,4}.
//     A shard's watermark is the largest tag it has fully pre-processed
//     through (the merge `bound`), which the per-producer published
//     watermarks keep advancing even while some producers are idle, so
//     the reorder window never stalls longer than a ~1 ms park cycle.
//
// Threading contract: each producer index is owned by one thread at a
// time (the SPSC rings assume one pusher per ring); different producer
// indices submit fully concurrently. flush(), snapshot(), shutdown(), and
// the training-phase calls take the submit gate exclusively: they are
// safe to call while producers are live -- submits briefly block, the
// gate-holder advances every producer's published watermark (no claims
// can be in flight), waits for quiescence, and releases. A caller with a
// single submitting thread uses producer 0, submit_batch's default. Alerts
// funnel through one alert::SerializingSink, so any AlertSink works
// unmodified; with the scan stage active only the scan engine emits
// (legal flows never alert). Workers spin briefly when idle, then park on
// a per-shard condition variable; a producer wakes a parked worker only
// when it pushes into that worker's rings. The scan thread parks the same
// way and is woken by workers forwarding suspects.
//
// CPU placement: when RuntimeConfig::cpu_set is non-empty, each worker
// pins itself to cpu_set[(cpu_slot_offset + shard index) % size] and the
// scan thread takes the next slot (runtime/affinity.h). Failures are
// counted (infilter_runtime_affinity_failures_total) and ignored --
// placement is a hint, and on a 1-CPU host the whole feature degrades to
// a no-op.
//
// Backpressure: when a shard ring is full the producer either blocks
// (kBlock: waits for the worker to drain, counting the waits) or sheds the
// flows that do not fit (kDrop: counts them; submit_batch returns how many
// it accepted). Both counters are runtime metrics, exported alongside the
// merged per-shard engine metrics.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "alert/idmef.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "runtime/spsc_ring.h"

namespace infilter::runtime {

/// What a producer does when a shard's ring is full.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,  ///< wait for the worker to drain (lossless, line-rate coupling)
  kDrop,   ///< shed the flow and count it (bounded latency, lossy)
};

struct RuntimeConfig {
  /// Worker threads / engine shards. Must be >= 1.
  int shards = 4;
  /// Producer slots. Each slot owns one SPSC ring per shard plus a
  /// published sequence watermark; each slot must be driven by at most one
  /// thread at a time. The live-ingest pipeline maps receiver thread i to
  /// producer i; submit_batch(span) without a producer argument is
  /// producer 0.
  int producers = 1;
  /// Per-(producer, shard) ring capacity (rounded up to a power of two).
  std::size_t queue_depth = 4096;
  /// Worker-side dequeue batch: how many flows a worker claims per merge
  /// pass. Amortizes the release/acquire pairs over the batch.
  std::size_t max_batch = 256;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// CPU placement (runtime/affinity.h): empty = unpinned. Worker k pins
  /// to cpu_set[(cpu_slot_offset + k) % size], the scan thread to the slot
  /// after the workers. cpu_slot_offset lets app/node interleave the
  /// ingest receivers and the runtime threads over one list.
  std::vector<int> cpu_set;
  std::size_t cpu_slot_offset = 0;
  /// Per-shard engine template. `engine.registry` is ignored: every shard
  /// gets a private registry so snapshots never race engine teardown, and
  /// snapshot() merges them. All shards share `engine.seed` -- with
  /// per-flow NNS randomness, equal seeds are what make shard placement
  /// invisible to verdicts.
  core::EngineConfig engine;
  /// Runtime-level value metrics (dispatch, drop, batch counters and
  /// histograms) land here; null = a runtime-private registry. Pull gauges
  /// that call back into the runtime (shard count, queue occupancy) always
  /// stay runtime-private -- obs::Registry has no unregistration, so an
  /// external registry that outlives the runtime must never hold a
  /// callback into it. snapshot() merges both views either way.
  obs::Registry* registry = nullptr;
  /// Flight recorder (obs/trace.h), not owned; null = no tracing, no
  /// liveness lanes. When set, the producer/worker/scan threads register
  /// lanes, publish heartbeats, and -- while tracer->enabled() -- emit the
  /// sampled record-journey spans and queue-wait histogram observations.
  /// Must outlive the runtime (lanes are retired, not destroyed).
  obs::Tracer* tracer = nullptr;
};

/// Producer/worker accounting, all monotone over the runtime's life.
struct RuntimeStats {
  std::uint64_t submitted = 0;           ///< flows offered to submit_batch()
  std::uint64_t dispatched = 0;          ///< flows accepted into a ring
  std::uint64_t dropped = 0;             ///< flows shed under kDrop
  std::uint64_t backpressure_waits = 0;  ///< full-ring waits under kBlock
  std::uint64_t processed = 0;           ///< flows through a shard engine
  std::uint64_t batches = 0;             ///< worker merge batches
  std::uint64_t suspects_forwarded = 0;  ///< EIA misses handed to the scan stage
  std::uint64_t suspects_completed = 0;  ///< suspects finished by the scan stage
};

/// One unit of work: the arguments of InFilterEngine::process().
struct FlowItem {
  netflow::V5Record record;
  core::IngressId ingress = 0;
  util::TimeMs now = 0;
  /// Opaque caller payload carried through to the VerdictHook (the
  /// testbed stores a stream index here to join verdicts with ground
  /// truth).
  std::uint64_t tag = 0;
  /// Dispatch sequence number, claimed from the runtime's shared counter
  /// at submit time (any caller-set value is overwritten). Globally
  /// unique and monotone per producer; the per-shard merge and the scan
  /// stage sort on it to restore one total dispatch order.
  std::uint64_t seq = 0;
  /// Trace journey (obs/trace.h): monotonic stamp of this record's socket
  /// receive. 0 = not on the sampled journey (the common case); set by the
  /// ingest receiver, or at submit time for direct submits.
  std::uint64_t recv_ns = 0;
  /// The sampled record's previous hop stamp -- each pipeline stage emits
  /// a span [hop_ns, now) and overwrites hop_ns with now, so a record's
  /// spans tile [recv_ns, verdict) exactly. Meaningless when recv_ns == 0.
  std::uint64_t hop_ns = 0;
};

class ShardedRuntime {
 public:
  /// Called once per flow when its verdict is final: on the owning
  /// worker's thread for legal flows, on the scan-stage thread for
  /// suspect flows (on the worker for those too when the scan stage is
  /// inactive). `item.seq` carries the realized dispatch sequence, which
  /// is how the equivalence tests reconstruct the total order a
  /// multi-producer run committed to. The callable must be thread-safe
  /// (threads invoke it concurrently).
  using VerdictHook =
      std::function<void(const FlowItem& item, const core::Verdict& verdict)>;

  /// Spawns the workers. `sink` (optional, not owned) receives every
  /// shard's alerts, serialized and renumbered into one dense id sequence.
  explicit ShardedRuntime(RuntimeConfig config, alert::AlertSink* sink = nullptr,
                          VerdictHook hook = nullptr);
  /// Drains and joins (shutdown()).
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  // -- Training phase (fans out to every shard engine) --
  // Gate-exclusive like flush(): safe while producers are live, though the
  // intended use is before traffic starts.

  /// Preloads an EIA entry into every shard's table.
  void add_expected(core::IngressId ingress, const net::Prefix& prefix);
  /// Installs one trained cluster set, shared (immutable) by all shards.
  void set_clusters(std::shared_ptr<const core::TrainedClusters> clusters);
  /// Trains once and shares the result across shards.
  void train(std::span<const netflow::V5Record> normal_flows);

  // -- Normal processing phase --

  /// The shard a flow lands on: a SplitMix64 hash of the source /24,
  /// reduced mod `shards`. The /24 alone (not the ingress) so that every
  /// (ingress, /24)-keyed learning structure for one /24 -- EIA counters
  /// and hop-count ranges at every ingress -- lives in a single shard.
  [[nodiscard]] static std::size_t shard_of(net::IPv4Address source,
                                            std::size_t shards);

  /// Enqueues a batch through one producer slot, amortizing the tag claim
  /// and the per-ring synchronization: one fetch_add claims the whole tag
  /// range, items are bucketed per shard, and each bucket is pushed with
  /// one batched ring operation. Returns how many flows were accepted
  /// (all, under kBlock). `producer` must be < producer_count() and
  /// driven by one thread at a time.
  std::size_t submit_batch(std::span<const FlowItem> items, int producer = 0);

  /// Tells the merge that `producer` has no submission in flight: its
  /// published watermark advances to the claim counter, so an idle
  /// producer never holds back the other producers' flows (or the scan
  /// stage's reorder window). Ingest receivers call this from their poll
  /// loop; call it from the owning thread only, between submits.
  void producer_idle(int producer);

  /// Blocks until every dispatched flow has been processed, including the
  /// scan stage's reorder window. Takes the submit gate exclusively, so
  /// it is safe while producer threads are live: their submits stall for
  /// the duration and no flow is lost.
  void flush();
  /// flush(), then stops and joins the workers. Idempotent; further
  /// submits are rejected (counted as dropped).
  void shutdown();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t producer_count() const { return producers_.size(); }
  [[nodiscard]] RuntimeStats stats() const;
  /// High-water occupancy per shard (flows queued across that shard's
  /// producer rings, sampled at push time). The benches record min/max
  /// over shards to make dispatch skew -- e.g. under a Zipf source
  /// distribution -- a first-class artifact.
  [[nodiscard]] std::vector<std::size_t> shard_queue_peaks() const;
  /// Direct access to a shard's engine, for tests and post-run inspection.
  /// Do not call while workers are running (engines are not locked).
  [[nodiscard]] const core::InFilterEngine& shard_engine(std::size_t shard) const;
  /// The shared engine completing every suspect flow (scan -> NNS ->
  /// alert), or null when the stage is inactive (kBasic mode, or scan
  /// analysis disabled -- per-shard engines then run the whole pipeline,
  /// which is already serial-exact). Same access rules as shard_engine():
  /// inspect only after flush().
  [[nodiscard]] const core::InFilterEngine* scan_stage_engine() const {
    return scan_engine_.get();
  }

  /// One registry view: the runtime's own metrics merged with the shard
  /// engines' -- and, when active, the scan-stage engine's -- registries
  /// (obs::merge_snapshots). Takes the submit gate exclusively, so it is
  /// safe while producers are live (their submits stall for the
  /// duration). The runtime's own metrics (atomic counters/histograms,
  /// ring occupancy) are always included; an engine registry -- whose
  /// pull gauges read plain engine state its thread mutates -- is merged
  /// in only while that engine is quiescent (every dispatched flow, and
  /// every forwarded suspect, processed). Call flush() first for a
  /// complete, exact view; a mid-stream snapshot silently omits busy
  /// engines. With the scan stage active, the split engine halves divide
  /// the pipeline counters so the merged totals still equal a serial
  /// engine's (core/engine.h).
  [[nodiscard]] obs::RegistrySnapshot snapshot() const;

  // -- Lifecycle operations (src/lifecycle) --

  /// Resizes the shard pool in place, migrating every engine's learned
  /// state (EIA membership incl. pending learn counters and age metadata,
  /// hop-count ranges) to the new shard map under the same source-/24
  /// hash. Takes the submit gate exclusively: producers stall for the
  /// duration, the pool quiesces via the two-phase flush, workers and the
  /// scan thread are joined, state is harvested and reinstalled
  /// (lifecycle/migrate.h), and fresh threads resume. Verdict and alert
  /// streams stay bit-consistent with a serial replay across the
  /// boundary: the migration installs exactly the state a serial engine
  /// would hold after the flows processed so far. Returns false after
  /// shutdown() or for new_shards < 1; a same-size call is a no-op
  /// returning true. The pause is recorded in
  /// infilter_lifecycle_resize_pause_us.
  bool resize(int new_shards);

  /// Fans one exact-EIA aging sweep (core::EiaTable::age_sweep) out to
  /// every shard engine after a full flush, against flow-carried virtual
  /// time `now`. Verdict-neutral by construction -- the sweep applies the
  /// same lazy idle predicate every later lookup would -- so this only
  /// reclaims memory and updates the lifecycle counters eagerly. Returns
  /// the number of entries expired across all shards.
  std::size_t age_sweep(util::TimeMs now);

 private:
  /// A suspect flow in flight from a shard's EIA stage to the scan stage.
  struct SeqSuspect {
    core::SuspectFlow suspect;
    std::uint64_t seq = 0;
    std::uint64_t tag = 0;
    /// Trace journey carry-through (see FlowItem::recv_ns / hop_ns).
    std::uint64_t recv_ns = 0;
    std::uint64_t hop_ns = 0;
  };

  /// One producer slot: the publish watermark plus per-call scratch. Each
  /// slot is driven by at most one thread at a time (see RuntimeConfig).
  struct ProducerSlot {
    /// Tags <= published are all visible in this producer's rings (or
    /// were shed); release-stored after every push of a claimed range.
    /// Everything this producer has not pushed yet carries a larger tag.
    alignas(kCacheLine) std::atomic<std::uint64_t> published{0};
    /// Flows this producer pushed into rings (metrics).
    std::atomic<std::uint64_t> accepted{0};
    /// Per-shard bucketing scratch for submit_batch; capacity kept across
    /// calls so the hot path stays allocation-free at steady state.
    std::vector<std::vector<FlowItem>> buckets;
    /// This producer's trace lane ("dispatch" for slot 0, "dispatch-<p>"
    /// after), written only by the slot's owning thread. Null without a
    /// tracer.
    obs::ThreadLane* lane = nullptr;
  };

  struct Shard {
    /// One ring per producer slot; the worker merges them in tag order.
    std::vector<std::unique_ptr<SpscRing<FlowItem>>> rings;
    std::unique_ptr<core::InFilterEngine> engine;
    /// Worker -> scan stage, only when the scan stage is active.
    std::unique_ptr<SpscRing<SeqSuspect>> suspect_ring;
    std::thread worker;
    /// Shard index, for trace-lane naming and cpu-slot assignment.
    int index = 0;

    /// Flows pushed into this shard's rings, summed over producers
    /// (flush() compares against `processed`).
    std::atomic<std::uint64_t> enqueued{0};
    /// Worker-side count of flows through the shard engine.
    std::atomic<std::uint64_t> processed{0};
    /// High-water total ring occupancy, sampled by producers at push time.
    std::atomic<std::uint64_t> peak_queued{0};
    /// Scan-stage watermark: every flow dispatched to this shard with
    /// seq <= watermark has been pre-processed and its suspect (if any)
    /// pushed into `suspect_ring` *before* the release store the scan
    /// thread acquires. Advanced by the worker to each merge pass's safe
    /// bound, which the per-producer published watermarks keep moving
    /// even while the shard is idle.
    std::atomic<std::uint64_t> watermark{0};

    // Park/wake handshake (see worker_main).
    std::mutex wake_mutex;
    std::condition_variable wake_cv;
    std::atomic<bool> parked{false};

    [[nodiscard]] std::size_t queued() const {
      std::size_t total = 0;
      for (const auto& ring : rings) total += ring->size();
      return total;
    }
  };

  void worker_main(Shard& shard);
  void scan_main();
  /// One merge pass: fills `batch` with up to max_batch flows in tag
  /// order and returns {count, watermark}, where every flow of this shard
  /// with seq <= watermark is in the batch or already processed.
  struct MergeResult {
    std::size_t count = 0;
    std::uint64_t watermark = 0;
  };
  MergeResult merge_batch(Shard& shard, FlowItem* batch, std::size_t max);
  std::size_t push_batch_with_backpressure(Shard& shard, SpscRing<FlowItem>& ring,
                                           std::span<const FlowItem> items);
  void note_occupancy(Shard& shard);
  void flush_locked();
  /// Stops and joins the workers and (if active) the scan thread. Caller
  /// holds the gate and has flushed; shards_ stay intact for harvesting.
  void join_threads_locked();
  /// Spawns one worker per shard plus the scan thread (if active), after
  /// resetting the stop flags. Mirrors the constructor's thread start.
  void start_threads_locked();
  void wake(Shard& shard);
  void wake_scan();

  RuntimeConfig config_;
  alert::SerializingSink sink_;
  /// Whether the shard engines were built with &sink_ (the constructor's
  /// `sink` parameter was non-null); resize() rebuilds them identically.
  bool engine_sink_ = false;
  VerdictHook hook_;
  obs::Tracer* tracer_ = nullptr;  ///< config_.tracer; may be null
  std::vector<std::unique_ptr<ProducerSlot>> producers_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  /// The submit gate: producers hold it shared for the duration of one
  /// submit call; flush/snapshot/shutdown and the training calls hold it
  /// exclusively, which (a) guarantees no tag claim is in flight, so the
  /// gate-holder may advance every published watermark to the claim
  /// counter, and (b) gives the quiescence checks a stable frontier.
  mutable std::shared_mutex submit_gate_;

  // -- Shared scan stage (active iff kEnhanced && use_scan_analysis) --

  /// The one engine whose scan buffer sees every suspect, in dispatch
  /// order. Its EIA table is unused (pre-EIA context rides along in
  /// SuspectFlow); null when the stage is inactive.
  std::unique_ptr<core::InFilterEngine> scan_engine_;
  std::thread scan_thread_;
  /// The shared claim counter: the last tag handed out. Producers claim
  /// ranges with fetch_add (one RMW per submit call).
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> suspects_forwarded_{0};
  std::atomic<std::uint64_t> suspects_completed_{0};
  /// CPU placement accounting (affinity is a hint; failures are counted,
  /// never fatal).
  std::atomic<std::uint64_t> pinned_threads_{0};
  std::atomic<std::uint64_t> affinity_failures_{0};
  std::atomic<bool> scan_stopping_{false};
  std::mutex scan_wake_mutex_;
  std::condition_variable scan_wake_cv_;
  std::atomic<bool> scan_parked_{false};

  /// Always holds the `this`-capturing pull gauges (see
  /// RuntimeConfig::registry); also the value-metric home when
  /// config.registry == null.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;  ///< external or owned_registry_.get(); never null
  obs::Counter* submitted_;
  obs::Counter* dropped_;
  obs::Counter* backpressure_waits_;
  obs::Counter* batches_;
  obs::Histogram* batch_size_;
  obs::Counter* resizes_total_;
  obs::Counter* migrated_entries_;
  obs::Histogram* resize_pause_us_;

  /// History retired shard engines leave behind at resize: their registry
  /// snapshots filtered to counters and histograms (gauges describe state
  /// that now lives in the new engines and would double-count), merged
  /// into snapshot(); and their dispatch/process totals, folded into
  /// stats() so the monotone contract survives the pool swap.
  std::vector<obs::RegistrySnapshot> retired_;
  std::atomic<std::uint64_t> retired_dispatched_{0};
  std::atomic<std::uint64_t> retired_processed_{0};
};

}  // namespace infilter::runtime
