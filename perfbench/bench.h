// Shared vocabulary of the repository benchmark (perfbench/run.py drives
// the executable built from these files).
//
// The benchmark replays seeded Section 6 testbed traffic through the
// public API -- ShardedRuntime::submit_batch for the closed-loop replay
// workloads, NetFlow v5 datagrams into an IngestPipeline for the open-loop
// live workload -- and checks every verdict and the IDMEF alert stream
// against a single-thread serial split-pipeline replay of the realized
// dispatch order. Everything below is benchmark-side code: spans are
// recorded around calls into the library, never inside it.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "ingest/ingest.h"
#include "runtime/runtime.h"
#include "sim/testbed.h"

namespace perfbench {

using namespace infilter;

enum class Workload : std::uint8_t { kPeacetime, kRouteChurn, kDdosStress, kLiveIngest };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);
[[nodiscard]] inline bool is_replay(Workload workload) {
  return workload != Workload::kLiveIngest;
}

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Inputs: everything generated from --seed before any timing starts. The
// system under test receives only these.

/// One NetFlow v5 export datagram of the live workload's send schedule.
struct Datagram {
  std::uint16_t peer = 0;  ///< exporter / collector index, 0..sources-1
  std::vector<std::uint8_t> bytes;
  /// Stream indices of the records it carries, in record order.
  std::vector<std::uint32_t> flows;
  /// Due time, relative to the schedule start.
  std::uint64_t due_ns = 0;
};

struct Inputs {
  Workload workload = Workload::kPeacetime;
  /// The testbed seed of this experiment (see experiment_seed).
  std::uint64_t seed = 0;
  int experiment_index = 0;  ///< which of the run's experiments
  sim::ExperimentConfig experiment;
  /// The engine configuration every shard, scan stage and the serial
  /// reference run with.
  core::EngineConfig engine;
  sim::TestbedStream stream;
  /// NNS training traffic (the system trains on it during set-up).
  std::vector<netflow::V5Record> training;
  /// EIA preloads: Table 3 plus, for route_churn, the background /24s.
  std::vector<std::pair<core::IngressId, net::Prefix>> preloads;
  std::size_t background_preloads = 0;
  /// Every peer's export datagrams in send order (all workloads: the
  /// decode layer is timed over them; live_ingest sends them).
  std::vector<Datagram> datagrams;
  /// live_ingest offered rate, records/s (0 for the replay workloads).
  double offered_rate = 0;
};

/// Independent testbed experiments an end-to-end run replays, a block of
/// repetitions each in turn; every figure is the mean over the experiments
/// of their medians. ddos_stress replays several: its closed-loop rate hangs
/// on how tightly the seed packs the one synchronized storm (the scan
/// stage bounds the storm, the shard workers the rest), which moves it by
/// up to +-15% from seed to seed. The other workloads replay one.
[[nodiscard]] int experiments_per_run(Workload workload);
/// Testbed seed of experiment `experiment` of run seed `seed`: experiment 0
/// uses the run seed itself, the others seeds derived from it.
[[nodiscard]] std::uint64_t experiment_seed(std::uint64_t seed, int experiment);

[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed, int experiment = 0);

/// Traced runs wrap the verdict hook of one record in this many in a span
/// (by dispatch sequence): enough to time the hook, without a span per
/// record inflating the traced run and its trace file.
inline constexpr std::uint64_t kHookSpanEvery = 16;
/// Records per submit_batch call of the replay driver.
inline constexpr std::size_t kSubmitBatch = 512;
/// Collector ingress id of peer 0 (peer i is kFirstPort + i).
inline constexpr core::IngressId kFirstPort = 9001;

// ---------------------------------------------------------------------------
// Verdict fingerprints: every field of core::Verdict packed into one word,
// with bit 63 set so "no verdict yet" (0) is distinguishable.

[[nodiscard]] std::uint64_t verdict_code(const core::Verdict& verdict);
[[nodiscard]] inline bool code_attack(std::uint64_t code) { return (code & 1) != 0; }
[[nodiscard]] inline bool code_suspect(std::uint64_t code) { return (code & 2) != 0; }
/// Rebuilds the fields the ground-truth scorer reads.
[[nodiscard]] core::Verdict verdict_from_code(std::uint64_t code);

/// FNV-1a over a byte string, chained through `digest`.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t digest, std::string_view bytes);
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and batch id, kept in memory per thread
// and written when the run ends. A layer's time is its spans' self time
// (duration minus the part covered by child spans).

struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same lane, -1 = root
  std::uint32_t batch = 0;
};

class SpanLog {
 public:
  struct Lane {
    std::uint32_t id = 0;
    std::string name;
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices

    std::int32_t begin(const char* name, std::uint32_t batch);
    void end(std::int32_t index);
  };

  /// The calling thread's lane, registered on first use. `name` labels a
  /// new lane in the written trace.
  Lane& lane(const char* name);

  /// Per-name totals over every lane.
  struct Totals {
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Drops every span and lane (call with no thread recording).
  void clear();
  /// Writes the spans as Chrome trace JSON. Returns false on I/O failure.
  bool write_chrome_json(const std::string& path, std::uint64_t origin_ns) const;
  [[nodiscard]] std::size_t span_count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Bumped by clear(); invalidates every thread's cached lane pointer.
  std::atomic<std::uint64_t> generation_{1};
};

/// Records one span on the calling thread's lane; a null log records
/// nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* lane, const char* name, std::uint32_t batch = 0)
      : lane_(log != nullptr ? &log->lane(lane) : nullptr),
        index_(lane_ != nullptr ? lane_->begin(name, batch) : -1) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog::Lane* lane_;
  std::int32_t index_;
};

/// The benchmark's alert sink: serializes every alert to IDMEF XML, as
/// infilter-detect does when it prints alerts, and folds the bytes into an
/// order-sensitive alert-stream digest. Called by one thread at a time
/// (the runtime serializes its sink calls).
class DigestSink final : public alert::AlertSink {
 public:
  DigestSink(SpanLog* spans, const char* lane) : spans_(spans), lane_(lane) {}

  void consume(const alert::Alert& alert) override {
    ScopedSpan span(spans_, lane_, "alert.serialize");
    const std::string xml = alert.to_idmef_xml();
    digest_ = fnv1a(digest_, xml);
    bytes_ += xml.size();
    ++alerts_;
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::uint64_t alerts() const { return alerts_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  SpanLog* spans_;
  const char* lane_;
  std::uint64_t digest_ = kFnvOffset;
  std::uint64_t alerts_ = 0;
  std::uint64_t bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Serial split-pipeline reference (reference.cpp): one EIA-stage engine and
// one scan-stage engine, driven on one thread through pre_process_batch /
// finish_suspect_batch in the given order. It is both the correctness
// reference and, with a span log, the per-layer timer.

struct LayerTimings {
  double pre_process_ns_per_flow = 0;
  double finish_ns_per_suspect = 0;
  double serialize_ns_per_alert = 0;
  double eia_lookup_ns_per_flow = 0;
  double hopcount_classify_ns_per_flow = 0;
  double scan_observe_ns_per_suspect = 0;
  double nns_assess_ns_per_query = 0;
  double decode_ns_per_record = 0;
  /// Share of the serial replay's wall time no layer span covers.
  double unexplained_fraction = 0;
  double replay_wall_ms = 0;
};

struct Reference {
  /// verdict_code per flow, in replay order.
  std::vector<std::uint64_t> codes;
  std::uint64_t alert_digest = kFnvOffset;
  std::uint64_t alerts = 0;
  std::uint64_t alert_bytes = 0;
  std::uint64_t suspects = 0;
  std::size_t eia_ranges = 0;
  std::size_t eia_bytes = 0;
  LayerTimings layers;  ///< filled when run with a span log
};

/// Replays `flows` in the given (realized dispatch) order. With `spans`
/// (a log dedicated to this replay), every layer call is wrapped in a span
/// and the isolated layer passes run after the replay.
[[nodiscard]] Reference run_reference(const Inputs& inputs,
                                      std::span<const core::FlowInput> flows,
                                      SpanLog* spans);

/// The serial flows of the stream in its own order (the replay workloads'
/// dispatch order with one producer).
[[nodiscard]] std::vector<core::FlowInput> stream_flows(const Inputs& inputs);

// ---------------------------------------------------------------------------
// One repetition of the system under test (replay.cpp / live.cpp).

/// On-CPU share of the timed window, per pipeline lane.
struct LaneBusy {
  double producer = 0;   ///< submitting thread: replay producer or ingest receiver
  double shard_max = 0;  ///< busiest shard worker
  double scan = 0;       ///< scan-stage thread
  double sender = 0;     ///< live_ingest load generator
};

struct Repetition {
  int experiment = 0;        ///< which of the run's experiments it replayed
  double setup_s = 0;
  double start_ms = 0;       ///< ShardedRuntime constructor
  double train_ms = 0;       ///< NNS train()
  double preload_ms = 0;     ///< EIA preload
  double create_ms = 0;      ///< IngestPipeline::create (live only)
  double run_s = 0;          ///< first submit/send until flush() returns
  double records_per_s = 0;
  double rss_mb = 0;
  double cpu_s = 0;          ///< process CPU over the timed window
  /// Host CPU steal during set-up and the timed window, as a share of the
  /// CPU time the guest's processors had over that span.
  double steal_share = 0;
  LaneBusy lanes;

  std::uint64_t offered = 0;  ///< records the workload offered
  std::uint64_t failed = 0;   ///< lost, unverdicted or mismatching records
  std::vector<std::string> failures;  ///< first few reasons

  /// Latency samples (ns) from due/submit time to verdict hook, in
  /// dispatch order; reduced to per-window percentiles once the repetition
  /// is done.
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> suspect_latency_ns;
  std::size_t latency_samples = 0;
  std::size_t suspect_latency_samples = 0;
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> suspect_window_p99_us;

  // Runtime accounting.
  runtime::RuntimeStats stats;
  std::size_t peak_min = 0;
  std::size_t peak_max = 0;
  std::uint64_t eia_learned = 0;
  std::uint64_t hopcount_miss = 0;
  std::uint64_t flows_total = 0;
  std::uint64_t lifecycle_expired = 0;
  std::uint64_t lifecycle_relearned = 0;

  // Live ingest accounting.
  bool generator_behind = false;
  double send_lag_p99_us = 0;
  std::uint64_t kernel_drops = 0;
  std::uint64_t sequence_gaps = 0;
  std::uint64_t records_dispatched = 0;

  /// Scored detection quality of the verified verdict stream.
  double detection_rate = 0;
  double false_positive_rate = 0;
};

/// Which runtime lane each thread is, learned from the threads that call
/// the benchmark's hooks (verdict hook, ingest dispatch), so per-thread CPU
/// time can be attributed to lanes without touching the library.
class LaneMap {
 public:
  enum Kind : char { kProducer = 'p', kShard = 'w', kScan = 's', kSender = 'g' };
  /// Registers the calling thread (once per map and thread).
  void note(Kind kind);
  /// Busy share of each lane over a window, from per-thread CPU deltas.
  [[nodiscard]] LaneBusy busy(const std::map<int, std::uint64_t>& before,
                              const std::map<int, std::uint64_t>& after,
                              std::uint64_t window_ns) const;

 private:
  static std::atomic<std::uint64_t> next_id_;
  const std::uint64_t id_ = next_id_.fetch_add(1) + 1;
  mutable std::mutex mutex_;
  std::map<int, Kind> kinds_;
};

/// Shared state the watchdog reads to report where a stuck run sits.
struct Progress {
  std::mutex mutex;  ///< guards every field below
  std::string phase = "start";
  int repetition = 0;
  std::uint64_t phase_started_ns = now_ns();
  /// The system under test while it is alive (read by the watchdog).
  const runtime::ShardedRuntime* runtime = nullptr;
  const ingest::IngestPipeline* pipeline = nullptr;
  /// Records offered by finished repetitions, and how many of them failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Records offered by the repetition in flight: failed if it never ends.
  std::uint64_t in_flight = 0;

  void set_phase(std::string name) {
    std::lock_guard lock(mutex);
    phase = std::move(name);
    phase_started_ns = now_ns();
  }
};

/// Set-up shared by both drivers, each step timed into `rep`: runtime
/// construction and thread spawn, EIA preload, NNS train.
[[nodiscard]] std::unique_ptr<runtime::ShardedRuntime> set_up_runtime(
    const Inputs& inputs, const runtime::RuntimeConfig& config, alert::AlertSink* sink,
    runtime::ShardedRuntime::VerdictHook hook, Repetition& rep);
/// Post-run runtime accounting into `rep` (call after flush()).
void read_runtime(const runtime::ShardedRuntime& rt, Repetition& rep);

/// Replay workloads: one producer thread, ShardedRuntime(2 shards).
/// `reference` is the serial result for the stream's own order, re-run
/// internally if the realized dispatch order differs.
[[nodiscard]] Repetition run_replay(const Inputs& inputs, const Reference& reference,
                                    SpanLog* spans, Progress& progress);

/// live_ingest: one sender thread, IngestPipeline(1 receiver) ->
/// ShardedRuntime(1 shard). Verified against a serial replay of what the
/// receiver dispatched.
/// `realized_out` (optional) receives the dispatched flows in dispatch
/// order, for the traced run's per-layer replay.
[[nodiscard]] Repetition run_live(const Inputs& inputs, SpanLog* spans,
                                  Progress& progress,
                                  std::vector<core::FlowInput>* realized_out = nullptr);

// ---------------------------------------------------------------------------
// Helpers shared by the drivers (report.cpp).

/// Resident set size of this process, bytes.
[[nodiscard]] std::uint64_t rss_bytes();
/// Returns freed heap to the OS so RSS growth measures what set-up keeps.
void trim_heap();
/// CPU time the hypervisor stole from this machine's processors, summed
/// over all of them (seconds, from /proc/stat; 10 ms resolution).
[[nodiscard]] double host_steal_s();
/// Steal over [start_ns, now] as a share of the processors' capacity.
[[nodiscard]] double steal_share_since(double steal_start_s, std::uint64_t start_ns);
/// Process CPU time (user + system), seconds.
[[nodiscard]] double process_cpu_s();
/// Kernel thread id of the caller.
[[nodiscard]] int thread_id();
/// On-CPU nanoseconds of every thread of this process, by thread id.
[[nodiscard]] std::map<int, std::uint64_t> thread_cpu_ns();

/// Percentile (0..100) by nearest rank over an unsorted sample (copied).
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double percentile_u64(std::vector<std::uint64_t>& values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// Scores verdict codes (indexed by stream position) against ground truth.
void score(const Inputs& inputs, std::span<const std::uint64_t> codes_by_flow,
           Repetition& rep);

/// Compares one repetition's verdicts (by dispatch position) and alert
/// digest with the serial reference; mismatches are added to rep.failed.
void verify(const Reference& reference, std::span<const std::uint64_t> codes,
            std::uint64_t alert_digest, std::uint64_t alerts, Repetition& rep);

}  // namespace perfbench
