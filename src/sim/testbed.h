// The experimental testbed of Section 6 (Figures 13/14).
//
// Emulates an ISP with 10 peer ASs / border routers: 10 "normal" Dagflow
// sources (each the sole user of 100 address sub-blocks, Table 3), plus
// attack Dagflow source sets aimed at one or all ingress points. Traffic
// is replayed into an InFilter engine and scored against ground truth.
//
// Experiment designs implemented (Section 6.3):
//   * spoofed attacks through one peer AS (6.3.1),
//   * stress: attack sets at every peer AS (6.3.2),
//   * spoofed attacks under emulated route instability (6.3.3, Table 2).

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "dagflow/dagflow.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"

namespace infilter::sim {

struct ExperimentConfig {
  // -- Testbed shape (Figure 14) --
  int sources = 10;
  int blocks_per_source = 100;
  /// Collector UDP port of source 0; source i uses first_port + i.
  std::uint16_t first_port = 9001;

  // -- Traffic --
  std::size_t normal_flows_per_source = 20000;
  /// Baseline fraction of each normal source's flows that carry addresses
  /// from other sources' blocks even with no emulated route change. Real
  /// ingress mappings drift at this order (the Section 3 validation
  /// measures 0.4-1.6% per interval); this floor produces the paper's
  /// ~1% false-positive baseline.
  double ingress_drift = 0.015;
  /// Active /24s per /11 block for normal sources (clustered like real
  /// subnet populations). Clustering is what gives the EIA auto-learning
  /// rule traction on persistently moved prefixes; drift traffic stays
  /// unclustered (diffuse wobble). 0 disables clustering.
  int source_active_slash24s = 4;

  // -- Attacks (6.3.1 / 6.3.2) --
  /// Attack traffic volume as a fraction of the normal traffic volume at
  /// each attacked ingress (the paper's 2%, 4%, 8%).
  double attack_volume = 0.02;
  /// Number of ingress points receiving an attack set: 1 reproduces
  /// Section 6.3.1, `sources` reproduces the stress test of 6.3.2.
  int attacked_ingresses = 1;
  /// Foreign sub-blocks each attack instance spoofs from (the paper's
  /// attack Dagflows used "an address block corresponding to EIA sets for
  /// Peer ASs" other than their own; small pools make the spoofed sources
  /// clustered, as a real replayed trace would be).
  int spoof_blocks_per_instance = 2;
  double companion_fraction = 0.5;
  /// TTL scenario: every Dagflow stamps record TTLs through one shared
  /// hop-count path model (src/hopcount). Normal sources stamp honestly
  /// (each rewritten source's own path); attack instances stamp the
  /// *tool's* path regardless of the forged source. In addition to the
  /// standard 12-tool set, each attacked ingress receives the two
  /// TTL-aware kinds (kInEiaSpoofFlood / kTtlJitterFlood) forging sources
  /// from the attacked ingress's own blocks -- invisible to the EIA check,
  /// only the hop-count witness objects. Off: every record keeps ttl = 0
  /// and only the standard set is launched (baselines unchanged).
  /// Detection fusion is switched separately via engine.use_hopcount.
  bool ttl_scenario = false;
  /// Stress-test timing (Section 6.3.2): the attack Dagflow set is
  /// *replicated* per peer AS and the replicas replay the same traces, so
  /// each attack tool fires at every ingress at (nearly) the same moment.
  /// The concurrent storms share the one scan-analysis buffer -- that
  /// contention is what degrades stress detection and inflates stress
  /// false positives. false staggers instances independently instead.
  bool synchronized_attack_sets = true;

  // -- Route instability (6.3.3, Table 2) --
  /// Donated blocks per source (= route-change percentage with 100-block
  /// sources). 0 disables route-change emulation.
  int route_change_blocks = 0;
  /// Allocations constructed per route-change level; sources transition
  /// between them simultaneously, evenly spaced over the run.
  int allocations = 4;

  /// NetFlow sampled mode on every emulated exporter (1 = unsampled).
  /// Large ISPs often run 1-in-N sampled NetFlow; the ablation bench
  /// quantifies what that costs InFilter's stealthy-attack detection.
  std::uint32_t netflow_sampling = 1;

  // -- Engine --
  core::EngineConfig engine;
  std::size_t training_flows = 3000;

  // -- Concurrent runtime (src/runtime) --
  /// 0 replays through one serial engine (the paper's prototype); N >= 1
  /// replays through a ShardedRuntime with N worker shards. The testbed
  /// submits from one thread (producer 0), so the realized dispatch
  /// order is submission order and verdicts are bit-identical to serial
  /// at every shard count: suspects from all shards funnel through one
  /// shared scan-stage engine in that order (see runtime/runtime.h), so
  /// the destination-keyed suspect buffer stays global. Multi-producer
  /// submission keeps the same guarantee against the realized claim
  /// order (pinned in tests/test_runtime.cpp).
  int runtime_shards = 0;
  std::size_t runtime_queue_depth = 4096;

  std::uint64_t seed = 1;
};

/// Ground-truth scoring of one run.
struct ExperimentResult {
  // Attack-instance accounting ("about 83% of launched attacks were
  // detected"): an instance is one use of one attack tool at one ingress;
  // it is detected when at least one of its flows raises an alert.
  int attack_instances = 0;
  int detected_instances = 0;

  // Flow-level accounting.
  std::uint64_t attack_flows = 0;
  std::uint64_t detected_attack_flows = 0;
  std::uint64_t benign_flows = 0;  ///< normal sources + companions
  std::uint64_t false_positives = 0;
  /// Benign flows that entered the suspect path (EIA mismatch or TTL
  /// mismatch) whatever their final verdict -- the scan-stage load the
  /// hop-count detector adds on legitimate traffic is budgeted on this.
  std::uint64_t benign_suspects = 0;

  // Alerts by pipeline stage.
  std::uint64_t alerts_eia = 0;
  std::uint64_t alerts_scan = 0;
  std::uint64_t alerts_nns = 0;
  std::uint64_t alerts_fused = 0;  ///< EIA miss + TTL miss (kHopCountFusion)

  /// Mean virtual-time latency from an instance's first attack flow to its
  /// first alert, over detected instances ("Also tracked was the latency
  /// between attack initiation and detection", Section 6.3).
  double mean_detection_latency_ms = 0;

  /// Per attack kind: {instances, detected instances}.
  std::array<std::pair<int, int>, traffic::kAttackKindCount> per_kind{};

  /// Final metrics dump of the run's engine (pipeline counters, component
  /// gauges, per-stage latency histograms). Taken after the last flow, so
  /// it reconciles with the accounting above: flows_total equals
  /// attack_flows + benign_flows, and the verdict_attack_* counters sum to
  /// alerts_eia + alerts_scan + alerts_nns + alerts_fused.
  obs::RegistrySnapshot metrics;

  [[nodiscard]] double detection_rate() const {
    return attack_instances == 0
               ? 0.0
               : static_cast<double>(detected_instances) / attack_instances;
  }
  [[nodiscard]] double flow_detection_rate() const {
    return attack_flows == 0
               ? 0.0
               : static_cast<double>(detected_attack_flows) /
                     static_cast<double>(attack_flows);
  }
  [[nodiscard]] double false_positive_rate() const {
    return benign_flows == 0 ? 0.0
                             : static_cast<double>(false_positives) /
                                   static_cast<double>(benign_flows);
  }
  [[nodiscard]] double benign_suspect_rate() const {
    return benign_flows == 0 ? 0.0
                             : static_cast<double>(benign_suspects) /
                                   static_cast<double>(benign_flows);
  }
};

/// Averages of `detection_rate` / `false_positive_rate` over repeated runs
/// ("Each data point was obtained by averaging 5 runs").
struct AveragedResult {
  double detection_rate = 0;
  double flow_detection_rate = 0;
  double false_positive_rate = 0;
  int runs = 0;
};

/// One generated testbed workload: the labeled replay stream plus every
/// launched attack instance (an instance can contribute zero flows under
/// aggressive NetFlow sampling and must still count as launched).
struct TestbedStream {
  /// Normal + attack + companion flows, sorted by export time (record.last).
  std::vector<dagflow::LabeledFlow> flows;
  /// Launched (attacked-ingress index, attack kind) pairs.
  std::vector<std::pair<int, traffic::AttackKind>> instances;
};

/// Generates the full Section 6 workload for `config` -- the stream
/// run_experiment replays, also consumed directly by bench/throughput.
[[nodiscard]] TestbedStream generate_stream(const ExperimentConfig& config);

/// Ground-truth accounting shared by the serial and runtime replay paths,
/// and reused wave-by-wave by the lifecycle soak harness (sim/soak.h).
/// Every reduction is order-independent (counts and min-aggregations), so
/// scoring the same (flow, verdict) pairs in any interleaving -- the
/// runtime's workers finish shards in nondeterministic order -- produces
/// exactly the serial result. (first_alert as a min over alerting flows'
/// export times equals the serial "first detected flow in replay order":
/// the stream is sorted by record.last.)
class Scorer {
 public:
  Scorer(const ExperimentConfig& config, const TestbedStream& stream);

  void score(const dagflow::LabeledFlow& flow, const core::Verdict& verdict);

  /// Folds the per-instance states into the final result (metrics field
  /// left to the caller).
  [[nodiscard]] ExperimentResult finalize();

 private:
  struct InstanceKey {
    int ingress;
    traffic::AttackKind kind;
    auto operator<=>(const InstanceKey&) const = default;
  };
  struct InstanceState {
    bool detected = false;
    util::TimeMs first_flow = ~util::TimeMs{0};
    util::TimeMs first_alert = ~util::TimeMs{0};
  };

  int first_port_;
  std::map<InstanceKey, InstanceState> instances_;
  ExperimentResult result_;
};

/// Builds the training traffic and trained clusters for a seed; shared
/// across runs like the paper's pre-built NNS structures.
[[nodiscard]] std::shared_ptr<const core::TrainedClusters> train_clusters(
    const ExperimentConfig& config);

/// Replays `stream` into `runtime` in fixed-size submit_batch calls via
/// producer 0, in stream order. Each FlowItem's tag is its stream index
/// (the Scorer join key); its arrival time is record.last + clock_offset.
void submit_stream(runtime::ShardedRuntime& runtime, const TestbedStream& stream,
                   util::TimeMs clock_offset = 0);

/// Runs one experiment. When `clusters` is null the run trains its own.
[[nodiscard]] ExperimentResult run_experiment(
    const ExperimentConfig& config,
    std::shared_ptr<const core::TrainedClusters> clusters = nullptr);

/// Memoizes trained clusters by seed. The paper builds the NNS structures
/// once "prior to the experiment runs"; benches sweeping many parameter
/// points share one cache so each seed trains exactly once.
class ClusterCache {
 public:
  explicit ClusterCache(ExperimentConfig base) : base_(std::move(base)) {}
  std::shared_ptr<const core::TrainedClusters> get(std::uint64_t seed);

 private:
  ExperimentConfig base_;
  std::map<std::uint64_t, std::shared_ptr<const core::TrainedClusters>> cache_;
};

/// Runs `runs` seeded repetitions and averages the headline rates.
/// `cache` (optional) supplies pre-trained clusters per run seed.
[[nodiscard]] AveragedResult run_averaged(ExperimentConfig config, int runs = 5,
                                          ClusterCache* cache = nullptr);

}  // namespace infilter::sim
