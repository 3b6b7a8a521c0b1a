// The detection pipeline's metric set.
//
// One PipelineMetrics instance bundles every instrument the EIA -> Scan ->
// NNS pipeline updates per flow, registered by canonical name so any
// exporter, test, or dashboard can rely on the schema:
//
//   flow accounting    infilter_flows_total
//   EIA stage          infilter_eia_{hits,misses,learned}_total
//   hop-count stage    infilter_hopcount_{consistent,miss,unknown}_total
//   scan stage         infilter_scan_{analyzed,network,host}_total
//   NNS stage          infilter_nns_{assessed,normal,anomalous}_total
//   terminal verdicts  infilter_verdict_{legal,attack_eia,attack_scan,
//                      attack_nns,attack_fused,cleared_nns,
//                      cleared_learned}_total
//   alerts delivered   infilter_alerts{,_eia,_scan,_nns,_fused}_total
//   stage latency      infilter_stage_{eia,hopcount,scan,nns}_latency_us,
//                      infilter_process_latency_us  (histograms, us)
//
// Invariants (checked by tests/test_obs.cpp and the integration suite):
//   * flows_total == sum of the seven terminal verdict counters;
//   * eia_hits + eia_misses == flows_total;
//   * with TTL detection on, hopcount_consistent + hopcount_miss +
//     hopcount_unknown == flows_total (every counter zero when off);
//   * in the Enhanced configuration with scan analysis enabled and TTL
//     detection off, scan_analyzed == eia_misses (TTL detection adds
//     in-EIA suspects to the scan stage and diverts fused verdicts
//     around it);
//   * nns_assessed == nns_normal + nns_anomalous;
//   * alerts_total == alerts_eia + alerts_scan + alerts_nns +
//     alerts_fused == alerts delivered to the engine's sink.
//
// Update granularity -- the always-on metrics cost O(1) per batch, not per
// flow (InFilterEngine::pre_process_batch / finish_suspect_batch):
//   * Counters are tallied in batch-local integers and published with one
//     inc(n) each at the end of the batch, so a concurrent scrape sees
//     totals that advance a batch at a time. Between two process_batch()
//     calls every invariant above holds; the sharded runtime's split
//     halves publish separately, so suspects in flight between them are
//     in flows_total before their verdict counters.
//   * Stage histograms (eia, hopcount, scan) hold exact wall-time samples
//     of 1 run in every obs::StageSampler::kStride (64) runs of the stage,
//     each recorded with the weight of the runs it stands for, so their
//     counts stay exact run counts: stage_eia count == flows_total,
//     stage_hopcount count == flows_total with TTL detection on (0 off),
//     stage_scan count == scan_analyzed. A batch of one (process()) times
//     every run.
//   * process_us and stage_nns hold batch-amortized samples: the batch's
//     wall time divided evenly over its flows (process_us: legal flows on
//     the EIA pass, suspects on the post-EIA pass) or its NNS queries, so
//     process_us count == flows_total and stage_nns count == nns_assessed.

#pragma once

#include <vector>

#include "obs/metrics.h"

namespace infilter::obs {

/// Default bounds for the per-stage latency histograms: exponential from
/// 0.25 us to ~8.2 ms (16 finite buckets, factor 2). The 2005 prototype's
/// 0.5-6 ms stage latencies sit in the top buckets; modern per-stage costs
/// resolve in the sub-microsecond ones.
[[nodiscard]] std::vector<double> default_latency_bounds_us();

/// Non-owning handles into a Registry; copyable. Every handle is non-null
/// and stays valid for the registry's lifetime.
struct PipelineMetrics {
  explicit PipelineMetrics(Registry& registry);

  Counter* flows_total;

  Counter* eia_hits;
  Counter* eia_misses;
  Counter* eia_learned;

  Counter* hopcount_consistent;
  Counter* hopcount_miss;
  Counter* hopcount_unknown;

  Counter* scan_analyzed;
  Counter* scan_network;
  Counter* scan_host;

  Counter* nns_assessed;
  Counter* nns_normal;
  Counter* nns_anomalous;

  Counter* verdict_legal;
  Counter* verdict_attack_eia;
  Counter* verdict_attack_scan;
  Counter* verdict_attack_nns;
  Counter* verdict_attack_fused;
  Counter* verdict_cleared_nns;
  Counter* verdict_cleared_learned;

  Counter* alerts_total;
  Counter* alerts_eia;
  Counter* alerts_scan;
  Counter* alerts_nns;
  Counter* alerts_fused;

  Histogram* stage_eia_us;
  Histogram* stage_hopcount_us;
  Histogram* stage_scan_us;
  Histogram* stage_nns_us;
  Histogram* process_us;
};

}  // namespace infilter::obs
