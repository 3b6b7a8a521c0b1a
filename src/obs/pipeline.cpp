#include "obs/pipeline.h"

namespace infilter::obs {

std::vector<double> default_latency_bounds_us() {
  return Histogram::exponential_bounds(0.25, 2.0, 16);
}

PipelineMetrics::PipelineMetrics(Registry& r)
    : flows_total(&r.counter("infilter_flows_total", "Flows processed")),
      eia_hits(&r.counter("infilter_eia_hits_total",
                          "Flows whose source was in the ingress EIA set")),
      eia_misses(&r.counter("infilter_eia_misses_total",
                            "Flows failing the EIA check (suspects)")),
      eia_learned(&r.counter("infilter_eia_learned_total",
                             "Source /24s auto-learned into an EIA set")),
      hopcount_consistent(
          &r.counter("infilter_hopcount_consistent_total",
                     "Flows whose TTL matched the learned hop-count range")),
      hopcount_miss(&r.counter("infilter_hopcount_miss_total",
                               "Flows whose TTL implied the wrong path length")),
      hopcount_unknown(
          &r.counter("infilter_hopcount_unknown_total",
                     "Flows with no TTL or no established hop-count range")),
      scan_analyzed(&r.counter("infilter_scan_analyzed_total",
                               "Suspect flows run through scan analysis")),
      scan_network(&r.counter("infilter_scan_network_total",
                              "Flows flagged as part of a network scan")),
      scan_host(&r.counter("infilter_scan_host_total",
                           "Flows flagged as part of a host scan")),
      nns_assessed(&r.counter("infilter_nns_assessed_total",
                              "Suspect flows assessed by the NNS stage")),
      nns_normal(&r.counter("infilter_nns_normal_total",
                            "NNS assessments within the subcluster threshold")),
      nns_anomalous(&r.counter("infilter_nns_anomalous_total",
                               "NNS assessments beyond the subcluster threshold")),
      verdict_legal(&r.counter("infilter_verdict_legal_total",
                               "Terminal verdict: expected source, passed")),
      verdict_attack_eia(&r.counter("infilter_verdict_attack_eia_total",
                                    "Terminal verdict: attack via EIA mismatch")),
      verdict_attack_scan(&r.counter("infilter_verdict_attack_scan_total",
                                     "Terminal verdict: attack via scan analysis")),
      verdict_attack_nns(&r.counter("infilter_verdict_attack_nns_total",
                                    "Terminal verdict: attack via NNS distance")),
      verdict_attack_fused(
          &r.counter("infilter_verdict_attack_fused_total",
                     "Terminal verdict: attack via EIA + TTL fusion")),
      verdict_cleared_nns(&r.counter("infilter_verdict_cleared_nns_total",
                                     "Terminal verdict: suspect cleared by NNS")),
      verdict_cleared_learned(&r.counter(
          "infilter_verdict_cleared_learned_total",
          "Terminal verdict: suspect absorbed by EIA auto-learning")),
      alerts_total(&r.counter("infilter_alerts_total",
                              "Alerts delivered to the alert sink")),
      alerts_eia(&r.counter("infilter_alerts_eia_total",
                            "Delivered alerts raised by the EIA stage")),
      alerts_scan(&r.counter("infilter_alerts_scan_total",
                             "Delivered alerts raised by scan analysis")),
      alerts_nns(&r.counter("infilter_alerts_nns_total",
                            "Delivered alerts raised by the NNS stage")),
      alerts_fused(&r.counter("infilter_alerts_fused_total",
                              "Delivered alerts raised by EIA + TTL fusion")),
      stage_eia_us(&r.histogram(
          "infilter_stage_eia_latency_us", default_latency_bounds_us(),
          "EIA lookup wall time per flow (us; 1 in 64 timed, weighted)")),
      stage_hopcount_us(&r.histogram(
          "infilter_stage_hopcount_latency_us", default_latency_bounds_us(),
          "Hop-count classify/learn wall time per flow (us; 1 in 64 timed, "
          "weighted)")),
      stage_scan_us(&r.histogram(
          "infilter_stage_scan_latency_us", default_latency_bounds_us(),
          "Scan analysis wall time per suspect (us; 1 in 64 timed, weighted)")),
      stage_nns_us(&r.histogram(
          "infilter_stage_nns_latency_us", default_latency_bounds_us(),
          "NNS query wall time per suspect (us; batch-amortized)")),
      process_us(&r.histogram("infilter_process_latency_us",
                              default_latency_bounds_us(),
                              "Detection wall time per flow (us; batch-amortized)")) {}

}  // namespace infilter::obs
