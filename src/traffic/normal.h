// Synthetic "normal" Internet traffic.
//
// Stand-in for the paper's CAIDA/NLANR captures (DESIGN.md section 2): a
// per-protocol mixture model with heavy-tailed flow sizes and durations.
// The mixture components deliberately match the subclusters the Enhanced
// InFilter partitions its Normal cluster into (Section 5.1.3c): http, smtp,
// ftp, dns, other-tcp, other-udp and icmp -- so the per-subcluster NNS
// thresholds are trained on the same families the detector later sees.

#pragma once

#include <cstdint>

#include "traffic/trace.h"
#include "util/rng.h"

namespace infilter::traffic {

/// Shape of one protocol family's flows.
struct ProtocolProfile {
  double weight = 0;  ///< mixture weight (relative, normalized internally)
  std::uint8_t proto = 0;
  std::uint16_t dst_port = 0;  ///< 0 = random unprivileged port
  /// Bounded-Pareto packet count [min, max] with shape alpha.
  double packets_alpha = 1.2;
  double packets_min = 1;
  double packets_max = 1000;
  /// Uniform bytes-per-packet range.
  double bpp_min = 64;
  double bpp_max = 1400;
  /// Mean per-packet inter-arrival used to derive duration (ms).
  double mean_gap_ms = 30;
};

struct NormalTrafficConfig {
  /// Mean flow inter-arrival time at one ingress point.
  double mean_interarrival_ms = 25;
  /// Destinations are drawn from this prefix (the target ISP's customers).
  net::Prefix destination_space{net::IPv4Address{100, 64, 0, 0}, 16};
  /// Number of distinct popular destination hosts (zipf-ish reuse).
  int hot_destinations = 400;
};

/// Generates normal traffic flows. Stateless between calls except for the
/// caller-owned RNG, so distinct Dagflow sources can share one model.
class NormalTrafficModel {
 public:
  explicit NormalTrafficModel(NormalTrafficConfig config = {});

  /// Generates `flow_count` flows starting at `origin`, spaced by
  /// exponential inter-arrivals.
  [[nodiscard]] Trace generate(std::size_t flow_count, util::TimeMs origin,
                               util::Rng& rng) const;

  /// Draws one flow from the mixture (without arrival-time assignment).
  [[nodiscard]] TraceFlow sample_flow(util::Rng& rng) const;

 private:
  NormalTrafficConfig config_;
  std::vector<ProtocolProfile> profiles_;
  std::vector<double> cumulative_weight_;
};

}  // namespace infilter::traffic
