// Normal-cluster partitioning and per-subcluster NNS training
// (Sections 5.1.3 b-d).
//
// The training flows ("Normal cluster") are partitioned into protocol
// subclusters -- http (tcp/80), smtp (tcp/25), ftp (tcp/21), dns (udp/53),
// udp (other udp), tcp (other tcp) and icmp -- because "normal traffic
// flows to a particular application will show less variation ... than
// traffic flows to multiple applications". Each subcluster gets its own
// KOR search structure and its own Hamming-distance threshold, computed
// from the distribution of within-cluster nearest-neighbor distances.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "flowtools/stats.h"
#include "netflow/v5.h"
#include "nns/encoding.h"
#include "nns/kor.h"

namespace infilter::core {

enum class Subcluster : std::uint8_t {
  kHttp,
  kSmtp,
  kFtp,
  kDns,
  kUdp,   ///< all udp except dns
  kTcp,   ///< all tcp without their own subcluster
  kIcmp,
};
inline constexpr int kSubclusterCount = 7;

[[nodiscard]] Subcluster classify(const netflow::V5Record& record);
[[nodiscard]] std::string_view subcluster_name(Subcluster cluster);

struct ClusterConfig {
  /// Unary bits per flow characteristic; d = 5 * bits_per_feature
  /// (the paper's d = 720 -> 144 bits per characteristic).
  int bits_per_feature = 144;
  /// Threshold = this percentile of within-cluster NN distances ...
  double threshold_percentile = 0.99;
  /// ... plus this margin (absolute Hamming distance).
  int threshold_margin = 6;
  nns::KorParams kor;
  /// Ablation switch: use the exact linear-scan index instead of KOR.
  bool use_exact_nns = false;
  /// Ablation switch: false trains one global cluster instead of the
  /// paper's per-protocol subclusters (Section 5.1.3c), quantifying the
  /// claim that per-application clusters "show less variation".
  bool partition_by_protocol = true;
};

/// The trained per-subcluster NNS structures and thresholds.
class TrainedClusters {
 public:
  /// Trains on the Normal cluster. Subclusters with fewer than 2 flows get
  /// an empty index (assess() reports no-neighbor = anomalous).
  TrainedClusters(std::span<const netflow::V5Record> normal_flows,
                  const ClusterConfig& config, std::uint64_t seed);

  /// Encodes a record's five statistics into the unary flow point.
  [[nodiscard]] nns::BitVector encode(const netflow::V5Record& record) const;

  /// Arena variant of encode(): reuses `out`'s buffer (no allocation once
  /// `out` has been sized).
  void encode_into(const netflow::V5Record& record, nns::BitVector& out) const;

  struct Assessment {
    bool anomalous = false;
    Subcluster cluster = Subcluster::kTcp;
    /// True Hamming distance to the found neighbor (-1 if none found).
    int distance = -1;
    int threshold = 0;
  };

  /// NNS analysis of Section 5.1.3(e): nearest neighbor in the record's
  /// subcluster, anomalous when beyond the subcluster threshold or when no
  /// neighbor exists.
  [[nodiscard]] Assessment assess(const netflow::V5Record& record,
                                  util::Rng& rng) const;

  /// Reusable working memory for assess_batch(): per-subcluster gather
  /// arrays (pools that grow to the high-water batch size, then stop
  /// allocating) plus the NNS-level scratch. One per processing thread.
  struct BatchScratch {
    struct Group {
      std::vector<nns::BitVector> queries;
      std::vector<util::Rng> rngs;
      std::vector<std::optional<nns::NnsMatch>> matches;
      std::vector<std::uint32_t> flow_ids;  ///< positions in the batch
      std::size_t count = 0;
    };
    std::array<Group, kSubclusterCount> groups;
    nns::NnsBatchScratch nns;
  };

  /// Batched assess: out[i] is exactly assess(records[i], rngs[i]) -- each
  /// flow consumes its own RNG identically to the per-flow path -- and
  /// rngs[i] is left in the same post-call state. Flows are gathered per
  /// subcluster so each subcluster's index sees one contiguous batch.
  /// Preconditions: records, rngs, and out have equal sizes.
  void assess_batch(std::span<const netflow::V5Record> records,
                    std::span<util::Rng> rngs, std::span<Assessment> out,
                    BatchScratch& scratch) const;

  [[nodiscard]] int threshold(Subcluster cluster) const {
    return thresholds_[static_cast<std::size_t>(cluster)];
  }
  [[nodiscard]] std::size_t training_size(Subcluster cluster) const;
  /// Flows across every subcluster (index + calibration split).
  [[nodiscard]] std::size_t training_size_total() const;

  /// Lifetime query counters. A TrainedClusters is often shared across
  /// engines (Section 6.3 builds the NNS structures once); these aggregate
  /// over every sharer, hence the atomics.
  struct IndexStats {
    /// Queries: assess() calls plus assess_batch() records.
    std::uint64_t assessments = 0;
    std::uint64_t no_neighbor = 0;  ///< queries that found no neighbor at all
  };
  [[nodiscard]] IndexStats stats() const {
    return {assessments_.load(std::memory_order_relaxed),
            no_neighbor_.load(std::memory_order_relaxed)};
  }
  [[nodiscard]] const nns::UnaryEncoder& encoder() const { return encoder_; }
  [[nodiscard]] int dimension() const { return encoder_.dimension(); }

 private:
  [[nodiscard]] Subcluster bucket_of(const netflow::V5Record& record) const;

  nns::UnaryEncoder encoder_;
  bool partition_by_protocol_ = true;
  std::array<std::unique_ptr<nns::NnsIndex>, kSubclusterCount> indexes_;
  std::array<int, kSubclusterCount> thresholds_{};
  /// Flows assigned to each subcluster (index + calibration split).
  std::array<std::size_t, kSubclusterCount> partition_sizes_{};
  mutable std::atomic<std::uint64_t> assessments_{0};
  mutable std::atomic<std::uint64_t> no_neighbor_{0};
};

/// The encoder the engine uses for the five statistics of Section 5.1.2:
/// log-scale ranges wide enough for both normal traffic and floods.
[[nodiscard]] nns::UnaryEncoder make_flow_encoder(int bits_per_feature);

}  // namespace infilter::core
