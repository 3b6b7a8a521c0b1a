// TTL hop-count detection -- a second spoofing witness, independent of EIA.
//
// InFilter's hypothesis is that traffic from a given source reaches the
// protected AS over a stable path. The Expected-IP-Address sets test one
// consequence (the ingress point is stable); the IP TTL tests another: the
// *path length* is stable too. Scheitle et al. ("Carrier-Grade Anomaly
// Detection Using Time-to-Live Header Information") show per-source TTL
// stability survives at carrier scale, and SMap documents that real
// spoofers routinely forge addresses that are perfectly valid at the
// ingress they attack -- the one attack class the EIA sets cannot see.
//
// A HopCountTable learns, per (ingress, source /24), the expected range of
// hop counts. The hop count is recovered from the observed TTL by the
// standard initial-TTL inference: operating systems send with an initial
// TTL of 32, 64, 128 or 255, so the smallest of those >= the observed TTL
// is the likely initial value and (initial - observed) the path length.
// Learning mirrors the EIA table's learn/detect phases: a key classifies
// flows only after learn_threshold trusted observations, and idle entries
// decay so a genuine route change re-learns instead of alarming forever.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "util/time.h"

namespace infilter::hopcount {

/// Identifies an ingress point (Peer AS / Border Router); numerically
/// identical to core::IngressId -- hopcount sits below core in the layer
/// order, so the alias is repeated here rather than included.
using IngressId = std::uint16_t;

/// Per-flow TTL classification.
enum class TtlClass : std::uint8_t {
  kUnknown,     ///< no TTL on the record, or the key has no established range
  kConsistent,  ///< hop count within the learned tolerance window
  kMiss,        ///< hop count outside the window: path-length mismatch
};

/// The likely initial TTL for an observed value: the smallest of the
/// common initial TTLs {32, 64, 128, 255} that is >= observed. 0 (no TTL
/// recorded) maps to 0.
[[nodiscard]] constexpr std::uint8_t infer_initial_ttl(std::uint8_t observed) {
  if (observed == 0) return 0;
  if (observed <= 32) return 32;
  if (observed <= 64) return 64;
  if (observed <= 128) return 128;
  return 255;
}

/// Hop count recovered from an observed TTL, or -1 when no TTL was
/// recorded (observed == 0).
[[nodiscard]] constexpr int hops_from_ttl(std::uint8_t observed) {
  return observed == 0 ? -1 : infer_initial_ttl(observed) - observed;
}

struct HopCountConfig {
  /// Half-width of the acceptance window around the learned hop-count
  /// range: a flow is consistent iff its hop count lands in
  /// [min - tolerance, max + tolerance]. Absorbs load-shared paths and
  /// transient reroutes of a hop or two.
  int tolerance = 2;
  /// Trusted observations of an (ingress, source /24) key before its
  /// range is established and flows classify (mirrors the EIA table's
  /// learn threshold); until then the key classifies as unknown.
  int learn_threshold = 5;
  /// Consecutive out-of-window observations fed to observe() before the
  /// range is re-learned around the new path length. Only reachable when
  /// the caller chooses to learn from miss flows; the engine does not, so
  /// under the default policy adaptation happens via decay_ms instead.
  int relearn_threshold = 5;
  /// Entries idle longer than this are expired and re-learned from the
  /// next observation -- the time-decay that lets a genuine route change
  /// converge instead of alarming forever. 0 disables decay.
  util::DurationMs decay_ms = 10 * util::kMinute;
  /// Bound on the table; spoofed floods from diffuse sources must not
  /// grow it without limit. When full, new keys are not tracked.
  std::size_t max_entries = 1 << 20;
};

/// Lifetime counters of one HopCountTable (observability surface).
struct HopCountStats {
  std::uint64_t classified = 0;        ///< classify() calls
  std::uint64_t consistent = 0;
  std::uint64_t misses = 0;
  std::uint64_t unknown = 0;
  std::uint64_t observations = 0;      ///< observe() calls that touched state
  std::uint64_t established_keys = 0;  ///< keys that completed learning
  std::uint64_t relearned_ranges = 0;  ///< ranges reset by the relearn rule
  std::uint64_t expired_entries = 0;   ///< entries reset after decay_ms idle
};

/// Learned per-(ingress, source /24) expected hop-count ranges.
class HopCountTable {
 public:
  /// What observe() did with the observation.
  enum class Observe : std::uint8_t {
    kIgnored,    ///< no TTL on the record, or the table is full
    kLearning,   ///< folded into a range still below learn_threshold
    kInRange,    ///< matched an established range (refreshes the entry)
    kOutOfRange, ///< outside the window of an established range
    kRelearned,  ///< out-of-window streak hit relearn_threshold; range reset
  };

  /// Serialization image of one learned range (hopcount_io).
  struct Entry {
    std::uint8_t min_hops = 0;
    std::uint8_t max_hops = 0;
    int count = 0;       ///< observations folded in; >= learn_threshold = established
    int out_streak = 0;  ///< consecutive out-of-window observations
    util::TimeMs last_seen = 0;
  };
  struct ExportedEntry {
    IngressId ingress = 0;
    net::Prefix slash24;
    Entry entry;
  };

  explicit HopCountTable(HopCountConfig config = {});

  /// Classifies `source`'s TTL at `ingress` against the learned range.
  /// Read-only with respect to the ranges (stats are counted); an entry
  /// past its decay deadline classifies as unknown.
  [[nodiscard]] TtlClass classify(IngressId ingress, net::IPv4Address source,
                                  std::uint8_t ttl, util::TimeMs now) const;

  /// Folds one trusted observation into the key's range. Callers decide
  /// what "trusted" means -- the engine only feeds flows the EIA sets
  /// vouch for and that did not themselves classify as a miss, so a
  /// spoofer cannot poison the ranges it is being checked against.
  Observe observe(IngressId ingress, net::IPv4Address source, std::uint8_t ttl,
                  util::TimeMs now);

  /// Restores one entry verbatim (import path); replaces any existing
  /// entry for the key. `slash24` is canonicalized to its /24.
  void restore(IngressId ingress, net::IPv4Address source, const Entry& entry);

  /// Every entry, sorted by (ingress, /24) for deterministic export.
  [[nodiscard]] std::vector<ExportedEntry> entries() const;

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] const HopCountConfig& config() const { return config_; }
  [[nodiscard]] const HopCountStats& stats() const { return stats_; }

 private:
  static std::uint64_t key_of(IngressId ingress, net::IPv4Address source);
  [[nodiscard]] bool stale(const Entry& entry, util::TimeMs now) const;

  HopCountConfig config_;
  /// Mutable: classify() is logically const but counts its calls.
  mutable HopCountStats stats_;
  /// (ingress << 32 | source /24) -> learned range.
  std::unordered_map<std::uint64_t, Entry> table_;
};

/// The engine-facing analysis stage: classify every flow, learn only from
/// flows the EIA sets vouch for.
class HopCountAnalysis {
 public:
  explicit HopCountAnalysis(HopCountConfig config = {});

  /// Classifies the flow; when `eia_hit` and the flow is not itself a
  /// miss, its TTL is folded into the learned range. EIA-miss flows and
  /// TTL-miss flows never update the table.
  TtlClass analyze(IngressId ingress, net::IPv4Address source, std::uint8_t ttl,
                   util::TimeMs now, bool eia_hit);

  /// Replaces the learned state (training-phase preload / import).
  void install(HopCountTable table) { table_ = std::move(table); }

  [[nodiscard]] const HopCountTable& table() const { return table_; }

 private:
  HopCountTable table_;
};

}  // namespace infilter::hopcount
