// Lifecycle of learned detection state.
//
// The paper learns EIA sets once and assumes they stay valid; a deployed
// system must survive weeks of BGP/IGP churn, exporter restarts, and
// traffic shifts without detection quality decaying. This module is the
// shared vocabulary for aging that state: a conntrack-style entry state
// machine (learning -> established -> stale -> expired, with
// relearn-on-reobservation) and the idle-expiry clock predicate both the
// EIA table (core/eia.h) and the hop-count table (hopcount/hopcount.h)
// evaluate against the flow-carried virtual time.
//
// Determinism contract: expiry is always decided lazily, per key, against
// the `now` carried by the flow being processed -- never against a global
// wall clock or a sweep schedule tied to batch boundaries. Whether a key
// is expired therefore depends only on that key's own observation history
// (its last_seen) and the current flow's timestamp, both of which are
// shard-local under the runtime's source-/24 shard hash. That keeps
// verdicts bit-identical to a serial replay at every shard x producer
// count, the same contract the runtime's reorder stage upholds.
// `EiaTable::age_sweep` may additionally reclaim memory eagerly; it uses
// the identical predicate, so a sweep at time T only removes entries every
// later lookup would have rejected anyway -- verdict-neutral by
// construction.

#pragma once

#include <cstdint>

#include "util/time.h"

namespace infilter::lifecycle {

/// Knobs for learned-entry aging. Default-constructed = aging off, which
/// is required to be bit-identical to the pre-lifecycle pipeline.
struct LifecycleConfig {
  /// Idle time after which a learned entry expires (membership removed,
  /// relearnable). 0 disables aging entirely.
  util::DurationMs max_idle_ms = 0;
  /// Idle time after which an entry is merely *stale* (still accepted,
  /// reported for observability). 0 derives max_idle_ms / 2.
  util::DurationMs stale_after_ms = 0;

  [[nodiscard]] bool enabled() const { return max_idle_ms > 0; }
  [[nodiscard]] util::DurationMs stale_threshold() const {
    return stale_after_ms > 0 ? stale_after_ms : max_idle_ms / 2;
  }

  friend bool operator==(const LifecycleConfig&, const LifecycleConfig&) = default;
};

/// Conntrack-style entry states. `kLearning` = a pending learn counter
/// exists but the key is not yet a member; `kStale` entries are still
/// accepted (the grace window between freshness and expiry); `kExpired`
/// entries have had their membership removed and relearn through the
/// normal mismatch-observation path.
enum class EntryState : std::uint8_t {
  kLearning,
  kEstablished,
  kStale,
  kExpired,
};

/// The one idle-expiry predicate. `now` earlier than `last_seen` (exporter
/// restart rebasing uptime, reordered batch tails) never expires.
[[nodiscard]] inline bool idle_expired(util::TimeMs last_seen, util::TimeMs now,
                                       util::DurationMs max_idle) {
  return now > last_seen && now - last_seen > max_idle;
}

/// State of a live (non-tombstone) entry under `config` at `now`.
[[nodiscard]] EntryState idle_state(util::TimeMs last_seen, util::TimeMs now,
                                    const LifecycleConfig& config);

/// Per-entry age metadata kept for auto-learned keys (preloads are exempt:
/// operator-provisioned ranges never age). An `expired` entry is a
/// tombstone: membership is gone, but the marker lets a later relearn be
/// counted as such.
struct EntryAge {
  util::TimeMs learned_at = 0;
  util::TimeMs last_seen = 0;
  bool expired = false;

  friend bool operator==(const EntryAge&, const EntryAge&) = default;
};

/// Lifetime counters of one aging domain (observability surface).
struct LifecycleStats {
  std::uint64_t entries_expired = 0;    ///< memberships removed by idle expiry
  std::uint64_t entries_relearned = 0;  ///< expired keys learned again
  std::uint64_t entries_refreshed = 0;  ///< last_seen advances on lookup hits
  std::uint64_t sweeps = 0;             ///< explicit age_sweep() passes
};

}  // namespace infilter::lifecycle
