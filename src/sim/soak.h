// Long-horizon churn soak: the lifecycle subsystem's acceptance harness.
//
// Replays the Section 6 testbed workload as a sequence of "waves" -- each
// wave a freshly seeded epoch of normal traffic, routing churn (the
// allocation transitions of 6.3.3), and attack sets -- through ONE
// persistent ShardedRuntime, separated by long virtual idle gaps. Between
// waves the harness can fire an exact-EIA aging sweep (against the same
// flow-carried virtual clock the detectors use) and live shard-pool
// resizes (ShardedRuntime::resize). Each wave also emulates an exporter
// restart: the NetFlow records' SysUptime-derived first/last rebase to
// ~zero while the collector's arrival clock keeps advancing by the
// accumulated wave offset -- the case the lifecycle idle predicate must
// tolerate (a rebased `now` below last_seen never expires an entry).
//
// Each wave is scored against its own ground truth (sim::Scorer), so the
// result is detection quality as a trajectory over virtual weeks: the
// acceptance bar is that aging plus >= 2 resizes do not decay fused
// detection versus a static-pool run of the same waves, and that the
// benign-false-suspect rate stays within noise of it.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/testbed.h"
#include "util/time.h"

namespace infilter::sim {

/// One scheduled live resize: the pool switches to `shards` worker shards
/// immediately before wave `before_wave` is submitted.
struct SoakResize {
  int before_wave = 0;
  int shards = 1;
};

struct SoakConfig {
  /// Per-wave workload template. runtime_shards must be >= 1 (the soak
  /// exercises the concurrent runtime; the serial path has no pool to
  /// resize). engine.eia.lifecycle selects the aging policy under test.
  ExperimentConfig base;
  int waves = 4;
  /// Virtual idle gap inserted between waves -- what drives idle expiry.
  util::DurationMs wave_gap_ms = util::kDay;
  /// Live resizes, applied in schedule order (>= 2 for the acceptance run;
  /// empty reproduces the static-pool baseline).
  std::vector<SoakResize> resizes;
  /// Fire EiaTable::age_sweep across the pool after each wave's gap. The
  /// sweep is verdict-neutral (runtime.h); on = eager reclamation, off =
  /// purely lazy expiry. Quality must not differ between the two.
  bool age_sweep_between_waves = true;
};

/// Per-wave scorecard plus the lifecycle counters after the wave.
struct SoakWave {
  int wave = 0;
  int shards = 0;  ///< pool size that processed this wave
  double detection_rate = 0;
  double flow_detection_rate = 0;
  double false_positive_rate = 0;
  double benign_suspect_rate = 0;
  std::uint64_t entries_expired = 0;    ///< cumulative, post-wave
  std::uint64_t entries_relearned = 0;  ///< cumulative, post-wave
  std::size_t swept = 0;  ///< entries the explicit post-wave sweep expired
};

struct SoakResult {
  std::vector<SoakWave> waves;
  std::uint64_t resizes = 0;
  std::uint64_t migrated_entries = 0;
  double resize_pause_p99_us = 0;
  std::uint64_t entries_expired = 0;
  std::uint64_t entries_relearned = 0;
  /// Final merged runtime snapshot (includes resize-retired history).
  obs::RegistrySnapshot metrics;

  [[nodiscard]] double min_detection_rate() const;
};

/// Runs the soak. Deterministic for a fixed config (wave seeds derive
/// from base.seed; the runtime preserves serial-replay equivalence across
/// every resize boundary).
[[nodiscard]] SoakResult run_soak(const SoakConfig& config);

}  // namespace infilter::sim
