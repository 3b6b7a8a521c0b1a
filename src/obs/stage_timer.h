// Per-stage wall-time tracing for the detection pipeline.
//
// Section 6.4 measures "processing latencies" per configuration; the
// StageTimer is the runtime equivalent: an RAII scope that records the
// wall time of one pipeline stage (EIA lookup, scan analysis, NNS query)
// into a fixed-bucket histogram. A null histogram or a zero weight
// disables the timer entirely, including the clock reads.
//
// A clock pair costs more than an EIA lookup, so the engine times a
// stage on one run in every StageSampler::kStride and records that sample
// with the weight of the runs it stands for: histogram counts stay exact
// run counts, and the clock cost per run drops by the stride.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace infilter::obs {

/// Monotonic clock reading in microseconds (arbitrary epoch).
[[nodiscard]] inline double monotonic_us() noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records the lifetime of the scope into `histogram` (microseconds), as
/// `weight` observations of the elapsed time. Weight 0 (a run the
/// StageSampler skips) records nothing and reads no clock.
class StageTimer {
 public:
  StageTimer(Histogram* histogram, std::uint64_t weight) noexcept
      : histogram_(weight != 0 ? histogram : nullptr),
        weight_(weight),
        start_(histogram_ != nullptr ? monotonic_us() : 0.0) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() { stop(); }

  /// Records now instead of at scope exit; idempotent. Returns the elapsed
  /// microseconds recorded (0 when disabled or already stopped).
  double stop() noexcept {
    if (histogram_ == nullptr) return 0.0;
    const double elapsed_us = monotonic_us() - start_;
    histogram_->observe_n(elapsed_us, weight_);
    histogram_ = nullptr;
    return elapsed_us;
  }

 private:
  Histogram* histogram_;
  std::uint64_t weight_;
  double start_;
};

/// Chooses which runs of a stage one batch times. The runs are cut into
/// windows of kStride consecutive runs (the last one shorter); exactly
/// one run per window is timed, at offset `phase` (reduced modulo the
/// window length), and its weight is the window length. The weights of a
/// batch therefore sum to its run count, and a batch of one run times
/// that run with weight 1.
class StageSampler {
 public:
  static constexpr std::size_t kStride = 64;

  StageSampler(std::size_t runs, std::size_t phase) noexcept
      : full_end_(runs - runs % kStride),
        tail_(runs % kStride),
        phase_(phase % kStride),
        tail_phase_(tail_ == 0 ? 0 : phase % tail_) {}

  /// The weight run `run` (0-based, below `runs`) records with when it is
  /// timed; 0 when it is not.
  [[nodiscard]] std::uint64_t weight(std::size_t run) const noexcept {
    if (run < full_end_) return run % kStride == phase_ ? kStride : 0;
    return run - full_end_ == tail_phase_ ? tail_ : 0;
  }

 private:
  std::size_t full_end_;  ///< runs covered by full windows
  std::size_t tail_;      ///< length of the last, partial window
  std::size_t phase_;
  std::size_t tail_phase_;
};

}  // namespace infilter::obs
