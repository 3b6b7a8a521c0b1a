// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with snapshot semantics.
//
// The analysis node of Figure 9 is meant to sit in an ISP operations
// center; what the paper reports as offline experiment tables (per-stage
// detection counts, processing latency, Section 6.4) a production
// deployment needs as live telemetry. This module is the substrate: every
// pipeline stage owns metrics registered here, and exporters
// (obs/export.h) serialize one consistent snapshot.
//
// Hot-path discipline:
//   * Counter/Gauge/Histogram updates are single relaxed atomic ops (the
//     histogram adds one branch-light bucket search over a fixed array)
//     and never allocate or lock.
//   * Registration and snapshotting take a mutex and allocate; both are
//     setup-time / scrape-time operations, never per-flow.
//
// Metrics are identified by name only (no label sets); pipeline
// breakdowns use suffixed names (e.g. infilter_alerts_eia_total).

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace infilter::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that can go up and down.
class Gauge {
 public:
  void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of one histogram, safe to read and serialize while
/// the live histogram keeps observing.
struct HistogramSnapshot {
  /// Finite inclusive upper bounds, ascending. Values above the last bound
  /// land in an implicit overflow bucket.
  std::vector<double> bounds;
  /// Per-bucket (non-cumulative) counts; size bounds.size() + 1, the last
  /// entry being the overflow bucket.
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Estimated q-quantile (0 < q <= 1) by linear interpolation within the
  /// containing bucket (lower edge 0 for the first bucket). Returns 0 when
  /// empty; quantiles inside the overflow bucket clamp to the last finite
  /// bound.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram. Bucket bounds are set at construction so
/// observe() never allocates.
class Histogram {
 public:
  /// `bounds`: finite inclusive upper bounds, strictly ascending, at least
  /// one entry.
  explicit Histogram(std::vector<double> bounds);

  /// `count` bounds starting at `start`, each `factor` times the previous.
  [[nodiscard]] static std::vector<double> exponential_bounds(double start,
                                                              double factor,
                                                              int count);

  void observe(double value) noexcept { observe_n(value, 1); }
  /// `n` observations of `value` for the price of one: the same bucket,
  /// count and sum as n observe(value) calls. n == 0 records nothing.
  void observe_n(double value, std::uint64_t n) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view kind_name(MetricKind kind);

/// One metric in a registry snapshot.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  /// Counter/gauge value (counters are exact below 2^53).
  double value = 0.0;
  std::optional<HistogramSnapshot> histogram;
};

/// A consistent point-in-time view of a whole registry, sorted by name.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  [[nodiscard]] const MetricSnapshot* find(std::string_view name) const;
  /// Counter/gauge value by name; `fallback` when absent.
  [[nodiscard]] double value(std::string_view name, double fallback = 0.0) const;
  [[nodiscard]] const HistogramSnapshot* histogram(std::string_view name) const;
};

/// Merges snapshots metric-by-metric into one registry view -- how the
/// sharded runtime (src/runtime) presents N per-shard registries as a
/// single scrape. Counters and gauges sum (a summed gauge reads as the
/// fleet total: queue depths add; per-shard EIA range counts add across
/// the shard replicas). Histograms with identical bounds merge bucket-wise;
/// on a bounds mismatch the first snapshot's histogram wins. Name, help,
/// and kind come from the first snapshot that mentions the metric.
[[nodiscard]] RegistrySnapshot merge_snapshots(
    const std::vector<RegistrySnapshot>& snapshots);

/// Owns metrics by name. Registration is idempotent: re-registering a name
/// returns the existing instrument, so independent components can share
/// one registry without coordination. Returned references stay valid for
/// the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  /// Re-registration returns the existing histogram; `bounds` are only
  /// used on first registration.
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       std::string_view help = {});

  /// Pull-style instruments: `fn` is sampled at snapshot() time. The
  /// callable (and anything it captures) must outlive every snapshot()
  /// call. Re-registering an existing name is a no-op.
  void counter_fn(std::string_view name, std::function<std::uint64_t()> fn,
                  std::string_view help = {});
  void gauge_fn(std::string_view name, std::function<double()> fn,
                std::string_view help = {});

  [[nodiscard]] RegistrySnapshot snapshot() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> pull;  ///< callback instruments
  };

  Entry* find_entry(std::string_view name);
  Entry& emplace(std::string_view name, std::string_view help, MetricKind kind);

  mutable std::mutex mutex_;
  /// Deque for stable addresses across registrations.
  std::deque<Entry> entries_;
};

}  // namespace infilter::obs
