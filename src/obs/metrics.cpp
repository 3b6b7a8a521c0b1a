#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace infilter::obs {

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil).
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[b];
    if (cumulative < target) continue;
    if (b >= bounds.size()) {
      // Overflow bucket: no finite upper edge to interpolate toward.
      return bounds.back();
    }
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = bounds[b];
    const double within = static_cast<double>(target - before) /
                          static_cast<double>(counts[b]);
    return lower + within * (upper - lower);
  }
  return bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t b = 0; b <= bounds_.size(); ++b) buckets_[b].store(0);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  int count) {
  assert(start > 0 && factor > 1 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

void Histogram::observe_n(double value, std::uint64_t n) noexcept {
  if (n == 0) return;
  // Branch-light search over the fixed bounds; bucket b holds values in
  // (bounds[b-1], bounds[b]], bucket bounds_.size() everything larger.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  const double added = value * static_cast<double>(n);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + added, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.resize(bounds_.size() + 1);
  for (std::size_t b = 0; b <= bounds_.size(); ++b) {
    out.counts[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

std::string_view kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

const MetricSnapshot* RegistrySnapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricSnapshot& m, std::string_view n) { return m.name < n; });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

double RegistrySnapshot::value(std::string_view name, double fallback) const {
  const auto* metric = find(name);
  return metric == nullptr ? fallback : metric->value;
}

const HistogramSnapshot* RegistrySnapshot::histogram(std::string_view name) const {
  const auto* metric = find(name);
  if (metric == nullptr || !metric->histogram.has_value()) return nullptr;
  return &*metric->histogram;
}

RegistrySnapshot merge_snapshots(const std::vector<RegistrySnapshot>& snapshots) {
  RegistrySnapshot out;
  for (const auto& snapshot : snapshots) {
    for (const auto& metric : snapshot.metrics) {
      auto it = std::lower_bound(
          out.metrics.begin(), out.metrics.end(), metric.name,
          [](const MetricSnapshot& m, const std::string& n) { return m.name < n; });
      if (it == out.metrics.end() || it->name != metric.name) {
        out.metrics.insert(it, metric);
        continue;
      }
      if (it->kind != metric.kind) continue;  // name collision across kinds
      if (metric.kind == MetricKind::kHistogram) {
        // Merge only when the bucket layouts agree; on a mismatch the
        // first snapshot's histogram stays fully intact (value included),
        // never a sum of values over buckets from one contributor.
        if (it->histogram.has_value() && metric.histogram.has_value() &&
            it->histogram->bounds == metric.histogram->bounds) {
          it->value += metric.value;
          for (std::size_t b = 0; b < it->histogram->counts.size(); ++b) {
            it->histogram->counts[b] += metric.histogram->counts[b];
          }
          it->histogram->count += metric.histogram->count;
          it->histogram->sum += metric.histogram->sum;
        }
        continue;
      }
      it->value += metric.value;
    }
  }
  return out;
}

Registry::Entry* Registry::find_entry(std::string_view name) {
  for (auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

Registry::Entry& Registry::emplace(std::string_view name, std::string_view help,
                                   MetricKind kind) {
  Entry& entry = entries_.emplace_back();
  entry.name = std::string(name);
  entry.help = std::string(help);
  entry.kind = kind;
  return entry;
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  std::lock_guard lock(mutex_);
  if (Entry* existing = find_entry(name)) {
    assert(existing->kind == MetricKind::kCounter && existing->counter);
    return *existing->counter;
  }
  Entry& entry = emplace(name, help, MetricKind::kCounter);
  entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard lock(mutex_);
  if (Entry* existing = find_entry(name)) {
    assert(existing->kind == MetricKind::kGauge && existing->gauge);
    return *existing->gauge;
  }
  Entry& entry = emplace(name, help, MetricKind::kGauge);
  entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& Registry::histogram(std::string_view name, std::vector<double> bounds,
                               std::string_view help) {
  std::lock_guard lock(mutex_);
  if (Entry* existing = find_entry(name)) {
    assert(existing->kind == MetricKind::kHistogram && existing->histogram);
    return *existing->histogram;
  }
  Entry& entry = emplace(name, help, MetricKind::kHistogram);
  entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *entry.histogram;
}

void Registry::counter_fn(std::string_view name, std::function<std::uint64_t()> fn,
                          std::string_view help) {
  std::lock_guard lock(mutex_);
  if (find_entry(name) != nullptr) return;
  Entry& entry = emplace(name, help, MetricKind::kCounter);
  entry.pull = [fn = std::move(fn)] { return static_cast<double>(fn()); };
}

void Registry::gauge_fn(std::string_view name, std::function<double()> fn,
                        std::string_view help) {
  std::lock_guard lock(mutex_);
  if (find_entry(name) != nullptr) return;
  Entry& entry = emplace(name, help, MetricKind::kGauge);
  entry.pull = std::move(fn);
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  RegistrySnapshot out;
  out.metrics.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSnapshot metric;
    metric.name = entry.name;
    metric.help = entry.help;
    metric.kind = entry.kind;
    if (entry.pull) {
      metric.value = entry.pull();
    } else if (entry.counter) {
      metric.value = static_cast<double>(entry.counter->value());
    } else if (entry.gauge) {
      metric.value = entry.gauge->value();
    } else if (entry.histogram) {
      metric.histogram = entry.histogram->snapshot();
    }
    out.metrics.push_back(std::move(metric));
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::size_t Registry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace infilter::obs
