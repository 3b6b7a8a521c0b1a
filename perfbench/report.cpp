// Helpers shared by the drivers: verdict fingerprints, the span log,
// process accounting from /proc, percentiles, scoring and verification.

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {

std::uint64_t verdict_code(const core::Verdict& verdict) {
  std::uint64_t code = std::uint64_t{1} << 63;
  code |= verdict.attack ? 1u : 0u;
  code |= verdict.suspect ? 2u : 0u;
  code |= static_cast<std::uint64_t>(verdict.stage) << 2;
  if (verdict.nns.has_value()) {
    const auto& nns = *verdict.nns;
    code |= std::uint64_t{1} << 5;
    code |= (nns.anomalous ? std::uint64_t{1} : 0) << 6;
    code |= static_cast<std::uint64_t>(nns.cluster) << 8;
    code |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(nns.distance + 1)) << 16;
    code |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(nns.threshold)) << 32;
  }
  return code;
}

core::Verdict verdict_from_code(std::uint64_t code) {
  core::Verdict verdict;
  verdict.attack = code_attack(code);
  verdict.suspect = code_suspect(code);
  verdict.stage = static_cast<alert::DetectionStage>((code >> 2) & 7);
  return verdict;
}

std::uint64_t fnv1a(std::uint64_t digest, std::string_view bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

// -- SpanLog ----------------------------------------------------------------

namespace {
/// The calling thread's lane, cached per log generation so a lane is
/// looked up under the mutex once per thread and log reset.
struct LaneCache {
  const SpanLog* log = nullptr;
  std::uint64_t generation = 0;
  SpanLog::Lane* lane = nullptr;
};
thread_local LaneCache t_lane_cache;
}  // namespace

std::int32_t SpanLog::Lane::begin(const char* span_name, std::uint32_t batch) {
  Span span;
  span.name = span_name;
  span.batch = batch;
  span.parent = open.empty() ? -1 : open.back();
  span.start_ns = now_ns();
  spans.push_back(span);
  const auto index = static_cast<std::int32_t>(spans.size() - 1);
  open.push_back(index);
  return index;
}

void SpanLog::Lane::end(std::int32_t index) {
  spans[static_cast<std::size_t>(index)].end_ns = now_ns();
  open.pop_back();
}

SpanLog::Lane& SpanLog::lane(const char* lane_name) {
  auto& cache = t_lane_cache;
  if (cache.log == this &&
      cache.generation == generation_.load(std::memory_order_acquire)) {
    return *cache.lane;
  }
  std::lock_guard lock(mutex_);
  lanes_.push_back(std::make_unique<Lane>());
  Lane& created = *lanes_.back();
  created.id = static_cast<std::uint32_t>(lanes_.size());
  created.name = lane_name;
  created.spans.reserve(1 << 16);
  cache = LaneCache{this, generation_.load(std::memory_order_relaxed), &created};
  return created;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, Totals> out;
  for (const auto& lane : lanes_) {
    for (const Span& span : lane->spans) {
      const std::uint64_t duration = span.end_ns - span.start_ns;
      auto& totals = out[span.name];
      totals.self_ns += duration;
      totals.total_ns += duration;
      ++totals.count;
      if (span.parent >= 0) {
        out[lane->spans[static_cast<std::size_t>(span.parent)].name].self_ns -= duration;
      }
    }
  }
  return out;
}

void SpanLog::clear() {
  std::lock_guard lock(mutex_);
  lanes_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

std::size_t SpanLog::span_count() const {
  std::lock_guard lock(mutex_);
  std::size_t count = 0;
  for (const auto& lane : lanes_) count += lane->spans.size();
  return count;
}

bool SpanLog::write_chrome_json(const std::string& path, std::uint64_t origin_ns) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char line[512];
  for (const auto& lane : lanes_) {
    std::snprintf(line, sizeof line,
                  "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", lane->id, lane->name.c_str());
    out << line;
    first = false;
    for (std::size_t i = 0; i < lane->spans.size(); ++i) {
      const Span& span = lane->spans[i];
      std::snprintf(line, sizeof line,
                    ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                    "\"batch\":%u}}",
                    span.name, lane->id,
                    static_cast<double>(span.start_ns - origin_ns) / 1000.0,
                    static_cast<double>(span.end_ns - span.start_ns) / 1000.0, i,
                    span.parent, span.batch);
      out << line;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// -- Process accounting -------------------------------------------------------

std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

void trim_heap() { ::malloc_trim(0); }

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  stat >> cpu;
  for (auto& field : fields) stat >> field;
  // user nice system idle iowait irq softirq steal
  return static_cast<double>(fields[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double steal_share_since(double steal_start_s, std::uint64_t start_ns) {
  const double span_s = static_cast<double>(now_ns() - start_ns) / 1e9;
  const double capacity_s = span_s * static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  return capacity_s > 0 ? (host_steal_s() - steal_start_s) / capacity_s : 0.0;
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int thread_id() { return static_cast<int>(::syscall(SYS_gettid)); }

std::map<int, std::uint64_t> thread_cpu_ns() {
  std::map<int, std::uint64_t> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    // schedstat's first field: nanoseconds this thread has run on a CPU.
    std::ifstream schedstat(std::string("/proc/self/task/") + entry->d_name +
                            "/schedstat");
    std::uint64_t on_cpu_ns = 0;
    if (schedstat >> on_cpu_ns) out[std::atoi(entry->d_name)] = on_cpu_ns;
  }
  ::closedir(dir);
  return out;
}

// -- Lanes -------------------------------------------------------------------------

std::atomic<std::uint64_t> LaneMap::next_id_{0};

namespace {
thread_local std::uint64_t t_noted_lane_map = 0;
}  // namespace

void LaneMap::note(Kind kind) {
  if (t_noted_lane_map == id_) return;
  t_noted_lane_map = id_;
  std::lock_guard lock(mutex_);
  kinds_.emplace(thread_id(), kind);
}

LaneBusy LaneMap::busy(const std::map<int, std::uint64_t>& before,
                       const std::map<int, std::uint64_t>& after,
                       std::uint64_t window_ns) const {
  std::lock_guard lock(mutex_);
  LaneBusy out;
  if (window_ns == 0) return out;
  for (const auto& [tid, kind] : kinds_) {
    const auto end = after.find(tid);
    if (end == after.end()) continue;
    const auto start = before.find(tid);
    const std::uint64_t base = start == before.end() ? 0 : start->second;
    const double share =
        static_cast<double>(end->second - base) / static_cast<double>(window_ns);
    switch (kind) {
      case kProducer: out.producer = std::max(out.producer, share); break;
      case kShard: out.shard_max = std::max(out.shard_max, share); break;
      case kScan: out.scan = std::max(out.scan, share); break;
      case kSender: out.sender = std::max(out.sender, share); break;
    }
  }
  return out;
}

// -- Runtime set-up and accounting ------------------------------------------------

std::unique_ptr<runtime::ShardedRuntime> set_up_runtime(
    const Inputs& inputs, const runtime::RuntimeConfig& config, alert::AlertSink* sink,
    runtime::ShardedRuntime::VerdictHook hook, Repetition& rep) {
  const std::uint64_t t0 = now_ns();
  auto rt = std::make_unique<runtime::ShardedRuntime>(config, sink, std::move(hook));
  const std::uint64_t t1 = now_ns();
  for (const auto& [ingress, prefix] : inputs.preloads) rt->add_expected(ingress, prefix);
  const std::uint64_t t2 = now_ns();
  rt->train(inputs.training);
  const std::uint64_t t3 = now_ns();
  rep.start_ms = static_cast<double>(t1 - t0) / 1e6;
  rep.preload_ms = static_cast<double>(t2 - t1) / 1e6;
  rep.train_ms = static_cast<double>(t3 - t2) / 1e6;
  return rt;
}

void read_runtime(const runtime::ShardedRuntime& rt, Repetition& rep) {
  rep.stats = rt.stats();
  const auto peaks = rt.shard_queue_peaks();
  rep.peak_min = *std::min_element(peaks.begin(), peaks.end());
  rep.peak_max = *std::max_element(peaks.begin(), peaks.end());
  const auto snapshot = rt.snapshot();
  const auto counter = [&](const char* name) {
    return static_cast<std::uint64_t>(snapshot.value(name));
  };
  rep.eia_learned = counter("infilter_eia_learned_total");
  rep.hopcount_miss = counter("infilter_hopcount_miss_total");
  rep.flows_total = counter("infilter_flows_total");
  rep.lifecycle_expired = counter("infilter_lifecycle_entries_expired_total");
  rep.lifecycle_relearned = counter("infilter_lifecycle_entries_relearned_total");
}

// -- Statistics -----------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double percentile_u64(std::vector<std::uint64_t>& values, double p) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return static_cast<double>(values[k]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// -- Scoring and verification ------------------------------------------------------

void score(const Inputs& inputs, std::span<const std::uint64_t> codes_by_flow,
           Repetition& rep) {
  sim::Scorer scorer(inputs.experiment, inputs.stream);
  for (std::size_t i = 0; i < codes_by_flow.size(); ++i) {
    scorer.score(inputs.stream.flows[i], verdict_from_code(codes_by_flow[i]));
  }
  const auto result = scorer.finalize();
  rep.detection_rate = result.detection_rate();
  rep.false_positive_rate = result.false_positive_rate();
}

void verify(const Reference& reference, std::span<const std::uint64_t> codes,
            std::uint64_t alert_digest, std::uint64_t alerts, Repetition& rep) {
  std::uint64_t missing = 0;
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < reference.codes.size(); ++i) {
    const std::uint64_t got = i < codes.size() ? codes[i] : 0;
    if (got == 0) {
      ++missing;
    } else if (got != reference.codes[i]) {
      ++mismatched;
    }
  }
  const auto note = [&rep](const std::string& what) {
    if (rep.failures.size() < 8) rep.failures.push_back(what);
  };
  if (missing > 0) note(std::to_string(missing) + " records got no verdict");
  if (mismatched > 0) {
    note(std::to_string(mismatched) + " verdicts differ from the serial reference");
  }
  rep.failed += missing + mismatched;
  if (alert_digest != reference.alert_digest || alerts != reference.alerts) {
    // The alert stream is one ordered artifact: a digest mismatch fails
    // every alerting record it could belong to.
    note("alert stream differs from the serial reference (" + std::to_string(alerts) +
         " vs " + std::to_string(reference.alerts) + " alerts)");
    rep.failed += std::max<std::uint64_t>(1, reference.alerts);
  }
}

}  // namespace perfbench
