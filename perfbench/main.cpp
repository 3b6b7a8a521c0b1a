// perfbench: the repository benchmark's executable (perfbench/run.py builds
// and runs it).
//
//   perfbench --workload <peacetime|route_churn|ddos_stress|live_ingest>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 times the end-to-end metrics: the system is set up afresh and
// run once per repetition (after 1.5 s of untimed warm-up repetitions)
// until --seconds of repetitions have run, and each metric is a median over
// repetitions (latency: over windows of them, see kLatencyWindow). A
// workload that replays several testbed experiments (ddos_stress, see
// experiments_per_run) takes them in turn and reports the mean of their
// medians.
// --trace 1 is the separate traced run, over the first experiment only: it
// alternates untraced and traced repetitions (spans around submit_batch,
// flush and the verdict hook), then replays the realized dispatch order
// through the serial split-pipeline reference with a span around every
// layer call, and prints the per-layer table. Every repetition of either mode is checked
// record by record, and its IDMEF alert-stream digest, against the serial
// reference. The last line of standard output is the JSON result.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "bench.h"

using namespace perfbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif

/// Repetitions measured at least, whatever --seconds says.
constexpr int kMinRepetitions = 3;
/// Repetitions of one experiment in a row before the next one's turn. The
/// heap settles over a run of same-sized repetitions, so sut_rss_mb
/// measures the experiment rather than how the one before left the heap.
constexpr std::size_t kExperimentBlock = 5;
/// Host CPU steal share above which a repetition's timings may be left
/// out (see timed_repetitions).
constexpr double kMaxStealShare = 0.03;
/// live_ingest latency percentiles are taken per window of this many
/// consecutive records (suspects) in dispatch order, about 6 ms (70 ms) of
/// the schedule, and reported as the median over the windows of the timed
/// repetitions. In the open loop a host stall of a few milliseconds then
/// spoils the windows it falls in, not the figure of the whole repetition,
/// and the few windows an attack burst crowds with suspects do not decide
/// the figure either. Each window leaves 50 (10) samples beyond its p99.
/// The closed-loop replays take one window per repetition: their latency
/// is the stream's own queueing through the pipeline, shaped by where its
/// attack storms fall, so the unit is the whole stream.
constexpr std::size_t kLatencyWindow = 5'000;
constexpr std::size_t kSuspectLatencyWindow = 1'000;
/// Untimed warm-up before the measured repetitions. Besides caches and
/// lazy set-up, a host whose processors were idle runs the first fraction
/// of a second of repetitions at well under half speed.
constexpr std::uint64_t kWarmupNs = 1'500'000'000ULL;
/// Serial per-layer replays in a traced run (per-layer values are medians).
constexpr int kSerialPasses = 3;
/// Watchdog bounds: one phase (set-up, replay, flush, verify ...) and the
/// whole run. A run that exceeds either is stopped and reported failed.
constexpr std::uint64_t kPhaseBoundNs = 60'000'000'000ULL;
constexpr std::uint64_t kRunBoundNs = 165'000'000'000ULL;

struct Options {
  Workload workload = Workload::kPeacetime;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

bool parse_options(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", value.c_str());
        return false;
      }
      options.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "perfbench: bad --seed '%s'\n", value.c_str());
        return false;
      }
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 120) {
        std::fprintf(stderr, "perfbench: --seconds must be in (0, 120]\n");
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "perfbench: --trace must be 0 or 1\n");
        return false;
      }
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "perfbench: --workload is required\n");
  return have_workload;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Stops a run that exceeds its bounds: prints where it is stuck, reports
/// the repetition in flight as failed, and ends the process.
class Watchdog {
 public:
  Watchdog(Progress& progress, std::uint64_t started_ns)
      : progress_(progress), started_ns_(started_ns), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; })) {
      std::uint64_t phase_started = 0;
      {
        std::lock_guard progress_lock(progress_.mutex);
        phase_started = progress_.phase_started_ns;
      }
      // Read after the phase stamp, so a phase that starts in between
      // cannot make the difference wrap around.
      const std::uint64_t now = now_ns();
      if (now - phase_started > kPhaseBoundNs || now - started_ns_ > kRunBoundNs) fire();
    }
  }

  [[noreturn]] void fire() {
    std::lock_guard progress_lock(progress_.mutex);
    std::printf("watchdog: run exceeded its time bound in phase '%s' (repetition %d)\n",
                progress_.phase.c_str(), progress_.repetition);
    if (progress_.runtime != nullptr) {
      const auto s = progress_.runtime->stats();
      std::printf(
          "watchdog: runtime submitted=%llu dispatched=%llu processed=%llu "
          "suspects_forwarded=%llu suspects_completed=%llu backpressure_waits=%llu "
          "dropped=%llu\n",
          static_cast<unsigned long long>(s.submitted),
          static_cast<unsigned long long>(s.dispatched),
          static_cast<unsigned long long>(s.processed),
          static_cast<unsigned long long>(s.suspects_forwarded),
          static_cast<unsigned long long>(s.suspects_completed),
          static_cast<unsigned long long>(s.backpressure_waits),
          static_cast<unsigned long long>(s.dropped));
    }
    if (progress_.pipeline != nullptr) {
      const auto s = progress_.pipeline->stats();
      std::printf("watchdog: ingest datagrams=%llu records_dispatched=%llu "
                  "kernel_drops=%llu sequence_gaps=%llu\n",
                  static_cast<unsigned long long>(s.datagrams_received),
                  static_cast<unsigned long long>(s.records_dispatched),
                  static_cast<unsigned long long>(s.kernel_drops),
                  static_cast<unsigned long long>(s.sequence_gaps));
    }
    const auto cpu = thread_cpu_ns();
    for (const auto& [tid, on_cpu_ns] : cpu) {
      const std::string task = "/proc/self/task/" + std::to_string(tid);
      const std::string stat = read_first_line(task + "/stat");
      const auto close = stat.rfind(')');
      const char state = close != std::string::npos && close + 2 < stat.size()
                             ? stat[close + 2]
                             : '?';
      std::printf("watchdog: thread %d state=%c wchan=%s cpu_ms=%.1f\n", tid, state,
                  read_first_line(task + "/wchan").c_str(),
                  static_cast<double>(on_cpu_ns) / 1e6);
    }
    const std::uint64_t attempted = progress_.attempted + progress_.in_flight;
    print_result(false, std::max<std::uint64_t>(attempted, 1),
                 std::max<std::uint64_t>(progress_.failed + progress_.in_flight, 1), {});
    std::_Exit(0);
  }

  Progress& progress_;
  const std::uint64_t started_ns_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Distribution summary over repetitions, for the human-readable report.
struct Spread {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};
Spread spread(const std::vector<double>& values) {
  return Spread{median(values), percentile(values, 25), percentile(values, 75)};
}

double nonzero_ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Percentile `p` of each run of `window` consecutive samples; a short
/// tail joins the last full window (or forms the only one).
std::vector<double> window_percentiles(const std::vector<std::uint64_t>& samples,
                                       std::size_t window, double p) {
  std::vector<double> out;
  if (samples.empty()) return out;
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / window);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows ? samples.end()
                                      : begin + static_cast<std::ptrdiff_t>(window);
    std::vector<std::uint64_t> slice(begin, end);
    out.push_back(percentile_u64(slice, p) / 1e3);
  }
  return out;
}

/// Every window figure of the given repetitions, concatenated.
std::vector<double> windows(const std::vector<Repetition>& reps,
                            std::vector<double> Repetition::*member) {
  std::vector<double> out;
  for (const auto& rep : reps) {
    out.insert(out.end(), (rep.*member).begin(), (rep.*member).end());
  }
  return out;
}

/// One testbed experiment of the run: its inputs and the serial reference
/// of the stream's own order -- the replay workloads' dispatch order with
/// one producer. (live_ingest verifies each repetition against a replay of
/// what its receiver dispatched.)
struct Experiment {
  Inputs inputs;
  Reference reference;
};

/// The experiment repetition `index` (from 0) replays.
const Experiment& experiment_of(const std::vector<Experiment>& experiments, std::size_t index) {
  return experiments[(index / kExperimentBlock) % experiments.size()];
}

Repetition run_once(const Options& options, const Experiment& experiment, SpanLog* spans,
                    Progress& progress, int index, std::vector<core::FlowInput>* realized) {
  {
    std::lock_guard lock(progress.mutex);
    progress.repetition = index;
  }
  const Inputs& inputs = experiment.inputs;
  Repetition rep = is_replay(options.workload)
                       ? run_replay(inputs, experiment.reference, spans, progress)
                       : run_live(inputs, spans, progress, realized);
  rep.experiment = inputs.experiment_index;
  // Latency percentiles per window of consecutive records; the samples
  // themselves are freed.
  rep.latency_samples = rep.latency_ns.size();
  rep.suspect_latency_samples = rep.suspect_latency_ns.size();
  const bool whole = is_replay(options.workload);
  const std::size_t window = whole ? rep.latency_ns.size() : kLatencyWindow;
  const std::size_t suspect_window =
      whole ? rep.suspect_latency_ns.size() : kSuspectLatencyWindow;
  rep.window_p50_us = window_percentiles(rep.latency_ns, window, 50);
  rep.window_p99_us = window_percentiles(rep.latency_ns, window, 99);
  rep.suspect_window_p99_us =
      window_percentiles(rep.suspect_latency_ns, suspect_window, 99);
  rep.latency_ns = {};
  rep.suspect_latency_ns = {};
  std::lock_guard lock(progress.mutex);
  progress.attempted += rep.offered;
  progress.failed += rep.failed;
  progress.in_flight = 0;
  for (const auto& failure : rep.failures) {
    std::fprintf(stderr, "perfbench: FAIL (repetition %d): %s\n", index, failure.c_str());
    std::printf("FAIL (repetition %d): %s\n", index, failure.c_str());
  }
  return rep;
}

/// Whether a repetition's timings measure the system under test: a live
/// load generator that fell behind its schedule invalidates them.
bool on_schedule(const Repetition& rep) { return !rep.generator_behind; }

std::vector<double> field(const std::vector<Repetition>& reps, double Repetition::*member) {
  std::vector<double> out;
  for (const auto& rep : reps) out.push_back(rep.*member);
  return out;
}

void print_spread(const char* name, const std::vector<double>& values, const char* unit) {
  const auto s = spread(values);
  std::printf("  %-26s median %-14.6g q1 %-12.6g q3 %-12.6g %s (%zu repetitions)\n", name,
              s.median, s.q1, s.q3, unit, values.size());
}

/// Untimed repetitions (still verified), taking the experiments in turn,
/// until kWarmupNs has passed. Returns how many ran; they are numbered
/// from 0 down.
int warm_up(const Options& options, const std::vector<Experiment>& experiments,
            Progress& progress) {
  const std::uint64_t start = now_ns();
  int count = 0;
  do {
    (void)run_once(options, experiment_of(experiments, static_cast<std::size_t>(count)),
                   nullptr, progress, -count, nullptr);
    ++count;
  } while (now_ns() - start < kWarmupNs);
  return count;
}

/// A figure over the run's experiments: the median of each experiment's
/// values (`values_of` maps a repetition to its values), then the mean of
/// those medians. With one experiment, the median over the repetitions.
template <typename ValuesOf>
double across_experiments(const std::vector<Repetition>& reps, std::size_t experiments,
                          ValuesOf values_of) {
  double sum = 0;
  std::size_t counted = 0;
  for (std::size_t e = 0; e < experiments; ++e) {
    std::vector<double> values;
    for (const auto& rep : reps) {
      if (static_cast<std::size_t>(rep.experiment) != e) continue;
      const std::vector<double> more = values_of(rep);
      values.insert(values.end(), more.begin(), more.end());
    }
    if (values.empty()) continue;
    sum += median(values);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

/// The repetitions whose timings count. A repetition whose load generator
/// fell behind its schedule did not offer the workload, so its timings are
/// left out (they are used only if no repetition kept to the schedule,
/// with a warning). Host CPU steal comes in bursts on a shared machine and
/// a repetition it hits measures the host, not the system: of the rest,
/// those with more steal than both kMaxStealShare and the median steal
/// share are left out too, so at most half go and, on a quiet host, only
/// the hit ones. Each experiment is filtered on its own, so every one
/// keeps repetitions. `stolen` counts the repetitions steal left out.
std::vector<Repetition> timed_repetitions(const std::vector<Repetition>& reps,
                                          std::size_t experiments, std::size_t& stolen) {
  std::vector<Repetition> out;
  stolen = 0;
  for (std::size_t e = 0; e < experiments; ++e) {
    std::vector<Repetition> own;
    std::copy_if(reps.begin(), reps.end(), std::back_inserter(own), [&](const Repetition& r) {
      return static_cast<std::size_t>(r.experiment) == e;
    });
    std::vector<Repetition> kept;
    std::copy_if(own.begin(), own.end(), std::back_inserter(kept), on_schedule);
    if (kept.empty()) kept = own;
    if (kept.empty()) continue;
    const double cutoff =
        std::max(kMaxStealShare, median(field(kept, &Repetition::steal_share)));
    for (const auto& rep : kept) {
      if (rep.steal_share <= cutoff) {
        out.push_back(rep);
      } else {
        ++stolen;
      }
    }
  }
  return out;
}

int run_e2e(const Options& options, const std::vector<Experiment>& experiments,
            Progress& progress, std::uint64_t started_ns) {
  std::vector<Repetition> reps;
  const std::size_t count = experiments.size();
  const int warmups = warm_up(options, experiments, progress);
  const std::uint64_t window_start = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  // Runs for --seconds, and until every experiment has had a block of
  // repetitions; a live run whose generator kept to its schedule in fewer
  // than kMinRepetitions repetitions goes on, up to twice as long.
  const std::size_t least =
      count == 1 ? static_cast<std::size_t>(kMinRepetitions) : kExperimentBlock * count;
  int on_time = 0;
  for (int i = 1;; ++i) {
    const auto& experiment = experiment_of(experiments, static_cast<std::size_t>(i - 1));
    reps.push_back(run_once(options, experiment, nullptr, progress, i, nullptr));
    on_time += on_schedule(reps.back()) ? 1 : 0;
    const std::uint64_t elapsed = now_ns() - window_start;
    const bool enough = reps.size() >= least &&
                        elapsed >= budget_ns &&
                        (on_time >= kMinRepetitions || elapsed >= 2 * budget_ns);
    if (enough || now_ns() - started_ns > kRunBoundNs / 2) break;
  }

  std::size_t stolen = 0;
  const auto timed = timed_repetitions(reps, count, stolen);
  const auto rps = field(timed, &Repetition::records_per_s);
  const auto p50 = windows(timed, &Repetition::window_p50_us);
  const auto p99 = windows(timed, &Repetition::window_p99_us);
  const auto sp99 = windows(timed, &Repetition::suspect_window_p99_us);
  const auto setup = field(timed, &Repetition::setup_s);
  const auto rss = field(reps, &Repetition::rss_mb);
  const auto detection = field(reps, &Repetition::detection_rate);
  const auto fpr = field(reps, &Repetition::false_positive_rate);
  std::uint64_t samples = 0;
  std::uint64_t suspect_samples = 0;
  for (const auto& rep : timed) {
    samples += rep.latency_samples;
    suspect_samples += rep.suspect_latency_samples;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  {
    std::lock_guard lock(progress.mutex);
    attempted = progress.attempted;
    failed = progress.failed;
  }
  const bool correct = failed == 0;
  const auto behind = std::count_if(reps.begin(), reps.end(),
                                    [](const Repetition& r) { return !on_schedule(r); });
  std::printf("end-to-end (%zu measured repetitions after %d warm-up, %.1f s of runs; "
              "timings from %zu)\n",
              reps.size(), warmups, static_cast<double>(now_ns() - window_start) / 1e9,
              timed.size());
  if (count > 1) {
    std::printf("  %zu experiments in turn; each figure is the mean of their medians, the "
                "spreads below pool them\n",
                count);
    for (const auto& experiment : experiments) {
      const auto e = experiment.inputs.experiment_index;
      std::vector<Repetition> own;
      std::copy_if(timed.begin(), timed.end(), std::back_inserter(own),
                   [&](const Repetition& r) { return r.experiment == e; });
      std::printf("  experiment %d (testbed seed %llu, %zu records): records_per_s %.6g, "
                  "sut_rss_mb %.6g (medians over %zu repetitions)\n",
                  e, static_cast<unsigned long long>(experiment.inputs.seed),
                  experiment.inputs.stream.flows.size(),
                  median(field(own, &Repetition::records_per_s)),
                  median(field(own, &Repetition::rss_mb)), own.size());
    }
  }
  print_spread("records_per_s", rps, "records/s");
  print_spread("latency_p50_us", p50, "us");
  print_spread("latency_p99_us", p99, "us");
  print_spread("suspect_latency_p99_us", sp99, "us");
  std::printf("  (suspect_latency_p99_us is reported by the traced run as "
              "scan.suspect_latency_p99_us)\n");
  std::printf("  latency samples: %llu records in %zu windows, %llu suspects in %zu windows "
              "(timed repetitions; the counts above are windows)\n",
              static_cast<unsigned long long>(samples), p99.size(),
              static_cast<unsigned long long>(suspect_samples), sp99.size());
  print_spread("detection_rate", detection, "fraction");
  print_spread("false_positive_rate", fpr, "fraction");
  print_spread("setup_s", setup, "s");
  print_spread("sut_rss_mb", rss, "MB");
  print_spread("host steal share", field(reps, &Repetition::steal_share), "fraction");
  std::printf("  host CPU steal above max(%.3g, its experiment's median) in %zu of %zu "
              "repetitions (left out of the timings)\n",
              kMaxStealShare, stolen, reps.size());
  std::printf("  failed_ratio               %.6g (%llu of %llu records, warm-up included)\n",
              nonzero_ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!is_replay(options.workload)) {
    print_spread("loadgen.send_lag_p99_us", field(reps, &Repetition::send_lag_p99_us), "us");
    std::printf("  offered rate %.0f records/s; generator behind schedule in %ld of %zu "
                "repetitions (left out of the timings)\n",
                experiments.front().inputs.offered_rate, static_cast<long>(behind),
                reps.size());
    if (behind == static_cast<long>(reps.size())) {
      std::printf("WARNING: the generator fell behind its schedule in every repetition; "
                  "the timings include its lateness\n");
    }
  }
  const auto figure = [&](const std::vector<Repetition>& from, double Repetition::*member) {
    return across_experiments(from, count, [&](const Repetition& r) {
      return std::vector<double>{r.*member};
    });
  };
  const auto window_figure = [&](std::vector<double> Repetition::*member) {
    return across_experiments(timed, count, [&](const Repetition& r) { return r.*member; });
  };
  print_result(correct, attempted, failed,
               {{"records_per_s", figure(timed, &Repetition::records_per_s), "records/s"},
                {"latency_p50_us", window_figure(&Repetition::window_p50_us), "us"},
                {"latency_p99_us", window_figure(&Repetition::window_p99_us), "us"},
                {"detection_rate", figure(reps, &Repetition::detection_rate), "fraction"},
                {"false_positive_rate", figure(reps, &Repetition::false_positive_rate),
                 "fraction"},
                {"setup_s", figure(timed, &Repetition::setup_s), "s"},
                {"sut_rss_mb", figure(reps, &Repetition::rss_mb), "MB"}});
  return 0;
}

struct LayerRow {
  const char* layer;
  std::string metric;
  double value;
  const char* unit;
  const char* measured_around;
  bool in_json;
};

int run_traced(const Options& options, const std::vector<Experiment>& experiments,
               Progress& progress, std::uint64_t started_ns) {
  // The traced run replays the first experiment only.
  const Experiment& experiment = experiments.front();
  const Inputs& inputs = experiment.inputs;
  const Reference& reference = experiment.reference;
  std::vector<Repetition> plain;
  std::vector<Repetition> traced;
  std::vector<double> submit_ns_per_record;
  std::vector<double> flush_ms;
  std::vector<double> hook_ns_per_record;
  SpanLog e2e_spans;
  std::vector<core::FlowInput> realized;
  const int warmups = warm_up(options, experiments, progress);
  const std::uint64_t window_start = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  for (int i = 1;; i += 2) {
    plain.push_back(run_once(options, experiment, nullptr, progress, i, nullptr));
    e2e_spans.clear();
    traced.push_back(run_once(options, experiment, &e2e_spans, progress, i + 1, &realized));
    auto totals = e2e_spans.totals();
    const auto n = static_cast<double>(traced.back().offered);
    submit_ns_per_record.push_back(
        static_cast<double>(totals["runtime.submit_batch"].self_ns) / n);
    flush_ms.push_back(static_cast<double>(totals["runtime.flush"].total_ns) / 1e6);
    const auto& hook = totals["bench.verdict_hook"];
    hook_ns_per_record.push_back(
        hook.count == 0 ? 0.0
                        : static_cast<double>(hook.self_ns) / static_cast<double>(hook.count));
    const bool enough = static_cast<int>(plain.size()) >= kMinRepetitions &&
                        now_ns() - window_start >= budget_ns;
    if (enough || now_ns() - started_ns > kRunBoundNs / 2) break;
  }

  // The serial split-pipeline replay of the realized dispatch order,
  // timed layer by layer.
  progress.set_phase("serial per-layer replay");
  const auto flows = is_replay(options.workload) ? stream_flows(inputs) : realized;
  std::vector<Reference> serial;
  SpanLog serial_spans;
  for (int pass = 0; pass < kSerialPasses; ++pass) {
    serial_spans.clear();
    serial.push_back(run_reference(inputs, flows, &serial_spans));
  }
  const auto serial_median = [&](double LayerTimings::*member) {
    std::vector<double> values;
    for (const auto& ref : serial) values.push_back(ref.layers.*member);
    return median(values);
  };
  const Reference& last = serial.back();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  {
    std::lock_guard lock(progress.mutex);
    attempted = progress.attempted;
    failed = progress.failed;
  }
  // The per-layer replay is itself checked against the run's reference.
  if (is_replay(options.workload) &&
      (last.codes != reference.codes || last.alert_digest != reference.alert_digest)) {
    std::printf("FAIL: the serial per-layer replay disagrees with the reference\n");
    ++failed;
  }

  // Written when the run ends: the last traced repetition and the last
  // serial replay, as Chrome trace JSON.
  ::mkdir(".bench_build", 0755);
  ::mkdir(options.trace_dir.c_str(), 0755);
  const std::string stem = options.trace_dir + "/" + workload_name(options.workload) +
                           "-seed" + std::to_string(options.seed);
  const bool written = e2e_spans.write_chrome_json(stem + "-e2e.json", started_ns) &&
                       serial_spans.write_chrome_json(stem + "-serial.json", started_ns);
  std::printf("spans: %zu e2e + %zu serial written to %s-{e2e,serial}.json%s\n",
              e2e_spans.span_count(), serial_spans.span_count(), stem.c_str(),
              written ? "" : " (WRITE FAILED)");

  const auto med = [](const std::vector<Repetition>& reps, auto getter) {
    std::vector<double> values;
    for (const auto& rep : reps) values.push_back(getter(rep));
    return median(values);
  };
  const double flows_n = static_cast<double>(inputs.stream.flows.size());
  const double untraced_rps = med(plain, [](const Repetition& r) { return r.records_per_s; });
  const double traced_rps = med(traced, [](const Repetition& r) { return r.records_per_s; });
  const LaneBusy lanes{
      med(plain, [](const Repetition& r) { return r.lanes.producer; }),
      med(plain, [](const Repetition& r) { return r.lanes.shard_max; }),
      med(plain, [](const Repetition& r) { return r.lanes.scan; }),
      med(plain, [](const Repetition& r) { return r.lanes.sender; })};
  const Repetition& probe = plain.back();
  const bool live = !is_replay(options.workload);

  std::vector<LayerRow> rows = {
      {"bench (loadgen)", "loadgen.send_lag_p99_us",
       med(plain, [](const Repetition& r) { return r.send_lag_p99_us; }), "us",
       "sender lateness vs schedule", false},
      {"netflow", "netflow.decode_ns_per_record",
       serial_median(&LayerTimings::decode_ns_per_record), "ns",
       "netflow::decode_into over the workload's datagrams", true},
      {"ingest", "ingest.kernel_drops",
       med(plain, [](const Repetition& r) { return double(r.kernel_drops); }), "count",
       "IngestPipeline::stats()", false},
      {"ingest", "ingest.sequence_gaps",
       med(plain, [](const Repetition& r) { return double(r.sequence_gaps); }), "count",
       "IngestPipeline::stats()", false},
      {"ingest", "ingest.records_dispatched",
       med(plain, [](const Repetition& r) { return double(r.records_dispatched); }),
       "count", "IngestPipeline::stats()", false},
      {"ingest", "ingest.create_ms",
       med(plain, [](const Repetition& r) { return r.create_ms; }), "ms",
       "IngestPipeline::create", false},
      {"runtime", "runtime.submit_ns_per_record", median(submit_ns_per_record), "ns",
       "ShardedRuntime::submit_batch span self time (traced)", true},
      {"runtime", "runtime.backpressure_waits_per_krecord",
       med(plain,
           [](const Repetition& r) {
             return 1000.0 * double(r.stats.backpressure_waits) / double(r.offered);
           }),
       "count", "stats().backpressure_waits", true},
      {"runtime", "runtime.flush_ms", median(flush_ms), "ms", "final flush() (traced)", true},
      {"runtime", "runtime.records_per_worker_batch",
       med(plain,
           [](const Repetition& r) {
             return nonzero_ratio(double(r.stats.processed), double(r.stats.batches));
           }),
       "count", "stats().processed / stats().batches", true},
      {"runtime", "runtime.shard_queue_peak_min",
       med(plain, [](const Repetition& r) { return double(r.peak_min); }), "count",
       "shard_queue_peaks()", true},
      {"runtime", "runtime.shard_queue_peak_max",
       med(plain, [](const Repetition& r) { return double(r.peak_max); }), "count",
       "shard_queue_peaks()", true},
      {"runtime", "runtime.start_ms",
       med(plain, [](const Repetition& r) { return r.start_ms; }), "ms",
       "ShardedRuntime constructor", true},
      {"process", "process.cpu_us_per_record",
       med(plain, [](const Repetition& r) { return 1e6 * r.cpu_s / double(r.offered); }),
       "us", "getrusage over the timed window", true},
      {"lanes", "lane.producer_busy", lanes.producer, "ratio",
       live ? "receiver thread on-CPU share" : "producer thread on-CPU share", true},
      {"lanes", "lane.shard_busy_max", lanes.shard_max, "ratio",
       "busiest shard worker on-CPU share", true},
      {"lanes", "lane.scan_busy", lanes.scan, "ratio", "scan-stage thread on-CPU share",
       true},
      {"lanes", "lane.sender_busy", lanes.sender, "ratio", "sender thread on-CPU share",
       false},
      {"scan", "scan.suspect_latency_p99_us",
       median(windows(plain, &Repetition::suspect_window_p99_us)), "us",
       "suspect latency to verdict through the reorder window (untraced)", true},
      {"core", "core.pre_process_ns_per_flow",
       serial_median(&LayerTimings::pre_process_ns_per_flow), "ns",
       "InFilterEngine::pre_process_batch (serial)", true},
      {"core", "core.finish_ns_per_suspect",
       serial_median(&LayerTimings::finish_ns_per_suspect), "ns",
       "InFilterEngine::finish_suspect_batch self time (serial)", true},
      {"core", "core.suspect_ratio", double(last.suspects) / flows_n, "fraction",
       "suspects / flows", true},
      {"core.eia", "core.eia.lookup_ns_per_flow",
       serial_median(&LayerTimings::eia_lookup_ns_per_flow), "ns",
       "EiaTable::is_expected on the post-run table", true},
      {"core.eia", "core.eia.preload_ms",
       med(plain, [](const Repetition& r) { return r.preload_ms; }), "ms",
       "add_expected over the EIA preloads (set-up)", true},
      {"core.eia", "core.eia.learned", double(probe.eia_learned), "count",
       "snapshot() infilter_eia_learned_total", true},
      {"core.eia", "core.eia.ranges", double(last.eia_ranges), "count",
       "total_ranges() of the serial table", true},
      {"core.eia", "core.eia.bytes", double(last.eia_bytes), "bytes",
       "memory_bytes() of the serial table", true},
      {"core.scan", "core.scan.observe_ns_per_suspect",
       serial_median(&LayerTimings::scan_observe_ns_per_suspect), "ns",
       "ScanAnalysis::observe on a fresh instance", true},
      {"hopcount", "hopcount.classify_ns_per_flow",
       serial_median(&LayerTimings::hopcount_classify_ns_per_flow), "ns",
       "HopCountTable::classify on the post-run table", true},
      {"hopcount", "hopcount.miss_ratio",
       nonzero_ratio(double(probe.hopcount_miss), double(probe.flows_total)), "fraction",
       "snapshot() hopcount_miss / flows", true},
      {"nns", "nns.assess_ns_per_query",
       serial_median(&LayerTimings::nns_assess_ns_per_query), "ns",
       "TrainedClusters::assess_batch on the NNS suspects", true},
      {"nns", "nns.train_ms", med(plain, [](const Repetition& r) { return r.train_ms; }),
       "ms", "train()", true},
      {"alert", "alert.serialize_ns_per_alert",
       serial_median(&LayerTimings::serialize_ns_per_alert), "ns",
       "Alert::to_idmef_xml + digest in the sink (serial)", true},
      {"alert", "alert.bytes_per_alert",
       nonzero_ratio(double(last.alert_bytes), double(last.alerts)), "bytes",
       "IDMEF bytes per alert", true},
      {"alert", "alert.alerts_per_krecord", 1000.0 * double(last.alerts) / flows_n, "count",
       "alerts per 1000 records", true},
      {"lifecycle", "lifecycle.entries_expired", double(probe.lifecycle_expired), "count",
       "snapshot() counter", true},
      {"lifecycle", "lifecycle.entries_relearned", double(probe.lifecycle_relearned),
       "count", "snapshot() counter", true},
      {"bench", "bench.unexplained_fraction",
       serial_median(&LayerTimings::unexplained_fraction), "fraction",
       "serial replay wall time not covered by layer self time", true},
      {"bench", "bench.trace_overhead_ratio", nonzero_ratio(traced_rps, untraced_rps),
       "ratio", "traced / untraced records_per_s", true},
  };

  std::printf("\nper-layer table: %s, seed %llu (%zu untraced + %zu traced repetitions "
              "after %d warm-up, %d serial replays of the realized dispatch order)\n",
              workload_name(options.workload), static_cast<unsigned long long>(options.seed),
              plain.size(), traced.size(), warmups, kSerialPasses);
  std::printf("  %-16s %-40s %16s %-9s %s\n", "layer", "metric", "value", "unit",
              "measured around");
  for (const auto& row : rows) {
    if (!row.in_json && !live) continue;
    std::printf("  %-16s %-40s %16.6g %-9s %s\n", row.layer, row.metric.c_str(), row.value,
                row.unit, row.measured_around);
  }

  // Reconciliation: the serial replay's wall time, split into layer self
  // times and what no span covers.
  const double wall_ms = serial_median(&LayerTimings::replay_wall_ms);
  const double pre_ms = serial_median(&LayerTimings::pre_process_ns_per_flow) * flows_n / 1e6;
  const double finish_ms =
      serial_median(&LayerTimings::finish_ns_per_suspect) * double(last.suspects) / 1e6;
  const double alert_ms =
      serial_median(&LayerTimings::serialize_ns_per_alert) * double(last.alerts) / 1e6;
  const double unexplained_ms = wall_ms * serial_median(&LayerTimings::unexplained_fraction);
  std::printf("\nserial replay %.2f ms = pre_process %.2f + finish_suspect %.2f + "
              "alert.serialize %.2f + bench bookkeeping %.2f + unexplained %.2f\n",
              wall_ms, pre_ms, finish_ms, alert_ms,
              wall_ms - pre_ms - finish_ms - alert_ms - unexplained_ms, unexplained_ms);
  std::printf("e2e records_per_s: untraced %.6g, traced %.6g; verdict hook %.1f ns/record "
              "(traced)\n",
              untraced_rps, traced_rps, median(hook_ns_per_record));

  // The bottleneck lane: the busiest of the lanes the records pass through.
  // On-CPU share includes the runtime's idle spinning, and the open loop
  // runs below capacity, so there it only names the busiest lane.
  const char* lane_name = live ? "receiver" : "producer";
  double busiest = lanes.producer;
  if (lanes.shard_max > busiest) {
    busiest = lanes.shard_max;
    lane_name = "shard workers";
  }
  if (lanes.scan > busiest) {
    busiest = lanes.scan;
    lane_name = "scan stage";
  }
  char sender_share[48] = "";
  if (live) std::snprintf(sender_share, sizeof sender_share, ", sender %.2f", lanes.sender);
  std::printf("%s: %s (on-CPU share %.2f; %s %.2f, busiest shard worker %.2f, "
              "scan stage %.2f%s)\n",
              live ? "busiest lane (open loop below capacity)" : "bottleneck lane",
              lane_name, busiest, live ? "receiver" : "producer", lanes.producer,
              lanes.shard_max, lanes.scan, sender_share);

  std::vector<Metric> metrics;
  for (const auto& row : rows) {
    if (row.in_json) metrics.push_back({row.metric, row.value, row.unit});
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

bool sanitized_build() {
  return kSanitizerMacro || std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t started_ns = now_ns();
  Options options;
  if (!parse_options(argc, argv, options)) return 2;
  if (sanitized_build()) {
    std::fprintf(stderr, "perfbench: refusing to time a sanitizer build (%s)\n",
                 PERFBENCH_CXX_FLAGS);
    return 2;
  }

  Progress progress;
  Watchdog watchdog(progress, started_ns);
  progress.set_phase("generate inputs");
  const int count = options.trace ? 1 : experiments_per_run(options.workload);
  std::vector<Experiment> experiments(static_cast<std::size_t>(count));
  for (int e = 0; e < count; ++e) {
    experiments[static_cast<std::size_t>(e)].inputs =
        make_inputs(options.workload, options.seed, e);
  }
  const Inputs& inputs = experiments.front().inputs;
  const double generate_s = static_cast<double>(now_ns() - started_ns) / 1e9;
  const bool replay = is_replay(options.workload);
  std::printf("stamp: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
              "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"sanitizer\": \"none\", "
              "\"threads\": \"%s\", \"records\": %zu, \"datagrams\": %zu, "
              "\"background_preloads\": %zu, \"offered_rate\": %.0f, \"experiments\": %d, "
              "\"seconds\": %g, \"trace\": %d, \"generate_s\": %.3f}\n",
              workload_name(options.workload), static_cast<unsigned long long>(options.seed),
              ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              replay ? "1 producer + 2 shard workers + 1 scan stage"
                     : "1 sender + 1 receiver + 1 shard worker + 1 scan stage",
              inputs.stream.flows.size(), inputs.datagrams.size(),
              inputs.background_preloads, inputs.offered_rate, count, options.seconds,
              options.trace ? 1 : 0, generate_s);

  progress.set_phase("reference");
  if (replay) {
    for (auto& experiment : experiments) {
      experiment.reference =
          run_reference(experiment.inputs, stream_flows(experiment.inputs), nullptr);
    }
  }
  return options.trace ? run_traced(options, experiments, progress, started_ns)
                       : run_e2e(options, experiments, progress, started_ns);
}
