// Closed-loop replay driver (peacetime, route_churn, ddos_stress).
//
// One producer -- the benchmark's main thread -- submits the stream with
// submit_batch in 512-record batches into a ShardedRuntime with 2 shard
// workers and the scan-stage thread (kBlock backpressure), then calls
// flush(). Set-up (runtime construction and thread spawn, EIA preload,
// NNS train) is timed on its own; the timed window runs from the first
// submit_batch until flush() returns.

#include <algorithm>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kShards = 2;

/// Per-repetition recording, indexed by dispatch sequence - 1. Each slot
/// is written by exactly one verdict-hook call, so the hook needs no lock;
/// flush() orders every write before the main thread reads.
struct Recorder {
  explicit Recorder(std::size_t n) : hook_ns(n, 0), codes(n, 0), tags(n, 0) {}
  std::vector<std::uint64_t> hook_ns;
  std::vector<std::uint64_t> codes;
  std::vector<std::uint64_t> tags;
  std::atomic<std::uint64_t> out_of_range{0};
  LaneMap lanes;
};

}  // namespace

Repetition run_replay(const Inputs& inputs, const Reference& reference, SpanLog* spans,
                      Progress& progress) {
  const std::size_t n = inputs.stream.flows.size();
  Repetition rep;
  rep.offered = n;

  std::vector<runtime::FlowItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& flow = inputs.stream.flows[i];
    items.push_back(runtime::FlowItem{flow.record, flow.arrival_port,
                                      static_cast<util::TimeMs>(flow.record.last), i});
  }
  const std::size_t batches = (n + kSubmitBatch - 1) / kSubmitBatch;
  std::vector<std::uint64_t> submit_ns(batches, 0);
  Recorder rec(n);
  DigestSink sink(spans, "scan");

  runtime::RuntimeConfig config;
  config.shards = kShards;
  config.producers = 1;
  config.backpressure = runtime::BackpressurePolicy::kBlock;
  config.engine = inputs.engine;
  const auto hook = [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
    // With the scan stage active, suspects complete on the scan thread and
    // legal flows on their shard worker.
    rec.lanes.note(verdict.suspect ? LaneMap::kScan : LaneMap::kShard);
    ScopedSpan span(item.seq % kHookSpanEvery == 0 ? spans : nullptr,
                    verdict.suspect ? "scan" : "shard", "bench.verdict_hook");
    const std::uint64_t t = now_ns();
    const std::uint64_t i = item.seq - 1;
    if (i >= n) {
      rec.out_of_range.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    rec.hook_ns[i] = t;
    rec.codes[i] = verdict_code(verdict);
    rec.tags[i] = item.tag;
  };

  trim_heap();
  const std::uint64_t rss_before = rss_bytes();
  progress.set_phase("set-up");
  const double steal_start = host_steal_s();
  const std::uint64_t t_setup = now_ns();
  auto rt = set_up_runtime(inputs, config, &sink, hook, rep);
  rep.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;
  {
    std::lock_guard lock(progress.mutex);
    progress.runtime = rt.get();
    progress.in_flight = n;
  }

  progress.set_phase("replay");
  rec.lanes.note(LaneMap::kProducer);
  const auto threads_before = thread_cpu_ns();
  const double cpu_before = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t begin = b * kSubmitBatch;
    const std::size_t count = std::min(kSubmitBatch, n - begin);
    submit_ns[b] = now_ns();
    ScopedSpan span(spans, "producer", "runtime.submit_batch", static_cast<std::uint32_t>(b));
    rt->submit_batch(std::span(items).subspan(begin, count));
  }
  progress.set_phase("flush");
  {
    ScopedSpan span(spans, "producer", "runtime.flush");
    rt->flush();
  }
  const std::uint64_t t1 = now_ns();
  const double cpu_after = process_cpu_s();
  const auto threads_after = thread_cpu_ns();
  rep.steal_share = steal_share_since(steal_start, t_setup);
  const std::uint64_t rss_after = rss_bytes();

  rep.run_s = static_cast<double>(t1 - t0) / 1e9;
  rep.records_per_s = static_cast<double>(n) / rep.run_s;
  rep.cpu_s = cpu_after - cpu_before;
  rep.rss_mb = (static_cast<double>(rss_after) - static_cast<double>(rss_before)) / 1e6;
  rep.lanes = rec.lanes.busy(threads_before, threads_after, t1 - t0);
  read_runtime(*rt, rep);

  progress.set_phase("teardown");
  {
    std::lock_guard lock(progress.mutex);
    progress.runtime = nullptr;
  }
  rt->shutdown();
  rt.reset();

  // Verification against the serial replay of the realized dispatch order.
  // With one producer that is submission order, so the run-wide reference
  // applies unless the tags say otherwise.
  progress.set_phase("verify");
  if (const auto stray = rec.out_of_range.load(); stray > 0) {
    rep.failures.push_back(std::to_string(stray) + " verdicts carried an unknown sequence");
    rep.failed += stray;
  }
  bool in_order = true;
  for (std::size_t i = 0; i < n && in_order; ++i) {
    in_order = rec.codes[i] != 0 && rec.tags[i] == i;
  }
  std::vector<std::uint64_t> codes_by_flow(n, 0);
  if (in_order) {
    verify(reference, rec.codes, sink.digest(), sink.alerts(), rep);
    codes_by_flow = rec.codes;
  } else {
    std::vector<core::FlowInput> realized;
    realized.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rec.codes[i] == 0) break;  // the rest never got a verdict
      const auto& item = items[rec.tags[i]];
      realized.push_back(core::FlowInput{item.record, item.ingress, item.now});
      codes_by_flow[rec.tags[i]] = rec.codes[i];
    }
    const auto realized_ref = run_reference(inputs, realized, nullptr);
    verify(realized_ref, rec.codes, sink.digest(), sink.alerts(), rep);
  }
  score(inputs, codes_by_flow, rep);

  // Latency: from the start of the submit_batch call that carried a record
  // to its verdict hook.
  rep.latency_ns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rec.codes[i] == 0) continue;
    const std::uint64_t submitted = submit_ns[rec.tags[i] / kSubmitBatch];
    const std::uint64_t latency =
        rec.hook_ns[i] > submitted ? rec.hook_ns[i] - submitted : 0;
    rep.latency_ns.push_back(latency);
    if (code_suspect(rec.codes[i])) rep.suspect_latency_ns.push_back(latency);
  }
  rep.failed = std::min<std::uint64_t>(rep.failed, rep.offered);
  return rep;
}

}  // namespace perfbench
