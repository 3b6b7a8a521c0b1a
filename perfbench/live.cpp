// Open-loop live ingest driver (live_ingest).
//
// One sender -- the benchmark's main thread, one UDP socket -- sends the
// peacetime stream as NetFlow v5 export datagrams (one exporter per peer
// AS, each to its own collector port) on a fixed schedule at the offered
// rate, whether or not the pipeline keeps up. An IngestPipeline with one
// receiver thread owning the 10 sockets decodes and submits into a
// ShardedRuntime with one shard worker and the scan-stage thread: the
// infilter-monitor --ingest-threads 1 --threads 1 layout. Each record's
// latency runs from when its datagram was due to be sent to its verdict
// hook, so a stall shows as latency or loss, not as a slower generator.

#include <sys/prctl.h>

#include <algorithm>
#include <thread>

#include "bench.h"
#include "flowtools/udp.h"

namespace perfbench {
namespace {

/// The sender counts as behind its schedule when its p99 lateness exceeds
/// this: latencies measured from due times are then not trustworthy.
/// 250 us is more than six datagram intervals at the offered rate.
constexpr double kMaxSendLagP99Us = 250;
/// How long the receiver may make no progress after the last send before
/// the missing records are counted lost.
constexpr std::uint64_t kDrainStallNs = 2'000'000'000;

/// Per-repetition recording, indexed by dispatch sequence - 1 (one
/// receiver, so sequence order is decode order). Each slot is written by
/// one verdict-hook call; quiesce + flush order the writes before reads.
struct Recorder {
  explicit Recorder(std::size_t n)
      : hook_ns(n, 0), codes(n, 0), records(n), ingress(n, 0) {}
  std::vector<std::uint64_t> hook_ns;
  std::vector<std::uint64_t> codes;
  std::vector<netflow::V5Record> records;
  std::vector<core::IngressId> ingress;
  std::atomic<std::uint64_t> out_of_range{0};
  LaneMap lanes;
};

/// Sleeps until the due time. The sender sleeps rather than spins so it
/// does not take a core from the pipeline it is loading; with the timer
/// slack cut to 1 us (PR_SET_TIMERSLACK) it wakes within tens of
/// microseconds, and whatever lateness remains is measured, reported, and
/// included in every record's latency.
void wait_until(std::uint64_t due_ns) {
  const std::uint64_t now = now_ns();
  if (now < due_ns) std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
}

}  // namespace

Repetition run_live(const Inputs& inputs, SpanLog* spans, Progress& progress,
                    std::vector<core::FlowInput>* realized_out) {
  const std::size_t n = inputs.stream.flows.size();
  const auto peers = static_cast<std::size_t>(inputs.experiment.sources);
  Repetition rep;
  rep.offered = n;

  // Per-peer send order of stream indices, and each record's due time.
  std::vector<std::vector<std::uint32_t>> sent_by_peer(peers);
  std::vector<std::uint64_t> due_of_flow(n, 0);
  for (const auto& datagram : inputs.datagrams) {
    for (const auto i : datagram.flows) {
      sent_by_peer[datagram.peer].push_back(i);
      due_of_flow[i] = datagram.due_ns;
    }
  }
  std::vector<std::uint64_t> lag_ns(inputs.datagrams.size(), 0);
  Recorder rec(n);
  DigestSink sink(spans, "scan");
  auto sender = flowtools::UdpSender::create();
  if (!sender) {
    rep.failures.push_back("sender socket: " + sender.error().message);
    rep.failed = n;
    return rep;
  }

  runtime::RuntimeConfig config;
  config.shards = 1;
  config.producers = 1;
  config.backpressure = runtime::BackpressurePolicy::kBlock;
  config.engine = inputs.engine;
  const auto hook = [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
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
    rec.records[i] = item.record;
    rec.ingress[i] = item.ingress;
  };

  trim_heap();
  const std::uint64_t rss_before = rss_bytes();
  progress.set_phase("set-up");
  const double steal_start = host_steal_s();
  const std::uint64_t t_setup = now_ns();
  auto rt = set_up_runtime(inputs, config, &sink, hook, rep);

  const std::uint64_t t_create = now_ns();
  ingest::IngestConfig ingest_config;
  ingest_config.ports.assign(peers, 0);
  for (std::size_t p = 0; p < peers; ++p) {
    ingest_config.ingress_ids.push_back(static_cast<core::IngressId>(kFirstPort + p));
  }
  ingest_config.receiver_threads = 1;
  std::uint32_t dispatch_batch = 0;
  auto* runtime_ptr = rt.get();
  auto pipeline = ingest::IngestPipeline::create(
      ingest_config,
      [&](std::span<const runtime::FlowItem> items, int producer) {
        rec.lanes.note(LaneMap::kProducer);
        ScopedSpan span(spans, "receiver", "runtime.submit_batch", dispatch_batch++);
        return runtime_ptr->submit_batch(items, producer);
      },
      [runtime_ptr](int producer) { runtime_ptr->producer_idle(producer); });
  const std::uint64_t t_created = now_ns();
  if (!pipeline) {
    rep.failures.push_back("ingest pipeline: " + pipeline.error().message);
    rep.failed = n;
    return rep;
  }
  rep.create_ms = static_cast<double>(t_created - t_create) / 1e6;
  rep.setup_s = static_cast<double>(t_created - t_setup) / 1e9;
  const auto ports = (*pipeline)->ports();
  {
    std::lock_guard lock(progress.mutex);
    progress.runtime = rt.get();
    progress.pipeline = pipeline->get();
    progress.in_flight = n;
  }

  progress.set_phase("send");
  rec.lanes.note(LaneMap::kSender);
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const auto threads_before = thread_cpu_ns();
  const double cpu_before = process_cpu_s();
  // The schedule starts a little ahead so the first datagram is not late
  // by the time it takes to get here.
  const std::uint64_t t0 = now_ns() + 200'000;
  std::uint64_t send_errors = 0;
  for (std::size_t d = 0; d < inputs.datagrams.size(); ++d) {
    const auto& datagram = inputs.datagrams[d];
    const std::uint64_t due = t0 + datagram.due_ns;
    wait_until(due);
    lag_ns[d] = now_ns() - due;
    if (!sender->send(ports[datagram.peer], datagram.bytes)) ++send_errors;
  }

  // Wait until the receiver has handed every record to the runtime, or has
  // stalled long enough that the rest are lost.
  progress.set_phase("drain");
  std::uint64_t last_count = 0;
  std::uint64_t last_progress = now_ns();
  for (;;) {
    const auto stats = (*pipeline)->stats();
    const std::uint64_t handled = stats.records_dispatched + stats.records_shed;
    if (handled >= n) break;
    if (handled != last_count) {
      last_count = handled;
      last_progress = now_ns();
    } else if (now_ns() - last_progress > kDrainStallNs) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  progress.set_phase("flush");
  (*pipeline)->quiesce([&] {
    ScopedSpan span(spans, "sender", "runtime.flush");
    rt->flush();
  });
  const std::uint64_t t1 = now_ns();
  const double cpu_after = process_cpu_s();
  const auto threads_after = thread_cpu_ns();
  rep.steal_share = steal_share_since(steal_start, t_setup);
  const std::uint64_t rss_after = rss_bytes();

  rep.run_s = static_cast<double>(t1 - t0) / 1e9;
  rep.cpu_s = cpu_after - cpu_before;
  rep.rss_mb = (static_cast<double>(rss_after) - static_cast<double>(rss_before)) / 1e6;
  rep.lanes = rec.lanes.busy(threads_before, threads_after, t1 - t0);
  const auto ingest_stats = (*pipeline)->stats();
  rep.kernel_drops = ingest_stats.kernel_drops;
  rep.sequence_gaps = ingest_stats.sequence_gaps;
  rep.records_dispatched = ingest_stats.records_dispatched;
  rep.records_per_s = static_cast<double>(rep.records_dispatched) / rep.run_s;
  read_runtime(*rt, rep);

  progress.set_phase("teardown");
  {
    std::lock_guard lock(progress.mutex);
    progress.runtime = nullptr;
    progress.pipeline = nullptr;
  }
  (*pipeline)->stop();
  pipeline->reset();
  rt->shutdown();
  rt.reset();

  // The generator's own schedule keeping.
  {
    std::vector<double> lags;
    lags.reserve(lag_ns.size());
    for (const auto lag : lag_ns) lags.push_back(static_cast<double>(lag) / 1e3);
    rep.send_lag_p99_us = percentile(lags, 99);
    rep.generator_behind = rep.send_lag_p99_us > kMaxSendLagP99Us;
  }

  progress.set_phase("verify");
  const auto note = [&rep](const std::string& what) {
    if (rep.failures.size() < 8) rep.failures.push_back(what);
  };
  if (send_errors > 0) note(std::to_string(send_errors) + " datagrams failed to send");
  if (const auto stray = rec.out_of_range.load(); stray > 0) {
    note(std::to_string(stray) + " verdicts carried an unknown sequence");
    rep.failed += stray;
  }
  // What the receiver dispatched, in dispatch order: the reference input.
  std::size_t dispatched = 0;
  while (dispatched < n && rec.codes[dispatched] != 0) ++dispatched;
  if (dispatched < n) {
    note(std::to_string(n - dispatched) + " records lost or without verdict (" +
         std::to_string(rep.kernel_drops) + " kernel drops, " +
         std::to_string(rep.sequence_gaps) + " sequence gaps)");
    rep.failed += n - dispatched;
  }
  std::vector<core::FlowInput> realized;
  realized.reserve(dispatched);
  for (std::size_t i = 0; i < dispatched; ++i) {
    realized.push_back(core::FlowInput{rec.records[i], rec.ingress[i],
                                       static_cast<util::TimeMs>(rec.records[i].last)});
  }
  Reference reference = run_reference(inputs, realized, nullptr);
  // A lost tail shortens the reference, not the check: verify() counts
  // only the dispatched positions here, the lost ones were counted above.
  verify(reference, std::span(rec.codes).first(dispatched), sink.digest(), sink.alerts(),
         rep);

  // Join each dispatched record to its send: datagrams of one peer arrive
  // on one socket in send order, so the k-th record decoded from a peer is
  // the k-th it sent -- unless something was lost, which the record
  // comparison catches.
  std::vector<std::size_t> rank(peers, 0);
  std::vector<std::uint64_t> codes_by_flow(n, 0);
  std::uint64_t misjoined = 0;
  rep.latency_ns.reserve(dispatched);
  for (std::size_t i = 0; i < dispatched; ++i) {
    const auto peer = static_cast<std::size_t>(rec.ingress[i] - kFirstPort);
    if (peer >= peers || rank[peer] >= sent_by_peer[peer].size()) {
      ++misjoined;
      continue;
    }
    const auto flow = sent_by_peer[peer][rank[peer]++];
    if (!(inputs.stream.flows[flow].record == rec.records[i])) {
      ++misjoined;
      continue;
    }
    codes_by_flow[flow] = rec.codes[i];
    const std::uint64_t due = t0 + due_of_flow[flow];
    const std::uint64_t latency = rec.hook_ns[i] > due ? rec.hook_ns[i] - due : 0;
    rep.latency_ns.push_back(latency);
    if (code_suspect(rec.codes[i])) rep.suspect_latency_ns.push_back(latency);
  }
  if (misjoined > 0) {
    note(std::to_string(misjoined) + " dispatched records do not match what was sent");
    rep.failed += misjoined;
  }
  score(inputs, codes_by_flow, rep);
  rep.failed = std::min<std::uint64_t>(rep.failed, rep.offered);
  if (realized_out != nullptr) *realized_out = std::move(realized);
  return rep;
}

}  // namespace perfbench
