// infilter-detect: run the InFilter analysis over a capture.
//
// EIA sets default to the Table 3 preloads (collector ports 9001..9010
// own 100 sub-blocks each); training comes from a separate capture of
// known-good traffic. Prints an alert summary, the traceback report, and
// (optionally) every alert as IDMEF XML.
//
// Usage:
//   infilter-detect FILE --train TRAIN_FILE
//                   [--eia EIA_FILE]      # text EIA config (default: Table 3)
//                   [--dump-eia OUT]      # write the post-run EIA sets
//                   [--mode basic|enhanced] [--ascii] [--idmef]
//                   [--bits 144]          # unary bits/feature (d = 5*bits)
//                   [--buffer 200] [--learn 5]
//                   [--eia-backend exact|bloom[:BITS[,K[,R[,ROTATE]]]]|cbloom[:...]]
//                                         # EIA membership storage: exact
//                                         # interval sets (default) or a
//                                         # memory-bounded Bloom / counting-
//                                         # Bloom filter (core/eia_backend.h)
//                   [--ttl-detect]        # fuse the TTL hop-count detector
//                                         # with the EIA check (src/hopcount)
//                   [--ttl-tolerance 2]   # hop-count window slack
//                   [--eia-max-idle MS]   # expire learned EIA /24s idle
//                                         # longer than MS of flow time
//                                         # (src/lifecycle; 0 = off; needs
//                                         # the exact or cbloom backend)
//                   [--resize-shards N]   # live-resize the runtime to N
//                                         # shards halfway through the
//                                         # replay (requires --threads)
//                   [--threads N]         # 0 (default) = serial engine;
//                                         # N >= 1 = sharded runtime
//                   [--ingest-threads N]  # N >= 1 replays the capture over
//                                         # loopback UDP through the receiver-
//                                         # direct ingest pipeline (src/ingest):
//                                         # each receiver decodes inline and
//                                         # dispatches as its own runtime
//                                         # producer; implies --threads >= 1
//                   [--cpu-set LIST]      # pin pipeline threads, e.g. "0-3,8":
//                                         # receivers first, then shard
//                                         # workers, then the scan thread
//                   [--queue-depth 4096] [--backpressure block|drop]
//                   [--metrics-out FILE]  # metrics dump: JSON when FILE
//                                         # ends in .json, else Prometheus
//                   [--trace-out FILE]    # flight-recorder export: Chrome
//                                         # trace-event JSON (open in Perfetto)
//                   [--trace-sample N]    # trace 1 in N records (default 64;
//                                         # either --trace-* flag enables the
//                                         # recorder and the journey histograms)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "core/eia_io.h"
#include "core/engine.h"
#include "core/traceback.h"
#include "dagflow/allocation.h"
#include "flowtools/ascii.h"
#include "flowtools/capture.h"
#include "flowtools/udp.h"
#include "ingest/ingest.h"
#include "obs/export.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "runtime/affinity.h"
#include "runtime/runtime.h"
#include "util/args.h"

using namespace infilter;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "infilter-detect: %s\n", message.c_str());
  return 1;
}

util::Result<std::vector<flowtools::CapturedFlow>> load_flows(const std::string& path,
                                                              bool ascii) {
  if (ascii) {
    std::ifstream in(path);
    if (!in) return util::Error{"cannot open " + path};
    std::ostringstream text;
    text << in.rdbuf();
    return flowtools::import_ascii(text.str());
  }
  flowtools::FlowCapture capture;
  if (const auto loaded = capture.load(path); !loaded) return loaded.error();
  return capture.flows();
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"ascii", "idmef", "ttl-detect"});
  if (!parsed) return fail(parsed.error().message);
  const auto& args = *parsed;
  if (args.positional().size() != 1) return fail("exactly one capture FILE expected");

  const auto flows = load_flows(args.positional().front(), args.has("ascii"));
  if (!flows) return fail(flows.error().message);

  core::EngineConfig config;
  const auto mode = args.value_or("mode", "enhanced");
  if (mode == "basic") config.mode = core::EngineMode::kBasic;
  else if (mode != "enhanced") return fail("--mode must be basic or enhanced");
  // Validated numerics: a typo'd or out-of-range value must fail with a
  // message, not wrap into RuntimeConfig/EngineConfig and misbehave there.
  const auto bits = args.checked_int("bits", 144, 1, 1 << 20);
  if (!bits) return fail(bits.error().message);
  config.cluster.bits_per_feature = static_cast<int>(*bits);
  const auto buffer = args.checked_int("buffer", 200, 1, 1 << 24);
  if (!buffer) return fail(buffer.error().message);
  config.scan.buffer_size = static_cast<std::size_t>(*buffer);
  const auto learn = args.checked_int("learn", 5, 1, 1 << 20);
  if (!learn) return fail(learn.error().message);
  config.eia.learn_threshold = static_cast<int>(*learn);
  const auto backend = core::parse_eia_backend(args.value_or("eia-backend", "exact"));
  if (!backend) return fail(backend.error().message);
  config.eia.backend = *backend;
  const auto max_idle = args.checked_int("eia-max-idle", 0, 0,
                                         std::numeric_limits<std::int64_t>::max());
  if (!max_idle) return fail(max_idle.error().message);
  config.eia.lifecycle.max_idle_ms = static_cast<util::DurationMs>(*max_idle);
  if (config.eia.lifecycle.enabled() &&
      config.eia.backend.type == core::EiaBackendType::kBloom) {
    // The plain Bloom filter cannot remove a /24; it ages by sub-filter
    // rotation instead (core/eia_backend.h), so the flag is inert there.
    std::fprintf(stderr,
                 "infilter-detect: warning: --eia-max-idle has no effect on "
                 "the bloom backend (use exact or cbloom)\n");
  }
  config.use_hopcount = args.has("ttl-detect");
  const auto ttl_tolerance = args.checked_int("ttl-tolerance", 2, 0, 255);
  if (!ttl_tolerance) return fail(ttl_tolerance.error().message);
  config.hopcount.tolerance = static_cast<int>(*ttl_tolerance);
  const auto seed = args.checked_int("seed", 1, 0,
                                     std::numeric_limits<std::int64_t>::max());
  if (!seed) return fail(seed.error().message);
  config.seed = static_cast<std::uint64_t>(*seed);

  const auto threads_arg = args.checked_int("threads", 0, 0, 4096);
  if (!threads_arg) return fail(threads_arg.error().message);
  const auto ingest_arg = args.checked_int("ingest-threads", 0, 0, 4096);
  if (!ingest_arg) return fail(ingest_arg.error().message);
  const int ingest_threads = static_cast<int>(*ingest_arg);
  // Threaded ingest dispatches into a runtime; force at least one shard.
  const int threads = ingest_threads > 0 ? std::max(1, static_cast<int>(*threads_arg))
                                         : static_cast<int>(*threads_arg);
  const auto resize_arg = args.checked_int("resize-shards", 0, 0, 4096);
  if (!resize_arg) return fail(resize_arg.error().message);
  const int resize_shards = static_cast<int>(*resize_arg);
  if (resize_shards > 0 && threads == 0) {
    return fail("--resize-shards requires the sharded runtime (--threads >= 1)");
  }
  // Distinct arrival ports, in capture order: the ingest replay binds one
  // loopback socket per port, and the receiver count is capped by them.
  std::vector<core::IngressId> ingresses;
  if (ingest_threads > 0) {
    for (const auto& flow : *flows) {
      if (std::find(ingresses.begin(), ingresses.end(), flow.arrival_port) ==
          ingresses.end()) {
        ingresses.push_back(flow.arrival_port);
      }
    }
    if (ingresses.empty()) return fail("capture is empty");
  }
  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = threads;
  if (ingest_threads > 0) {
    // Receiver i dispatches as runtime producer i. Receivers take cpu
    // slots 0..R-1 of --cpu-set; workers and the scan thread follow.
    const auto receivers = std::max<std::size_t>(
        std::min<std::size_t>(static_cast<std::size_t>(ingest_threads),
                              ingresses.size()),
        1);
    runtime_config.producers = static_cast<int>(receivers);
    runtime_config.cpu_slot_offset = receivers;
  }
  const auto queue_depth = args.checked_int("queue-depth", 4096, 1, 1 << 24);
  if (!queue_depth) return fail(queue_depth.error().message);
  runtime_config.queue_depth = static_cast<std::size_t>(*queue_depth);
  const auto backpressure = args.value_or("backpressure", "block");
  if (backpressure == "drop") {
    runtime_config.backpressure = runtime::BackpressurePolicy::kDrop;
  } else if (backpressure != "block") {
    return fail("--backpressure must be block or drop");
  }
  runtime_config.engine = config;
  if (const auto cpu_set = args.value("cpu-set")) {
    std::string error;
    const auto cpus = runtime::parse_cpu_set(*cpu_set, &error);
    if (!cpus) return fail(error);
    runtime_config.cpu_set = *cpus;
  }

  // Flight recorder: either --trace-* flag turns it on. Declared before the
  // engine/runtime so it outlives them (lanes are retired, not destroyed).
  const auto trace_out = args.value("trace-out");
  const auto trace_sample = args.checked_int("trace-sample", 64, 1, 1 << 30);
  if (!trace_sample) return fail(trace_sample.error().message);
  std::optional<obs::Tracer> tracer;
  if (trace_out.has_value() || args.value("trace-sample").has_value()) {
    obs::TracerConfig trace_config;
    trace_config.sample_every = static_cast<std::uint64_t>(*trace_sample);
    trace_config.enabled = true;
    tracer.emplace(trace_config);
    runtime_config.tracer = &*tracer;
  }

  if (threads > 0 && args.value("dump-eia")) {
    // Auto-learned entries are spread over the shard tables; there is no
    // single EIA set to persist. Re-run serially to dump.
    return fail("--dump-eia requires the serial engine (--threads 0)");
  }

  alert::CollectingSink ui;
  core::TracebackEngine traceback(core::TracebackConfig{}, &ui);
  std::optional<core::InFilterEngine> engine;
  std::optional<runtime::ShardedRuntime> rt;
  // Filled by the ingest replay before the pipeline is torn down, so the
  // infilter_ingest_* counters survive into the metrics export below.
  std::optional<obs::RegistrySnapshot> ingest_snapshot;
  std::atomic<std::uint64_t> rt_suspects{0};
  std::atomic<std::uint64_t> rt_attacks{0};
  if (threads > 0) {
    rt.emplace(runtime_config, &traceback,
               [&](const runtime::FlowItem&, const core::Verdict& verdict) {
                 if (verdict.suspect)
                   rt_suspects.fetch_add(1, std::memory_order_relaxed);
                 if (verdict.attack)
                   rt_attacks.fetch_add(1, std::memory_order_relaxed);
               });
  } else {
    engine.emplace(config, &traceback);
  }
  std::uint64_t preloaded_slash24s = 0;
  const auto add_expected = [&](core::IngressId ingress, const net::Prefix& prefix) {
    preloaded_slash24s += ((prefix.last().value() & 0xFFFFFF00u) -
                           (prefix.first().value() & 0xFFFFFF00u)) / 0x100u + 1;
    if (rt) rt->add_expected(ingress, prefix);
    else engine->add_expected(ingress, prefix);
  };

  // EIA preloads: a text config if given, otherwise the Table 3 defaults.
  if (const auto eia_path = args.value("eia")) {
    std::ifstream in(*eia_path);
    if (!in) return fail("cannot open " + *eia_path);
    std::ostringstream text;
    text << in.rdbuf();
    const auto imported = core::import_eia(text.str());
    if (!imported) return fail(imported.error().message);
    if (imported->backend().type() != core::EiaBackendType::kExact) {
      // A probabilistic dump has no prefix list to replay into the
      // engine's (per-shard) tables; only exact-format files preload.
      return fail(*eia_path + " holds a probabilistic backend dump; "
                  "--eia wants an exact prefix-list file");
    }
    for (const auto ingress : imported->ingresses()) {
      for (const auto& prefix : imported->set_for(ingress)->to_cidrs()) {
        add_expected(ingress, prefix);
      }
    }
    std::printf("loaded EIA sets for %zu ingress points from %s\n",
                imported->ingress_count(), eia_path->c_str());
  } else {
    for (int s = 0; s < 10; ++s) {
      for (const auto& block : dagflow::eia_range(s).expand()) {
        add_expected(static_cast<core::IngressId>(9001 + s), block.prefix());
      }
    }
  }
  if (const double fill =
          core::predicted_fill_ratio(config.eia.backend, preloaded_slash24s);
      fill > 0.5) {
    // A saturated filter answers "expected" for everything -- detection
    // silently disappears. Warn, don't fail: the operator may be sizing
    // for learned traffic, not the preload.
    std::fprintf(stderr,
                 "infilter-detect: warning: --eia-backend budget will be ~%.0f%% "
                 "full after preloading %llu /24s; membership false positives "
                 "will suppress detection (size >= 8 bits per expected /24)\n",
                 100 * fill, static_cast<unsigned long long>(preloaded_slash24s));
  }

  if (config.mode == core::EngineMode::kEnhanced) {
    const auto train_path = args.value("train");
    if (!train_path.has_value()) {
      return fail("--train TRAIN_FILE is required in enhanced mode");
    }
    const auto training = load_flows(*train_path, args.has("ascii"));
    if (!training) return fail(training.error().message);
    std::vector<netflow::V5Record> records;
    records.reserve(training->size());
    for (const auto& flow : *training) records.push_back(flow.record);
    if (rt) rt->train(records);
    else engine->train(records);
    const auto& clusters = rt ? rt->shard_engine(0).clusters() : engine->clusters();
    std::printf("trained on %zu flows (d = %d)\n", records.size(),
                clusters->dimension());
  }

  std::uint64_t attacks = 0;
  std::uint64_t suspects = 0;
  if (rt && ingest_threads > 0) {
    // Loopback replay through the full live path: re-encode the capture
    // into v5 export datagrams, send them over UDP, and let the receiver
    // threads decode inline and dispatch straight into the runtime (each
    // receiver is its own producer slot -- no intermediate decode thread).
    // Ephemeral sockets stand in for the collector ports; ingress_ids pins
    // each socket's ingress identity to the capture's arrival port, so
    // verdicts are identical to the direct-submit path.
    ingest::IngestConfig ingest_config;
    ingest_config.ports.assign(ingresses.size(), 0);
    ingest_config.ingress_ids = ingresses;
    ingest_config.receiver_threads = ingest_threads;
    ingest_config.cpu_set = runtime_config.cpu_set;  // receivers: slots 0..R-1
    if (tracer) ingest_config.tracer = &*tracer;
    auto pipeline = ingest::IngestPipeline::create(ingest_config, *rt);
    if (!pipeline) return fail(pipeline.error().message);
    const auto bound = (*pipeline)->ports();
    auto sender = flowtools::UdpSender::create();
    if (!sender) return fail(sender.error().message);

    // Preserve per-port record order: walk the capture in runs of
    // consecutive same-port records (each at most one datagram's worth).
    std::vector<std::uint32_t> sequences(ingresses.size(), 0);
    std::vector<netflow::V5Record> run;
    std::uint64_t datagrams_sent = 0;
    bool resized = false;
    const auto in_flight = [&] {
      return datagrams_sent - (*pipeline)->stats().datagrams_received;
    };
    for (std::size_t at = 0; at < flows->size();) {
      if (!resized && resize_shards > 0 && at >= flows->size() / 2) {
        // The main thread is not a producer, so the exclusive-gate resize
        // simply stalls the receivers' dispatches for its duration.
        resized = rt->resize(resize_shards);
        if (resized) {
          std::printf("resized runtime to %d shard(s) mid-replay\n",
                      resize_shards);
        }
      }
      const auto port = (*flows)[at].arrival_port;
      run.clear();
      while (at < flows->size() && (*flows)[at].arrival_port == port &&
             run.size() < netflow::kV5MaxRecords) {
        run.push_back((*flows)[at].record);
        ++at;
      }
      const auto idx = static_cast<std::size_t>(
          std::find(ingresses.begin(), ingresses.end(), port) - ingresses.begin());
      for (const auto& datagram :
           netflow::encode_all(run, run.front().last, sequences[idx])) {
        if (const auto ok = sender->send(bound[idx], datagram); !ok) {
          return fail(ok.error().message);
        }
        ++datagrams_sent;
      }
      // Loopback UDP still drops when the sender outruns the kernel
      // queues; a small in-flight window keeps the replay lossless.
      while (in_flight() > 256) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    // Wait for full delivery, bailing out only if reception stalls.
    std::uint64_t last_received = 0;
    for (int stalled_ms = 0; in_flight() > 0 && stalled_ms < 2000;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const auto received = (*pipeline)->stats().datagrams_received;
      stalled_ms = received == last_received ? stalled_ms + 1 : 0;
      last_received = received;
    }
    (*pipeline)->stop();  // phase 1: decode + dispatch everything accepted
    rt->shutdown();       // phase 2: drain the shards and join
    ingest_snapshot = (*pipeline)->snapshot();
    const auto ingest_stats = (*pipeline)->stats();
    std::printf(
        "ingest: %llu/%llu datagrams over %zu socket(s), %llu records "
        "dispatched (%llu kernel drops, %llu sequence gaps)\n",
        static_cast<unsigned long long>(ingest_stats.datagrams_received),
        static_cast<unsigned long long>(datagrams_sent), bound.size(),
        static_cast<unsigned long long>(ingest_stats.records_dispatched),
        static_cast<unsigned long long>(ingest_stats.kernel_drops),
        static_cast<unsigned long long>(ingest_stats.sequence_gaps));
    suspects = rt_suspects.load(std::memory_order_relaxed);
    attacks = rt_attacks.load(std::memory_order_relaxed);
  } else if (rt) {
    // Replay in fixed-size batches, tagging each flow with its 1-based
    // index (the journey id in the trace export). A batch never straddles
    // resize_at, so the resize lands after exactly that many flows.
    constexpr std::size_t kSubmitBatch = 256;
    const std::size_t resize_at =
        resize_shards > 0 ? flows->size() / 2 : flows->size() + 1;
    std::vector<runtime::FlowItem> batch;
    for (std::size_t at = 0; at < flows->size();) {
      if (at == resize_at && rt->resize(resize_shards)) {
        std::printf("resized runtime to %d shard(s) mid-replay\n",
                    resize_shards);
      }
      std::size_t end = std::min(at + kSubmitBatch, flows->size());
      if (at < resize_at) end = std::min(end, resize_at);
      batch.clear();
      for (; at < end; ++at) {
        const auto& flow = (*flows)[at];
        batch.push_back(runtime::FlowItem{flow.record, flow.arrival_port,
                                          flow.record.last, at + 1});
      }
      rt->submit_batch(batch);
    }
    // Drain and join: every counter and the merged snapshot become final.
    rt->shutdown();
    suspects = rt_suspects.load(std::memory_order_relaxed);
    attacks = rt_attacks.load(std::memory_order_relaxed);
  } else {
    // Serial engine: one logical pipeline thread. A sampled flow's whole
    // journey is a single `serial` span.
    obs::ThreadLane* lane =
        tracer ? tracer->register_thread("main", "serial") : nullptr;
    std::uint64_t seq = 0;
    for (const auto& flow : *flows) {
      core::Verdict verdict;
      ++seq;
      if (lane != nullptr && tracer->sampled(seq)) {
        const auto t0 = obs::Tracer::now_ns();
        verdict = engine->process(flow.record, flow.arrival_port, flow.record.last);
        const auto t1 = obs::Tracer::now_ns();
        lane->emit(obs::SpanKind::kSerial, t0, t1 - t0, seq);
        tracer->e2e_us->observe(static_cast<double>(t1 - t0) / 1000.0);
      } else {
        verdict = engine->process(flow.record, flow.arrival_port, flow.record.last);
      }
      suspects += verdict.suspect ? 1 : 0;
      attacks += verdict.attack ? 1 : 0;
    }
    if (lane != nullptr) {
      lane->heartbeat(flows->size());
      lane->retire();
    }
  }

  std::printf("%zu flows analyzed: %llu suspects, %llu flagged as attacks\n",
              flows->size(), static_cast<unsigned long long>(suspects),
              static_cast<unsigned long long>(attacks));
  {
    auto snapshot = rt ? rt->snapshot() : engine->registry().snapshot();
    if (ingest_snapshot) {
      snapshot = obs::merge_snapshots({snapshot, *ingest_snapshot});
    }
    // Process-level self-metrics (RSS, CPU time, uptime, thread count) ride
    // along with every export; the flight recorder contributes its journey
    // histograms and liveness gauges when enabled.
    obs::Registry process_registry;
    obs::register_process_metrics(process_registry);
    std::vector<obs::RegistrySnapshot> parts{std::move(snapshot),
                                             process_registry.snapshot()};
    if (tracer) parts.push_back(tracer->snapshot());
    snapshot = obs::merge_snapshots(parts);
    if (rt) {
      std::printf(
          "runtime: %d shard(s), %.0f dispatched batches, %.0f dropped, "
          "%.0f backpressure waits\n",
          threads, snapshot.value("infilter_runtime_batches_total"),
          snapshot.value("infilter_runtime_dropped_total"),
          snapshot.value("infilter_runtime_backpressure_waits_total"));
    }
    if (const double resizes =
            snapshot.value("infilter_lifecycle_resizes_total");
        config.eia.lifecycle.enabled() || resizes > 0) {
      std::printf(
          "lifecycle: %.0f entries expired, %.0f relearned, %.0f resize(s), "
          "%.0f entries migrated\n",
          snapshot.value("infilter_lifecycle_entries_expired_total"),
          snapshot.value("infilter_lifecycle_entries_relearned_total"), resizes,
          snapshot.value("infilter_lifecycle_migrated_entries_total"));
    }
    const auto* latency = snapshot.histogram("infilter_process_latency_us");
    if (latency != nullptr && latency->count > 0) {
      std::printf("per-flow latency: p50 %.2fus p95 %.2fus p99 %.2fus\n",
                  latency->quantile(0.50), latency->quantile(0.95),
                  latency->quantile(0.99));
    }
    if (const auto metrics_path = args.value("metrics-out")) {
      std::ofstream out(*metrics_path, std::ios::trunc);
      if (!out) return fail("cannot open " + *metrics_path);
      const bool json = metrics_path->size() >= 5 &&
                        metrics_path->rfind(".json") == metrics_path->size() - 5;
      out << (json ? obs::to_json(snapshot) : obs::to_prometheus(snapshot));
      if (!out) return fail("cannot write metrics to " + *metrics_path);
      std::printf("wrote metrics to %s\n", metrics_path->c_str());
    }
    if (tracer) {
      const auto* e2e = snapshot.histogram("infilter_e2e_latency_us");
      if (e2e != nullptr && e2e->count > 0) {
        std::printf(
            "trace: %llu journeys sampled (1 in %llu), e2e p50 %.2fus "
            "p99 %.2fus p99.9 %.2fus; %llu span events (%llu dropped)\n",
            static_cast<unsigned long long>(e2e->count),
            static_cast<unsigned long long>(tracer->sample_every()),
            e2e->quantile(0.50), e2e->quantile(0.99), e2e->quantile(0.999),
            static_cast<unsigned long long>(tracer->events_emitted()),
            static_cast<unsigned long long>(tracer->events_dropped()));
      }
    }
  }
  if (tracer && trace_out.has_value()) {
    std::ofstream out(*trace_out, std::ios::trunc);
    if (!out) return fail("cannot open " + *trace_out);
    out << tracer->chrome_trace_json();
    if (!out) return fail("cannot write trace to " + *trace_out);
    std::printf("wrote Chrome trace-event JSON to %s (open in ui.perfetto.dev)\n",
                trace_out->c_str());
  }
  std::fputs(traceback.report().c_str(), stdout);

  if (args.has("idmef")) {
    for (const auto& alert : ui.alerts()) {
      std::fputs(alert.to_idmef_xml().c_str(), stdout);
    }
  }

  // Persist the post-run EIA sets (including anything auto-learned).
  if (const auto dump_path = args.value("dump-eia")) {
    std::ofstream out(*dump_path);
    if (!out) return fail("cannot open " + *dump_path);
    out << core::export_eia(engine->eia());
    std::printf("wrote EIA sets to %s\n", dump_path->c_str());
  }
  return 0;
}
