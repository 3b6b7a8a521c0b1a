// The serial split-pipeline reference and per-layer timer.
//
// One EIA-stage engine runs pre_process_batch over every flow and one
// scan-stage engine runs finish_suspect_batch over the suspects, on one
// thread, in the realized dispatch order -- the sharded runtime's own
// split, minus the threads. Its verdicts and IDMEF alert stream are what
// every run of the system under test is checked against. With a span log
// the same replay times each layer call, and isolated passes over the
// post-run state time the sub-layers (EIA lookup, hop-count classify,
// scan, NNS, v5 decode).

#include <algorithm>

#include "bench.h"
#include "netflow/v5.h"

namespace perfbench {
namespace {

constexpr const char* kLane = "serial";
constexpr const char* kLayerLane = "layers";
/// Passes of the (fast) isolated decode layer, for a measurable span.
constexpr int kDecodePasses = 5;

double per(std::uint64_t ns, std::uint64_t count) {
  return count == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(count);
}

/// Isolated sub-layer passes over the post-replay state; each pass is one
/// root span on the "layers" lane.
void time_layers(const Inputs& inputs, std::span<const core::FlowInput> flows,
                 const core::InFilterEngine& eia_stage,
                 const core::InFilterEngine& scan_stage,
                 std::span<const netflow::V5Record> suspects,
                 std::span<const netflow::V5Record> nns_queries, SpanLog& spans,
                 LayerTimings& layers) {
  const auto timed = [&](const char* name, auto&& body) {
    const std::uint64_t start = now_ns();
    {
      ScopedSpan span(&spans, kLayerLane, name);
      body();
    }
    return now_ns() - start;
  };

  std::uint64_t sink = 0;
  const auto& table = eia_stage.eia();
  layers.eia_lookup_ns_per_flow =
      per(timed("core.eia.lookup",
                [&] {
                  for (const auto& flow : flows) {
                    sink += table.is_expected(flow.ingress, flow.record.src_ip) ? 1 : 0;
                  }
                }),
          flows.size());

  const auto& hops = eia_stage.hopcount_table();
  layers.hopcount_classify_ns_per_flow =
      per(timed("hopcount.classify",
                [&] {
                  for (const auto& flow : flows) {
                    sink += static_cast<std::uint64_t>(hops.classify(
                        flow.ingress, flow.record.src_ip, flow.record.ttl, flow.now));
                  }
                }),
          flows.size());

  core::ScanAnalysis scan(inputs.engine.scan);
  layers.scan_observe_ns_per_suspect =
      per(timed("core.scan.observe",
                [&] {
                  for (const auto& record : suspects) {
                    sink += static_cast<std::uint64_t>(scan.observe(record));
                  }
                }),
          suspects.size());

  if (const auto* clusters = scan_stage.clusters();
      clusters != nullptr && !nns_queries.empty()) {
    std::vector<util::Rng> rngs;
    rngs.reserve(nns_queries.size());
    for (std::size_t i = 0; i < nns_queries.size(); ++i) rngs.emplace_back(inputs.seed ^ i);
    std::vector<core::TrainedClusters::Assessment> out(nns_queries.size());
    core::TrainedClusters::BatchScratch scratch;
    layers.nns_assess_ns_per_query =
        per(timed("nns.assess_batch",
                  [&] {
                    for (std::size_t begin = 0; begin < nns_queries.size();
                         begin += kSubmitBatch) {
                      const std::size_t n =
                          std::min(kSubmitBatch, nns_queries.size() - begin);
                      clusters->assess_batch(nns_queries.subspan(begin, n),
                                             std::span(rngs).subspan(begin, n),
                                             std::span(out).subspan(begin, n), scratch);
                    }
                  }),
            nns_queries.size());
    for (const auto& a : out) sink += a.anomalous ? 1 : 0;
  }

  std::vector<netflow::V5Record> records(netflow::kV5MaxRecords);
  std::uint64_t decoded = 0;
  const std::uint64_t decode_ns = timed("netflow.decode_into", [&] {
    for (int pass = 0; pass < kDecodePasses; ++pass) {
      for (const auto& datagram : inputs.datagrams) {
        netflow::V5Header header;
        std::size_t count = 0;
        if (netflow::decode_into(datagram.bytes, header, records, count) ==
            netflow::DecodeStatus::kOk) {
          decoded += count;
          sink += records[0].src_ip.value();
        }
      }
    }
  });
  layers.decode_ns_per_record = per(decode_ns, decoded);
  // Keeps the timed loops observable to the optimizer.
  if (sink == 0x5eed) std::fputs("", stderr);
}

}  // namespace

Reference run_reference(const Inputs& inputs, std::span<const core::FlowInput> flows,
                        SpanLog* spans) {
  Reference ref;
  ref.codes.assign(flows.size(), 0);
  DigestSink sink(spans, kLane);
  // Legal flows never alert, so the EIA stage needs no sink (as in the
  // runtime, where only the scan-stage engine emits).
  core::InFilterEngine eia_stage(inputs.engine);
  core::InFilterEngine scan_stage(inputs.engine, &sink);
  for (const auto& [ingress, prefix] : inputs.preloads) {
    eia_stage.add_expected(ingress, prefix);
  }
  scan_stage.train(inputs.training);

  std::vector<core::Verdict> out(kSubmitBatch);
  std::vector<core::SuspectFlow> suspects;
  std::vector<std::uint32_t> positions;
  std::vector<core::Verdict> suspect_out;
  // Kept for the isolated layer passes.
  std::vector<netflow::V5Record> suspect_records;
  std::vector<netflow::V5Record> nns_records;

  const std::uint64_t start = now_ns();
  {
    ScopedSpan root(spans, kLane, "serial.replay");
    for (std::size_t begin = 0; begin < flows.size(); begin += kSubmitBatch) {
      const std::size_t n = std::min(kSubmitBatch, flows.size() - begin);
      const auto batch_id = static_cast<std::uint32_t>(begin / kSubmitBatch);
      const auto batch = flows.subspan(begin, n);
      suspects.clear();
      positions.clear();
      {
        ScopedSpan span(spans, kLane, "core.pre_process_batch", batch_id);
        eia_stage.pre_process_batch(batch, std::span(out).first(n), suspects, positions);
      }
      if (!suspects.empty()) {
        if (suspect_out.size() < suspects.size()) suspect_out.resize(suspects.size());
        ScopedSpan span(spans, kLane, "core.finish_suspect_batch", batch_id);
        scan_stage.finish_suspect_batch(suspects,
                                        std::span(suspect_out).first(suspects.size()));
      }
      ScopedSpan span(spans, kLane, "bench.verdicts", batch_id);
      for (std::size_t j = 0; j < suspects.size(); ++j) {
        out[positions[j]] = suspect_out[j];
        if (spans != nullptr) {
          suspect_records.push_back(suspects[j].record);
          if (suspect_out[j].nns.has_value()) nns_records.push_back(suspects[j].record);
        }
      }
      ref.suspects += suspects.size();
      for (std::size_t i = 0; i < n; ++i) ref.codes[begin + i] = verdict_code(out[i]);
    }
  }
  const std::uint64_t wall_ns = now_ns() - start;

  ref.alert_digest = sink.digest();
  ref.alerts = sink.alerts();
  ref.alert_bytes = sink.bytes();
  ref.eia_ranges = eia_stage.eia().total_ranges();
  ref.eia_bytes = eia_stage.eia().memory_bytes();
  if (spans == nullptr) return ref;

  const auto totals = spans->totals();
  const auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanLog::Totals{} : it->second;
  };
  auto& layers = ref.layers;
  layers.replay_wall_ms = static_cast<double>(wall_ns) / 1e6;
  layers.pre_process_ns_per_flow = per(self("core.pre_process_batch").self_ns, flows.size());
  layers.finish_ns_per_suspect = per(self("core.finish_suspect_batch").self_ns, ref.suspects);
  layers.serialize_ns_per_alert = per(self("alert.serialize").self_ns, ref.alerts);
  const auto root = self("serial.replay");
  layers.unexplained_fraction =
      root.total_ns == 0 ? 0.0
                         : static_cast<double>(root.self_ns) / static_cast<double>(root.total_ns);
  time_layers(inputs, flows, eia_stage, scan_stage, suspect_records, nns_records, *spans,
              layers);
  return ref;
}

}  // namespace perfbench
