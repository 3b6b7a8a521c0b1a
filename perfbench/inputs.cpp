// Workload inputs, generated from --seed before any timing starts.
//
// All four workloads run one engine configuration: enhanced mode (EIA ->
// scan -> NNS), the exact EIA backend and TTL hop-count fusion. Only the
// traffic differs, plus exact-EIA aging in route_churn.

#include <algorithm>
#include <cassert>

#include "bench.h"
#include "dagflow/allocation.h"
#include "dagflow/dagflow.h"
#include "traffic/normal.h"

namespace perfbench {
namespace {

/// route_churn: idle limit of learned EIA entries, in flow-carried virtual
/// time. The stream spans ~500 s of virtual time and moves 10% of every
/// source's blocks at each of 4 allocation changes; a 20 s limit lets
/// learned /24s expire between visits and relearn within the run.
constexpr util::DurationMs kChurnMaxIdleMs = 20 * 1000;

/// live_ingest offered rate, records/s: about half the saturated rate of
/// the 1-receiver -> 1-shard pipeline (~1.6M records/s, where the backlog
/// starts to grow, on a 4-core x86-64 host), so the kernel drops nothing.
constexpr double kLiveOfferedRate = 800'000;

/// Internet-scale background for route_churn: every other /24 of
/// sub-blocks 126a..143h (which no testbed flow uses), dealt round-robin
/// to the peers. Alternate /24s never merge, so each peer's exact EIA set
/// holds ~59k ranges that every learn insert has to shift.
void add_background(const sim::ExperimentConfig& config, Inputs& inputs) {
  const int first = net::SubBlock::parse("126a")->index();
  const int last = net::SubBlock::parse("143h")->index();
  std::size_t dealt = 0;
  for (int b = first; b <= last; ++b) {
    const net::Prefix block = net::SubBlock{b}.prefix();
    const std::uint32_t base = block.address().value();
    const std::uint32_t slash24s = 1u << (24 - block.length());
    for (std::uint32_t k = 0; k < slash24s; k += 2) {
      const auto peer = static_cast<int>(dealt++ % static_cast<std::size_t>(config.sources));
      inputs.preloads.emplace_back(
          static_cast<core::IngressId>(config.first_port + peer),
          net::Prefix{net::IPv4Address{base + (k << 8)}, 24});
    }
  }
  inputs.background_preloads = dealt;
}

/// The NNS training traffic of sim::train_clusters, as records: a single
/// Dagflow replaying a normal trace over every used sub-block.
std::vector<netflow::V5Record> training_records(const sim::ExperimentConfig& config) {
  util::Rng rng{config.seed ^ 0x7e51a11ULL};
  traffic::NormalTrafficModel model;
  const traffic::Trace trace = model.generate(config.training_flows, 0, rng);
  std::vector<net::SubBlock> blocks;
  for (int s = 0; s < config.sources; ++s) {
    const auto range = dagflow::eia_range(s, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) blocks.emplace_back(b);
  }
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{.netflow_port = 8999,
                             .sampling_interval = config.netflow_sampling},
      dagflow::AddressPool::from_subblocks(blocks), config.seed ^ 0xdaf1ULL);
  std::vector<netflow::V5Record> records;
  for (const auto& flow : replayer.replay(trace)) records.push_back(flow.record);
  return records;
}

/// Export datagrams in stream order: one exporter per peer buffers its
/// records and exports a full v5 datagram (30 records) as soon as it has
/// one; partial datagrams flush at the end. Due times follow the offered
/// rate: a datagram is due when its first record is.
void make_datagrams(const sim::ExperimentConfig& config, Inputs& inputs) {
  std::vector<dagflow::Dagflow> exporters;
  exporters.reserve(static_cast<std::size_t>(config.sources));
  for (int s = 0; s < config.sources; ++s) {
    exporters.emplace_back(
        dagflow::DagflowConfig{
            .netflow_port = static_cast<std::uint16_t>(config.first_port + s)},
        dagflow::AddressPool{}, config.seed ^ (0xe4907ULL + static_cast<std::uint64_t>(s)));
  }
  std::vector<std::vector<std::uint32_t>> pending(static_cast<std::size_t>(config.sources));
  std::uint64_t records_before = 0;
  const auto export_peer = [&](std::size_t peer) {
    auto& flows = pending[peer];
    if (flows.empty()) return;
    std::vector<dagflow::LabeledFlow> chunk;
    chunk.reserve(flows.size());
    for (const auto i : flows) chunk.push_back(inputs.stream.flows[i]);
    auto encoded = exporters[peer].export_datagrams(chunk, chunk.back().record.last);
    assert(encoded.size() == 1);
    Datagram datagram;
    datagram.peer = static_cast<std::uint16_t>(peer);
    datagram.bytes = std::move(encoded.front());
    datagram.flows = std::move(flows);
    datagram.due_ns =
        inputs.offered_rate > 0
            ? static_cast<std::uint64_t>(static_cast<double>(records_before) * 1e9 /
                                         inputs.offered_rate)
            : 0;
    records_before += datagram.flows.size();
    inputs.datagrams.push_back(std::move(datagram));
    flows.clear();
  };
  for (std::uint32_t i = 0; i < inputs.stream.flows.size(); ++i) {
    const auto peer =
        static_cast<std::size_t>(inputs.stream.flows[i].arrival_port - config.first_port);
    pending[peer].push_back(i);
    if (pending[peer].size() == netflow::kV5MaxRecords) export_peer(peer);
  }
  for (std::size_t peer = 0; peer < pending.size(); ++peer) export_peer(peer);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "peacetime") return Workload::kPeacetime;
  if (name == "route_churn") return Workload::kRouteChurn;
  if (name == "ddos_stress") return Workload::kDdosStress;
  if (name == "live_ingest") return Workload::kLiveIngest;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPeacetime: return "peacetime";
    case Workload::kRouteChurn: return "route_churn";
    case Workload::kDdosStress: return "ddos_stress";
    case Workload::kLiveIngest: return "live_ingest";
  }
  return "?";
}

int experiments_per_run(Workload workload) {
  return workload == Workload::kDdosStress ? 8 : 1;
}

std::uint64_t experiment_seed(std::uint64_t seed, int experiment) {
  if (experiment == 0) return seed;
  // splitmix64 finalizer over (seed, experiment).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(experiment);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Inputs make_inputs(Workload workload, std::uint64_t seed, int experiment) {
  Inputs inputs;
  inputs.workload = workload;
  inputs.seed = experiment_seed(seed, experiment);
  inputs.experiment_index = experiment;

  // Section 6 testbed: 10 peers, Table 3 EIA, 1.5% ingress drift, 2%
  // attack volume at one ingress, the TTL scenario stamping hop counts.
  sim::ExperimentConfig config;
  config.seed = inputs.seed;
  config.ttl_scenario = true;
  config.engine.mode = core::EngineMode::kEnhanced;
  config.engine.eia.backend.type = core::EiaBackendType::kExact;
  config.engine.use_hopcount = true;
  switch (workload) {
    case Workload::kPeacetime:
    case Workload::kLiveIngest:
      break;
    case Workload::kRouteChurn:
      // Section 6.3.3: 10% of each source's blocks donated, 4 allocations.
      config.route_change_blocks = 10;
      config.allocations = 4;
      config.engine.eia.lifecycle.max_idle_ms = kChurnMaxIdleMs;
      break;
    case Workload::kDdosStress:
      // Section 6.3.2: synchronized attack sets at every ingress, 8%.
      config.attack_volume = 0.08;
      config.attacked_ingresses = config.sources;
      config.synchronized_attack_sets = true;
      break;
  }
  inputs.experiment = config;
  inputs.engine = config.engine;
  // The testbed's engine seed derivation (sim::run_experiment).
  inputs.engine.seed = config.seed ^ 0xe191eULL;

  inputs.stream = sim::generate_stream(config);
  inputs.training = training_records(config);
  for (int s = 0; s < config.sources; ++s) {
    const auto port = static_cast<core::IngressId>(config.first_port + s);
    const auto range = dagflow::eia_range(s, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      inputs.preloads.emplace_back(port, net::SubBlock{b}.prefix());
    }
  }
  if (workload == Workload::kRouteChurn) add_background(config, inputs);
  if (workload == Workload::kLiveIngest) inputs.offered_rate = kLiveOfferedRate;
  make_datagrams(config, inputs);
  return inputs;
}

std::vector<core::FlowInput> stream_flows(const Inputs& inputs) {
  std::vector<core::FlowInput> flows;
  flows.reserve(inputs.stream.flows.size());
  for (const auto& flow : inputs.stream.flows) {
    flows.push_back(core::FlowInput{flow.record, flow.arrival_port,
                                    static_cast<util::TimeMs>(flow.record.last)});
  }
  return flows;
}

}  // namespace perfbench
