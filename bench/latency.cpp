// Reproduces the Section 6.4 latency measurements with google-benchmark:
//
//   paper: "Processing latencies for the Basic InFilter were usually
//   around 0.5 msec on average. For the Enhanced InFilter, these latencies
//   varied between 2 and 6 msecs. The additional latency is attributable
//   to the NNS search overhead."
//
// Absolute numbers on modern hardware are far smaller than the 2005
// prototype's; the *shape* to reproduce is Enhanced >> Basic, with the gap
// attributable to the NNS stage (see the *_nns_search benchmarks).
//
// Besides the google-benchmark microbenchmarks, the binary replays a mixed
// expected/suspect workload through each engine mode and writes
// BENCH_latency.json: flows/sec plus p50/p95/p99 of the per-flow and
// per-stage wall-time histograms the obs layer records.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "alert/idmef.h"
#include "core/engine.h"
#include "dagflow/dagflow.h"
#include "obs/export.h"
#include "traffic/normal.h"

using namespace infilter;

namespace {

std::vector<netflow::V5Record> make_training(std::size_t count) {
  traffic::NormalTrafficModel model;
  util::Rng rng{42};
  const auto trace = model.generate(count, 0, rng);
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), 1);
  std::vector<netflow::V5Record> records;
  for (const auto& labeled : replayer.replay(trace)) records.push_back(labeled.record);
  return records;
}

std::unique_ptr<core::InFilterEngine> make_engine(
    core::EngineMode mode, const std::vector<netflow::V5Record>& training) {
  core::EngineConfig config;
  config.mode = mode;
  config.seed = 7;
  // Disable EIA auto-learning: a benchmark loop replaying suspects from
  // one address range would otherwise teach the EIA set and silently
  // switch every iteration onto the fast path.
  config.eia.learn_threshold = 1 << 30;
  // unique_ptr: the engine is immovable (its registry callbacks bind to
  // its address).
  auto engine = std::make_unique<core::InFilterEngine>(config);
  for (int s = 0; s < 10; ++s) {
    for (const auto& block : dagflow::eia_range(s).expand()) {
      engine->add_expected(static_cast<core::IngressId>(9001 + s), block.prefix());
    }
  }
  if (mode == core::EngineMode::kEnhanced) engine->train(training);
  return engine;
}

netflow::V5Record expected_flow() {
  netflow::V5Record r;
  r.src_ip = *net::IPv4Address::parse("3.1.2.3");  // in AS1's EIA set
  r.dst_ip = *net::IPv4Address::parse("100.64.0.1");
  r.proto = 6;
  r.src_port = 40000;
  r.dst_port = 80;
  r.packets = 25;
  r.bytes = 20000;
  r.first = 0;
  r.last = 900;
  return r;
}

netflow::V5Record suspect_flow(std::uint32_t salt) {
  auto r = expected_flow();
  // Source from AS9's range arriving at AS1: always a suspect.
  r.src_ip = net::IPv4Address{(204u << 24) | (salt % (1u << 21))};
  r.src_port = static_cast<std::uint16_t>(1024 + salt % 60000);
  return r;
}

// The fast path every in-EIA flow takes, both configurations.
void BM_expected_flow(benchmark::State& state, core::EngineMode mode) {
  static const auto training = make_training(2000);
  auto engine = make_engine(mode, training);
  const auto flow = expected_flow();
  util::TimeMs now = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->process(flow, 9001, now++));
  }
}
BENCHMARK_CAPTURE(BM_expected_flow, basic, core::EngineMode::kBasic);
BENCHMARK_CAPTURE(BM_expected_flow, enhanced, core::EngineMode::kEnhanced);

// The paper's latency comparison: a *suspect* flow through each pipeline.
void BM_suspect_flow(benchmark::State& state, core::EngineMode mode) {
  static const auto training = make_training(2000);
  auto engine = make_engine(mode, training);
  util::TimeMs now = 1000;
  std::uint32_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->process(suspect_flow(salt++), 9001, now++));
  }
}
BENCHMARK_CAPTURE(BM_suspect_flow, basic_eia_only, core::EngineMode::kBasic);
BENCHMARK_CAPTURE(BM_suspect_flow, enhanced_full_pipeline, core::EngineMode::kEnhanced);

// The NNS search alone, at the paper's parameters (d=720, M1=1, M2=12,
// M3=3) -- the component the paper blames for the 2-6 ms Enhanced latency.
const core::TrainedClusters& clusters_for(std::size_t training_size) {
  static std::map<std::size_t, std::unique_ptr<core::TrainedClusters>> cache;
  auto& slot = cache[training_size];
  if (!slot) {
    slot = std::make_unique<core::TrainedClusters>(make_training(training_size),
                                                   core::ClusterConfig{}, 9);
  }
  return *slot;
}

void BM_nns_search(benchmark::State& state) {
  const auto& clusters = clusters_for(static_cast<std::size_t>(state.range(0)));
  util::Rng rng{11};
  std::uint32_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusters.assess(suspect_flow(salt++), rng));
  }
}
BENCHMARK(BM_nns_search)->Arg(500)->Arg(2000);

// Unary encoding alone.
void BM_unary_encode(benchmark::State& state) {
  const auto encoder = core::make_flow_encoder(144);
  const auto flow = expected_flow();
  const auto stats = flowtools::FlowStats::from_record(flow).as_array();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(stats));
  }
}
BENCHMARK(BM_unary_encode);

// EIA lookup alone (the Basic InFilter inner loop).
void BM_eia_lookup(benchmark::State& state) {
  core::EiaTable table;
  for (int s = 0; s < 10; ++s) {
    for (const auto& block : dagflow::eia_range(s).expand()) {
      table.add_expected(static_cast<core::IngressId>(9001 + s), block.prefix());
    }
  }
  const auto address = *net::IPv4Address::parse("3.1.2.3");
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.is_expected(9001, address));
  }
}
BENCHMARK(BM_eia_lookup);

// IDMEF serialization alone: the per-alert cost of Section 5.1.4's alert
// stream, on an NNS-stage alert that writes every optional element.
void BM_idmef_serialize(benchmark::State& state) {
  alert::Alert a;
  a.id = 19600;
  a.create_time = 123456789;
  a.stage = alert::DetectionStage::kNnsDistance;
  a.source_ip = *net::IPv4Address::parse("203.0.113.254");
  a.target_ip = *net::IPv4Address::parse("198.51.100.17");
  a.target_port = 1434;
  a.proto = 17;
  a.ingress_port = 9001;
  a.expected_ingress = 9004;
  a.nns_distance = 155;
  a.nns_threshold = 130;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.to_idmef_xml());
  }
}
BENCHMARK(BM_idmef_serialize);

// -- BENCH_latency.json: histogram-backed quantile measurement --

/// One JSON block for a histogram: count plus p50/p95/p99/mean, all in
/// microseconds.
std::string quantile_json(const obs::HistogramSnapshot& h) {
  std::string out = "{\"count\": " + obs::format_number(static_cast<double>(h.count));
  out += ", \"p50_us\": " + obs::format_number(h.quantile(0.50));
  out += ", \"p95_us\": " + obs::format_number(h.quantile(0.95));
  out += ", \"p99_us\": " + obs::format_number(h.quantile(0.99));
  out += ", \"mean_us\": " + obs::format_number(h.mean());
  out += "}";
  return out;
}

/// Replays a mixed workload (3 expected : 1 suspect, the suspect sources
/// rotating so scan analysis stays busy) through a fresh engine and
/// serializes the obs histograms for that mode.
std::string measure_mode(core::EngineMode mode, const char* name,
                         const std::vector<netflow::V5Record>& training) {
  constexpr std::size_t kFlows = 40000;
  auto engine = make_engine(mode, training);
  const auto expected = expected_flow();
  util::TimeMs now = 1000;
  for (std::size_t i = 0; i < kFlows; ++i) {
    if (i % 4 == 3) {
      engine->process(suspect_flow(static_cast<std::uint32_t>(i)), 9001, now++);
    } else {
      engine->process(expected, 9001, now++);
    }
  }

  const auto snapshot = engine->registry().snapshot();
  const auto* process = snapshot.histogram("infilter_process_latency_us");
  const double busy_us = process != nullptr ? process->sum : 0.0;
  const double flows_per_sec =
      busy_us > 0.0 ? static_cast<double>(kFlows) / busy_us * 1e6 : 0.0;

  std::string out = "    {\"mode\": \"" + std::string(name) + "\"";
  out += ", \"flows\": " + obs::format_number(static_cast<double>(kFlows));
  out += ", \"flows_per_sec\": " + obs::format_number(flows_per_sec);
  if (process != nullptr) out += ",\n     \"process\": " + quantile_json(*process);
  const std::pair<const char*, const char*> stages[] = {
      {"eia", "infilter_stage_eia_latency_us"},
      {"scan", "infilter_stage_scan_latency_us"},
      {"nns", "infilter_stage_nns_latency_us"},
  };
  for (const auto& [label, metric] : stages) {
    const auto* h = snapshot.histogram(metric);
    if (h != nullptr && h->count > 0) {
      out += ",\n     \"stage_" + std::string(label) + "\": " + quantile_json(*h);
    }
  }
  out += "}";
  return out;
}

bool write_bench_json(const std::string& path) {
  static const auto training = make_training(2000);
  std::string doc = "{\n  \"bench\": \"latency\",\n  \"modes\": [\n";
  doc += measure_mode(core::EngineMode::kBasic, "basic", training);
  doc += ",\n";
  doc += measure_mode(core::EngineMode::kEnhanced, "enhanced", training);
  doc += "\n  ]\n}\n";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << doc;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* out_path = "BENCH_latency.json";
  if (!write_bench_json(out_path)) {
    std::fprintf(stderr, "latency: cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
