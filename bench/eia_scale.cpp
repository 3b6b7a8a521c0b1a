// EIA backend scale sweep: exact interval sets vs the memory-bounded Bloom
// backend (core/eia_backend.h), at 10^5 / 10^6 / 10^7 learned /24s.
//
// Two sections, both regression gates (exit 1 on violation), not just
// number printers:
//
//  1. Scale sweep. One ingress learns a deterministic pseudo-random subset
//     of the /24 space at each target scale, once per backend. We record
//     memory_bytes(), lookup ns/flow over a fixed probe stream, and the
//     Bloom false-positive ratio measured against the exact backend's
//     ground-truth answers on the same probes. Gates (at scales up to
//     10^6, where the acceptance bound applies): Bloom memory <= 10% of
//     exact, Bloom lookup <= 1.25x exact (the committed full run shows
//     <= 1.0x; the in-binary gate leaves headroom for noisy CI machines),
//     measured FP within the stated ~4-bits-per-key budget (<= 15%).
//
//  2. Testbed quality. The Table-3 testbed runs twice on the same seed --
//     field-identical flow streams -- once per backend, with the Bloom
//     budget sized for the ~8.2M /24s the Table-3 preloads expand to.
//     Gates: Bloom detects at least every instance exact detects, and the
//     benign false-suspect rate moves by at most the documented budget
//     (+1% absolute). The bloom run's
//     infilter_eia_bloom_false_suspects_total metric (ground-truth-labeled
//     benign suspects; engine.h) is reported alongside the exact run's
//     benign-suspect count, so the Bloom-attributable share is one
//     subtraction away.
//
// Usage:
//   eia_scale [--smoke] [--seed N] [--out BENCH_eia_scale.json]

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/eia.h"
#include "obs/export.h"
#include "sim/testbed.h"
#include "util/args.h"
#include "util/rng.h"

using namespace infilter;

namespace {

constexpr core::IngressId kIngress = 9001;
constexpr std::uint32_t kSlash24Count = 1u << 24;
/// The Table-3 preloads expand to 10 sources x 100 /11 sub-blocks = ~8.2M
/// /24 inserts; 2^26 bits is ~8 bits per key (~3% FP at k=3).
constexpr std::uint64_t kTestbedBloomBits = 1ull << 26;

/// Deterministic membership: /24 index k is learned iff its hash clears
/// the density threshold. Ascending iteration gives the exact backend its
/// cheap append-path inserts; at high density adjacent /24s coalesce into
/// ranges, exactly the merging a real deployment would see.
bool in_universe(std::uint64_t seed, std::uint32_t slash24, std::uint64_t target) {
  return (util::SplitMix64{seed ^ (0x5ca1eULL << 32) ^ slash24}.next() &
          (kSlash24Count - 1)) < target;
}

core::EiaTable build_table(const core::EiaBackendConfig& backend,
                           std::uint64_t seed, std::uint64_t target,
                           std::uint64_t* learned) {
  core::EiaTableConfig config;
  config.backend = backend;
  core::EiaTable table(config);
  std::uint64_t count = 0;
  for (std::uint32_t k = 0; k < kSlash24Count; ++k) {
    if (!in_universe(seed, k, target)) continue;
    table.add_expected(kIngress, net::Prefix{net::IPv4Address{k << 8}, 24});
    ++count;
  }
  *learned = count;
  return table;
}

net::IPv4Address probe_address(std::uint64_t seed, std::uint64_t i) {
  return net::IPv4Address{static_cast<std::uint32_t>(
      util::SplitMix64{seed ^ (0xbe11ULL << 32) ^ i}.next())};
}

struct LookupResult {
  double ns_per_flow = 0;
  std::uint64_t hits = 0;
};

/// Times is_expected over `probes` pseudo-random addresses (learned and
/// unlearned /24s mixed at the sweep's density). One untimed pass warms
/// the structure; the second, timed pass is what we report.
LookupResult time_lookups(const core::EiaTable& table, std::uint64_t seed,
                          std::uint64_t probes) {
  LookupResult out;
  for (int pass = 0; pass < 2; ++pass) {
    std::uint64_t hits = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < probes; ++i) {
      hits += table.is_expected(kIngress, probe_address(seed, i)) ? 1 : 0;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    out.hits = hits;
    out.ns_per_flow =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
        static_cast<double>(probes);
  }
  return out;
}

/// Bloom false-positive ratio over the probe stream, with the exact
/// backend as ground truth: FPs / exact-negative probes.
double measured_fp_ratio(const core::EiaTable& exact, const core::EiaTable& bloom,
                         std::uint64_t seed, std::uint64_t probes) {
  std::uint64_t negatives = 0;
  std::uint64_t false_positives = 0;
  for (std::uint64_t i = 0; i < probes; ++i) {
    const auto ip = probe_address(seed, i);
    if (exact.is_expected(kIngress, ip)) continue;
    ++negatives;
    if (bloom.is_expected(kIngress, ip)) ++false_positives;
  }
  return negatives == 0
             ? 0.0
             : static_cast<double>(false_positives) / static_cast<double>(negatives);
}

struct SweepRow {
  std::string mode;
  std::uint64_t scale = 0;
  std::uint64_t learned = 0;
  std::uint64_t memory_bytes = 0;
  double lookup_ns = 0;
  double hit_ratio = 0;
  // Bloom-only fields (zero on exact rows).
  std::uint64_t bloom_bits = 0;
  int bloom_hashes = 0;
  double memory_ratio = 0;
  double fill_ratio = 0;
  double fp_ratio = 0;
};

std::string sweep_row_json(const SweepRow& r) {
  std::string d = "    {\"mode\": \"" + r.mode + "\"";
  d += ", \"scale\": " + std::to_string(r.scale);
  d += ", \"learned_slash24s\": " + std::to_string(r.learned);
  d += ", \"memory_bytes\": " + std::to_string(r.memory_bytes);
  d += ", \"lookup_ns_per_flow\": " + obs::format_number(r.lookup_ns);
  d += ", \"lookup_hit_ratio\": " + obs::format_number(r.hit_ratio);
  if (r.bloom_bits != 0) {
    d += ", \"bloom_bits\": " + std::to_string(r.bloom_bits);
    d += ", \"bloom_hashes\": " + std::to_string(r.bloom_hashes);
    d += ", \"memory_ratio_vs_exact\": " + obs::format_number(r.memory_ratio);
    d += ", \"fill_ratio\": " + obs::format_number(r.fill_ratio);
    d += ", \"false_positive_ratio\": " + obs::format_number(r.fp_ratio);
  }
  d += "}";
  return d;
}

std::string testbed_row_json(const char* mode, const sim::ExperimentResult& r) {
  std::string d = "    {\"mode\": \"" + std::string(mode) + "\"";
  d += ", \"detection_rate\": " + obs::format_number(r.detection_rate());
  d += ", \"detected_instances\": " + std::to_string(r.detected_instances);
  d += ", \"attack_instances\": " + std::to_string(r.attack_instances);
  d += ", \"benign_suspects\": " + std::to_string(r.benign_suspects);
  d += ", \"benign_suspect_rate\": " + obs::format_number(r.benign_suspect_rate());
  d += ", \"false_positive_rate\": " + obs::format_number(r.false_positive_rate());
  d += ", \"bloom_false_suspects_total\": " +
       obs::format_number(r.metrics.value("infilter_eia_bloom_false_suspects_total"));
  d += ", \"eia_backend_bytes\": " +
       obs::format_number(r.metrics.value("infilter_eia_backend_bytes"));
  d += "}";
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"smoke"}, {"out", "seed"});
  if (!parsed) {
    std::fprintf(stderr, "eia_scale: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const auto& args = *parsed;
  const bool smoke = args.has("smoke");
  const auto seed = static_cast<std::uint64_t>(args.int_or("seed", 29));

  int failures = 0;
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "eia_scale: FAIL: %s\n", what.c_str());
      ++failures;
    }
  };

  // -- Section 1: scale sweep ------------------------------------------
  const std::vector<std::uint64_t> scales =
      smoke ? std::vector<std::uint64_t>{100000}
            : std::vector<std::uint64_t>{100000, 1000000, 10000000};
  const std::uint64_t probes = smoke ? (1ull << 19) : (1ull << 21);

  std::printf("=== EIA backend scale sweep (seed %llu, %llu probes/scale) ===\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(probes));
  std::printf("%-16s %12s %14s %12s %10s %8s\n", "mode", "learned", "memory",
              "ns/flow", "fp", "fill");

  std::vector<SweepRow> sweep;
  for (const std::uint64_t scale : scales) {
    SweepRow exact_row;
    exact_row.mode = "exact@" + std::to_string(scale);
    exact_row.scale = scale;
    core::EiaTable exact =
        build_table(core::EiaBackendConfig{}, seed, scale, &exact_row.learned);
    exact_row.memory_bytes = exact.memory_bytes();
    const auto exact_lookups = time_lookups(exact, seed, probes);
    exact_row.lookup_ns = exact_lookups.ns_per_flow;
    exact_row.hit_ratio = static_cast<double>(exact_lookups.hits) /
                          static_cast<double>(probes);

    core::EiaBackendConfig bloom_config;
    bloom_config.type = core::EiaBackendType::kBloom;
    // ~4 bits per target key, the smallest power-of-two budget that holds
    // the 10% memory bound against exact's ~8-byte ranges.
    bloom_config.bits = std::bit_ceil(4 * scale);
    bloom_config.hashes = 3;
    SweepRow bloom_row;
    bloom_row.mode = "bloom@" + std::to_string(scale);
    bloom_row.scale = scale;
    core::EiaTable bloom = build_table(bloom_config, seed, scale, &bloom_row.learned);
    bloom_row.memory_bytes = bloom.memory_bytes();
    bloom_row.bloom_bits = bloom_config.bits;
    bloom_row.bloom_hashes = bloom_config.hashes;
    const auto bloom_lookups = time_lookups(bloom, seed, probes);
    bloom_row.lookup_ns = bloom_lookups.ns_per_flow;
    bloom_row.hit_ratio = static_cast<double>(bloom_lookups.hits) /
                          static_cast<double>(probes);
    bloom_row.memory_ratio = static_cast<double>(bloom_row.memory_bytes) /
                             static_cast<double>(exact_row.memory_bytes);
    bloom_row.fill_ratio = bloom.fill_ratio();
    bloom_row.fp_ratio = measured_fp_ratio(exact, bloom, seed, probes);

    for (const SweepRow* r : {&exact_row, &bloom_row}) {
      std::printf("%-16s %12llu %14llu %12.1f %9.4f%% %7.3f\n", r->mode.c_str(),
                  static_cast<unsigned long long>(r->learned),
                  static_cast<unsigned long long>(r->memory_bytes), r->lookup_ns,
                  100 * r->fp_ratio, r->fill_ratio);
    }

    // The acceptance bound is stated at 10^6 learned prefixes; apply it at
    // every sweep scale up to there (10^7 exact degrades toward dense
    // ranges, so the ratio story changes -- reported, not gated).
    if (scale <= 1000000) {
      require(bloom_row.memory_bytes * 10 <= exact_row.memory_bytes,
              bloom_row.mode + ": memory " + std::to_string(bloom_row.memory_bytes) +
                  " exceeds 10% of exact's " +
                  std::to_string(exact_row.memory_bytes));
      require(bloom_row.lookup_ns <= exact_row.lookup_ns * 1.25,
              bloom_row.mode + ": lookup slower than 1.25x exact");
      require(bloom_row.fp_ratio <= 0.15,
              bloom_row.mode + ": measured FP above the 15% budget");
    }
    sweep.push_back(std::move(exact_row));
    sweep.push_back(std::move(bloom_row));
  }

  // -- Section 2: testbed quality delta --------------------------------
  sim::ExperimentConfig config;
  config.seed = seed ^ 0x7e57ULL;
  config.normal_flows_per_source = smoke ? 1500 : 6000;
  config.training_flows = smoke ? 600 : 1500;
  config.engine.cluster.bits_per_feature = smoke ? 48 : 144;

  std::printf("=== Testbed quality: exact vs bloom (seed %llu) ===\n",
              static_cast<unsigned long long>(config.seed));
  const auto exact_run = sim::run_experiment(config);
  config.engine.eia.backend.type = core::EiaBackendType::kBloom;
  config.engine.eia.backend.bits = kTestbedBloomBits;
  config.engine.eia.backend.hashes = 3;
  const auto bloom_run = sim::run_experiment(config);

  const auto print_run = [](const char* label, const sim::ExperimentResult& r) {
    std::printf("%-8s %6.1f%% %8d/%-3d benign-susp %9.4f%% fp %9.4f%%\n", label,
                100 * r.detection_rate(), r.detected_instances,
                r.attack_instances, 100 * r.benign_suspect_rate(),
                100 * r.false_positive_rate());
  };
  print_run("exact", exact_run);
  print_run("bloom", bloom_run);

  const double bloom_false_suspects =
      bloom_run.metrics.value("infilter_eia_bloom_false_suspects_total");
  const double benign_delta =
      bloom_run.benign_suspect_rate() - exact_run.benign_suspect_rate();
  std::printf("bloom false suspects (ground truth): %.0f over %llu benign "
              "(exact baseline %llu suspects); rate delta %+.4f%%\n",
              bloom_false_suspects,
              static_cast<unsigned long long>(bloom_run.benign_flows),
              static_cast<unsigned long long>(exact_run.benign_suspects),
              100 * benign_delta);

  require(bloom_run.detected_instances >= exact_run.detected_instances,
          "bloom backend detected fewer attack instances than exact");
  require(benign_delta <= 0.01,
          "bloom backend pushed >1% extra benign flows into the suspect path");
  require(bloom_run.false_positive_rate() <=
              exact_run.false_positive_rate() + 0.005,
          "bloom backend regressed the final false-positive rate");

  // -- JSON -------------------------------------------------------------
  std::string doc = "{\n  \"bench\": \"eia_scale\",\n";
  doc += "  \"seed\": " + std::to_string(seed) + ",\n";
  doc += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  doc += "  \"probes_per_scale\": " + std::to_string(probes) + ",\n";
  doc += "  \"runs\": [\n";
  for (const auto& row : sweep) doc += sweep_row_json(row) + ",\n";
  doc += testbed_row_json("testbed_exact", exact_run) + ",\n";
  doc += testbed_row_json("testbed_bloom", bloom_run) + "\n  ],\n";
  doc += "  \"testbed_benign_suspect_delta\": " + obs::format_number(benign_delta) + ",\n";
  doc += "  \"failures\": " + std::to_string(failures) + "\n}\n";

  const auto out_path = args.value_or("out", "BENCH_eia_scale.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "eia_scale: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
