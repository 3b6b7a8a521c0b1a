// Fused TTL + EIA detection vs EIA-only on the in-EIA spoofing scenario.
//
// The hop-count detector (src/hopcount, DESIGN.md "Hop-count detector")
// exists for exactly one attack class EIA cannot see: spoofed sources drawn
// from the attacked ingress's own expected blocks. This bench runs the
// testbed TTL scenario twice on the same seed -- stamping is pure hashing,
// so the flow streams are field-identical -- once with EIA alone and once
// with the fused detector, and asserts the fusion wins where it must while
// staying inside the benign false-suspect budget. Exit 1 on any violation,
// so the ctest smoke entry is a regression gate, not just a number printer.
//
// Usage:
//   ttl_detect [--smoke] [--out BENCH_ttl_detect.json]

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/export.h"
#include "sim/testbed.h"
#include "traffic/attacks.h"
#include "util/args.h"

using namespace infilter;

namespace {

struct Comparison {
  sim::ExperimentResult eia_only;
  sim::ExperimentResult fused;
};

Comparison run_pair(sim::ExperimentConfig config) {
  config.ttl_scenario = true;
  config.engine.use_hopcount = false;
  Comparison out;
  out.eia_only = sim::run_experiment(config);
  config.engine.use_hopcount = true;
  out.fused = sim::run_experiment(config);
  return out;
}

int per_kind_hits(const sim::ExperimentResult& result, traffic::AttackKind kind) {
  return result.per_kind[static_cast<std::size_t>(kind)].second;
}

void print_row(const char* label, const sim::ExperimentResult& r) {
  std::printf("%-10s %6.1f%% %8d/%-3d %10llu %13.4f%% %9.4f%%\n", label,
              100 * r.detection_rate(), r.detected_instances, r.attack_instances,
              static_cast<unsigned long long>(r.alerts_fused),
              100 * r.benign_suspect_rate(), 100 * r.false_positive_rate());
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"smoke"}, {"out", "seed"});
  if (!parsed) {
    std::fprintf(stderr, "ttl_detect: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const auto& args = *parsed;
  const bool smoke = args.has("smoke");

  sim::ExperimentConfig config;
  config.seed = static_cast<std::uint64_t>(args.int_or("seed", 21));
  config.normal_flows_per_source = smoke ? 1500 : 6000;
  config.training_flows = smoke ? 600 : 1500;
  config.attack_volume = 0.04;
  config.engine.cluster.bits_per_feature = smoke ? 48 : 144;

  std::printf("=== EIA-only vs fused TTL detection (ttl scenario, seed %llu) ===\n",
              static_cast<unsigned long long>(config.seed));
  const auto pair = run_pair(config);
  std::printf("%-10s %7s %12s %10s %14s %10s\n", "mode", "detect", "instances",
              "fused", "benign-susp", "fp");
  print_row("eia-only", pair.eia_only);
  print_row("fused", pair.fused);

  const int eia_in_eia =
      per_kind_hits(pair.eia_only, traffic::AttackKind::kInEiaSpoofFlood);
  const int fused_in_eia =
      per_kind_hits(pair.fused, traffic::AttackKind::kInEiaSpoofFlood);
  const double benign_delta =
      pair.fused.benign_suspect_rate() - pair.eia_only.benign_suspect_rate();
  std::printf("in-EIA spoof flood: eia-only %d/1, fused %d/1\n", eia_in_eia,
              fused_in_eia);
  std::printf("benign false-suspect delta: %+.4f%%\n", 100 * benign_delta);

  // The regression gates.
  int failures = 0;
  const auto require = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "ttl_detect: FAIL: %s\n", what);
      ++failures;
    }
  };
  require(eia_in_eia == 0,
          "EIA alone saw the in-EIA spoof flood (scenario is broken: those "
          "sources must pass the membership check)");
  require(fused_in_eia == 1, "fusion missed the in-EIA spoof flood");
  require(pair.fused.detected_instances >= pair.eia_only.detected_instances,
          "fusion detected fewer instances than EIA alone");
  require(pair.fused.alerts_fused > 0,
          "no high-confidence fused alerts on doubly-inconsistent flows");
  require(benign_delta <= 0.01,
          "TTL stage pushed >1% extra benign flows into the suspect path");
  require(pair.fused.false_positive_rate() <=
              pair.eia_only.false_positive_rate() + 0.005,
          "fusion regressed the final false-positive rate");

  std::string doc = "{\n  \"bench\": \"ttl_detect\",\n";
  doc += "  \"seed\": " + std::to_string(config.seed) + ",\n";
  doc += "  \"runs\": [\n";
  const auto run_doc = [](const char* mode, const sim::ExperimentResult& r) {
    std::string d = "    {\"mode\": \"" + std::string(mode) + "\"";
    d += ", \"detection_rate\": " + obs::format_number(r.detection_rate());
    d += ", \"detected_instances\": " + std::to_string(r.detected_instances);
    d += ", \"attack_instances\": " + std::to_string(r.attack_instances);
    d += ", \"alerts_fused\": " + std::to_string(r.alerts_fused);
    d += ", \"benign_suspect_rate\": " + obs::format_number(r.benign_suspect_rate());
    d += ", \"false_positive_rate\": " + obs::format_number(r.false_positive_rate());
    d += "}";
    return d;
  };
  doc += run_doc("eia_only", pair.eia_only) + ",\n";
  doc += run_doc("fused", pair.fused) + "\n  ],\n";
  doc += "  \"in_eia_spoof_detected_eia_only\": " + std::to_string(eia_in_eia) + ",\n";
  doc += "  \"in_eia_spoof_detected_fused\": " + std::to_string(fused_in_eia) + ",\n";
  doc += "  \"benign_suspect_delta\": " + obs::format_number(benign_delta) + ",\n";
  doc += "  \"failures\": " + std::to_string(failures) + "\n}\n";

  const auto out_path = args.value_or("out", "BENCH_ttl_detect.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "ttl_detect: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
