// infilter-flowgen: generate a NetFlow capture for experimentation.
//
// Emulates one Dagflow source (normal traffic from its Table 3 address
// blocks) plus optional spoofed attacks, and writes the capture in the
// binary or ASCII format the other tools read.
//
// Usage:
//   infilter-flowgen --out flows.bin [--flows 5000] [--seed 1]
//                    [--source 0]           # which Table 3 source (0..9)
//                    [--attacks slammer,tfn2k | all | none]
//                    [--attack-volume 0.04] [--spoof-block 104c]
//                    [--sampling 1] [--ascii]
//   infilter-flowgen --send ...            # transmit over UDP instead of
//                                          # writing a file (pair with a
//                                          # running infilter-capture)
//   infilter-flowgen --list-attacks

#include <cstdio>
#include <fstream>

#include "dagflow/dagflow.h"
#include "flowtools/ascii.h"
#include "flowtools/capture.h"
#include "flowtools/udp.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"
#include "util/args.h"

using namespace infilter;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "infilter-flowgen: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(
      argc, argv, {"ascii", "list-attacks", "send"},
      {"attack-volume", "attacks", "flows", "out", "sampling", "seed", "source",
       "spoof-block"});
  if (!parsed) return fail(parsed.error().message);
  const auto& args = *parsed;

  if (args.has("list-attacks")) {
    for (int k = 0; k < traffic::kAttackKindCount; ++k) {
      std::printf("%s\n",
                  std::string(traffic::attack_name(static_cast<traffic::AttackKind>(k)))
                      .c_str());
    }
    return 0;
  }

  const bool live = args.has("send");
  const auto out_path = args.value("out");
  if (!live && !out_path.has_value()) {
    return fail("--out FILE or --send is required (see the header comment)");
  }
  const auto seed = static_cast<std::uint64_t>(args.int_or("seed", 1));
  const auto flows = static_cast<std::size_t>(args.int_or("flows", 5000));
  const int source = static_cast<int>(args.int_or("source", 0));
  if (source < 0 || source > 9) return fail("--source must be 0..9");
  const auto port = static_cast<std::uint16_t>(9001 + source);
  const auto sampling = static_cast<std::uint32_t>(args.int_or("sampling", 1));

  // Normal traffic from the source's own Table 3 blocks.
  util::Rng rng{seed};
  traffic::NormalTrafficModel model;
  traffic::Trace trace = model.generate(flows, 0, rng);
  dagflow::Dagflow normal_source(
      dagflow::DagflowConfig{.netflow_port = port, .sampling_interval = sampling},
      dagflow::AddressPool::from_allocation(
          dagflow::make_allocation(10, 100, 0, 0)[static_cast<std::size_t>(source)]),
      seed + 1);
  auto labeled = normal_source.replay(trace);

  // Attacks.
  const std::string attack_spec = args.value_or("attacks", "none");
  std::vector<traffic::AttackKind> kinds;
  if (attack_spec == "all") {
    for (int k = 0; k < traffic::kAttackKindCount; ++k) {
      kinds.push_back(static_cast<traffic::AttackKind>(k));
    }
  } else if (attack_spec != "none") {
    std::size_t at = 0;
    while (at <= attack_spec.size()) {
      const auto comma = attack_spec.find(',', at);
      const auto name = attack_spec.substr(
          at, comma == std::string::npos ? std::string::npos : comma - at);
      const auto kind = traffic::attack_by_name(name);
      if (!kind.has_value()) {
        return fail("unknown attack '" + name + "' (--list-attacks shows names)");
      }
      kinds.push_back(*kind);
      if (comma == std::string::npos) break;
      at = comma + 1;
    }
  }
  if (!kinds.empty()) {
    const auto block =
        net::SubBlock::parse(args.value_or("spoof-block", "104c"));
    if (!block.has_value()) return fail("bad --spoof-block notation");
    traffic::AttackConfig attack_config;
    const double volume = args.double_or("attack-volume", 0.04);
    attack_config.intensity =
        volume * static_cast<double>(flows) / (637.0 * static_cast<double>(kinds.size()) / 12.0);
    dagflow::Dagflow attacker(
        dagflow::DagflowConfig{.netflow_port = port, .sampling_interval = sampling},
        dagflow::AddressPool::from_subblocks({*block}), seed + 2);
    const auto span = static_cast<util::DurationMs>(trace.duration() * 0.8);
    for (const auto kind : kinds) {
      const auto origin = rng.below(std::max<util::DurationMs>(1, span));
      const auto attack = traffic::generate_attack(kind, attack_config, origin, rng);
      const auto attack_flows = attacker.replay(attack);
      labeled.insert(labeled.end(), attack_flows.begin(), attack_flows.end());
    }
  }
  std::sort(labeled.begin(), labeled.end(), [](const auto& a, const auto& b) {
    return a.record.last < b.record.last;
  });

  dagflow::Dagflow exporter(
      dagflow::DagflowConfig{.netflow_port = port},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), seed + 3);
  const auto datagrams = exporter.export_datagrams(labeled, trace.duration());

  if (live) {
    auto sender = flowtools::UdpSender::create();
    if (!sender) return fail(sender.error().message);
    for (const auto& datagram : datagrams) {
      if (const auto sent = sender->send(port, datagram); !sent) {
        return fail(sent.error().message);
      }
    }
    std::printf("sent %zu flows in %zu datagrams to 127.0.0.1:%u\n", labeled.size(),
                datagrams.size(), port);
    return 0;
  }

  // Write through the collector so both formats share one code path.
  flowtools::FlowCapture capture;
  for (const auto& datagram : datagrams) {
    if (const auto result = capture.ingest(datagram, port); !result) {
      return fail("internal: " + result.error().message);
    }
  }

  if (args.has("ascii")) {
    std::ofstream out(*out_path);
    if (!out) return fail("cannot open " + *out_path);
    out << flowtools::export_ascii(capture.flows());
  } else if (const auto saved = capture.save(*out_path); !saved) {
    return fail(saved.error().message);
  }
  std::printf("wrote %zu flows (%zu attack flows from %zu attack kinds) to %s\n",
              capture.flows().size(),
              static_cast<std::size_t>(std::count_if(
                  labeled.begin(), labeled.end(),
                  [](const auto& flow) { return flow.attack; })),
              kinds.size(), out_path->c_str());
  return 0;
}
