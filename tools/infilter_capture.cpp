// infilter-capture: a live flow-capture node (Figure 9's flow-tools box).
//
// Binds one UDP socket per collector port, ingests NetFlow v5 export
// datagrams until a flow target or deadline is reached, and writes the
// capture for infilter-report / infilter-detect. Pair with
// `infilter-flowgen --send` in another shell for a live two-process run.
//
// Usage:
//   infilter-capture --out flows.bin [--ports 9001,9002,...]
//                    [--flows 1000] [--timeout-ms 10000] [--ascii]

#include <cstdio>
#include <fstream>

#include "flowtools/ascii.h"
#include "flowtools/udp.h"
#include "util/args.h"

using namespace infilter;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "infilter-capture: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(
      argc, argv, {"ascii"}, {"flows", "out", "ports", "timeout-ms"});
  if (!parsed) return fail(parsed.error().message);
  const auto& args = *parsed;
  const auto out_path = args.value("out");
  if (!out_path.has_value()) return fail("--out FILE is required");

  std::vector<std::uint16_t> ports;
  {
    const std::string spec = args.value_or("ports", "9001,9002,9003,9004,9005,"
                                                    "9006,9007,9008,9009,9010");
    std::size_t at = 0;
    while (at <= spec.size()) {
      const auto comma = spec.find(',', at);
      const auto token =
          spec.substr(at, comma == std::string::npos ? std::string::npos : comma - at);
      ports.push_back(static_cast<std::uint16_t>(std::strtoul(token.c_str(), nullptr, 10)));
      if (comma == std::string::npos) break;
      at = comma + 1;
    }
  }

  auto collector = flowtools::LiveCollector::bind(ports);
  if (!collector) return fail(collector.error().message);
  std::printf("listening on %zu port(s); first is %u\n", ports.size(),
              collector->ports().front());

  const auto target = static_cast<std::size_t>(args.int_or("flows", 1000));
  const int timeout = static_cast<int>(args.int_or("timeout-ms", 10000));
  const auto collected = collector->collect(target, timeout);
  if (!collected) return fail(collected.error().message);

  const auto& capture = collector->capture();
  std::printf("captured %zu flows (%zu datagrams, %zu malformed, %llu lost to gaps)\n",
              capture.flows().size(), capture.datagrams_received(),
              capture.datagrams_malformed(),
              static_cast<unsigned long long>(capture.sequence_gaps()));

  if (args.has("ascii")) {
    std::ofstream out(*out_path);
    if (!out) return fail("cannot open " + *out_path);
    out << flowtools::export_ascii(capture.flows());
  } else if (const auto saved = capture.save(*out_path); !saved) {
    return fail(saved.error().message);
  }
  std::printf("wrote %s\n", out_path->c_str());
  return 0;
}
