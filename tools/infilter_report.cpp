// infilter-report: flow-report style summaries of a capture.
//
// Usage:
//   infilter-report FILE [--ascii] [--group KEYS] [--top N]
//                        [--dstport N] [--proto N] [--srcprefix P]
//
// KEYS is a '+'-joined list of: srcip dstip proto srcport dstport tos
// input srcas dstas port. Default: dstport.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "flowtools/ascii.h"
#include "flowtools/capture.h"
#include "flowtools/report.h"
#include "util/args.h"

using namespace infilter;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "infilter-report: %s\n", message.c_str());
  return 1;
}

util::Result<flowtools::GroupField> parse_group(const std::string& spec) {
  using flowtools::GroupField;
  auto mask = static_cast<GroupField>(0);
  std::size_t at = 0;
  while (at <= spec.size()) {
    const auto plus = spec.find('+', at);
    const auto key =
        spec.substr(at, plus == std::string::npos ? std::string::npos : plus - at);
    GroupField field;
    if (key == "srcip") field = GroupField::kSrcIp;
    else if (key == "dstip") field = GroupField::kDstIp;
    else if (key == "proto") field = GroupField::kProto;
    else if (key == "srcport") field = GroupField::kSrcPort;
    else if (key == "dstport") field = GroupField::kDstPort;
    else if (key == "tos") field = GroupField::kTos;
    else if (key == "input") field = GroupField::kInputIf;
    else if (key == "srcas") field = GroupField::kSrcAs;
    else if (key == "dstas") field = GroupField::kDstAs;
    else if (key == "port") field = GroupField::kArrivalPort;
    else return util::Error{"unknown group key '" + key + "'"};
    mask = mask | field;
    if (plus == std::string::npos) break;
    at = plus + 1;
  }
  return mask;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(
      argc, argv, {"ascii"}, {"dstport", "group", "proto", "srcprefix", "top"});
  if (!parsed) return fail(parsed.error().message);
  const auto& args = *parsed;
  if (args.positional().size() != 1) return fail("exactly one capture FILE expected");
  const auto& path = args.positional().front();

  flowtools::FlowCapture capture;
  std::vector<flowtools::CapturedFlow> flows;
  if (args.has("ascii")) {
    std::ifstream in(path);
    if (!in) return fail("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    auto imported = flowtools::import_ascii(text.str());
    if (!imported) return fail(imported.error().message);
    flows = std::move(*imported);
  } else {
    if (const auto loaded = capture.load(path); !loaded) {
      return fail(loaded.error().message);
    }
    flows = capture.flows();
  }

  // Filters.
  flowtools::FlowFilter filter;
  if (args.has("dstport")) {
    filter.dst_port = static_cast<std::uint16_t>(args.int_or("dstport", 0));
  }
  if (args.has("proto")) {
    filter.proto = static_cast<std::uint8_t>(args.int_or("proto", 0));
  }
  if (const auto prefix_text = args.value("srcprefix")) {
    const auto prefix = net::Prefix::parse(*prefix_text);
    if (!prefix.has_value()) return fail("bad --srcprefix");
    filter.src_prefix = prefix;
  }
  const auto kept = flowtools::filter_flows(flows, filter);

  const auto group = parse_group(args.value_or("group", "dstport"));
  if (!group) return fail(group.error().message);
  auto rows = flowtools::group_flows(kept, *group);
  const auto top = static_cast<std::size_t>(args.int_or("top", 20));
  if (rows.size() > top) rows.resize(top);

  std::printf("%zu flows (%zu after filters), %zu groups shown\n", flows.size(),
              kept.size(), rows.size());
  std::fputs(flowtools::render_report(rows, *group).c_str(), stdout);
  return 0;
}
