#include "alert/idmef.h"

#include <charconv>
#include <concepts>

namespace infilter::alert {
namespace {

/// Capacity reserved per document. The longest one -- the NNS stage with
/// every optional element present and every number at its widest -- is
/// 1032 bytes, so the writer allocates exactly once.
constexpr std::size_t kDocumentReserve = 1040;

void put(std::string& out, std::string_view text) { out += text; }

template <std::integral T>
void put(std::string& out, T value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

void put(std::string& out, net::IPv4Address address) {
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out += '.';
    put(out, address.octet(i));
  }
}

/// Appends each part: text as is, integers in decimal, addresses dotted.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

}  // namespace

std::string_view stage_name(DetectionStage stage) {
  switch (stage) {
    case DetectionStage::kEiaMismatch: return "eia-mismatch";
    case DetectionStage::kScanAnalysis: return "scan-analysis";
    case DetectionStage::kNnsDistance: return "nns-distance";
    case DetectionStage::kHopCountFusion: return "hopcount-fusion";
  }
  return "unknown";
}

std::string Alert::to_idmef_xml() const {
  // Shaped after the IDMEF Internet-Draft's Alert message: Analyzer,
  // CreateTime, Source, Target, Classification, AdditionalData. Adjacent
  // literals concatenate at compile time, so each constant run between two
  // values is one append.
  std::string xml;
  xml.reserve(kDocumentReserve);
  append(xml, "<IDMEF-Message version=\"1.0\">\n"
         "  <Alert messageid=\"", id, "\">\n"
         "    <Analyzer analyzerid=\"infilter\" class=\"spoof-detector\"/>\n"
         "    <CreateTime>", create_time, "</CreateTime>\n"
         "    <Source spoofed=\"yes\">\n"
         "      <Node><Address category=\"ipv4-addr\"><address>", source_ip,
         "</address></Address></Node>\n"
         "    </Source>\n"
         "    <Target>\n"
         "      <Node><Address category=\"ipv4-addr\"><address>", target_ip,
         "</address></Address></Node>\n");
  if (target_port != 0) {
    append(xml, "      <Service><port>", target_port, "</port><protocol>", proto,
           "</protocol></Service>\n");
  }
  append(xml, "    </Target>\n"
         "    <Classification text=\"spoofed traffic (", stage_name(stage), ")\"/>\n"
         "    <AdditionalData type=\"string\" meaning=\"detection-stage\">",
         stage_name(stage), "</AdditionalData>\n"
         "    <AdditionalData type=\"integer\" meaning=\"ingress-port\">", ingress_port,
         "</AdditionalData>\n");
  if (expected_ingress >= 0) {
    append(xml, "    <AdditionalData type=\"integer\" meaning=\"expected-ingress\">",
           expected_ingress, "</AdditionalData>\n");
  }
  if (stage == DetectionStage::kNnsDistance) {
    append(xml, "    <AdditionalData type=\"integer\" meaning=\"nns-distance\">",
           nns_distance, "</AdditionalData>\n"
           "    <AdditionalData type=\"integer\" meaning=\"nns-threshold\">",
           nns_threshold, "</AdditionalData>\n");
  }
  append(xml, "  </Alert>\n"
         "</IDMEF-Message>\n");
  return xml;
}

}  // namespace infilter::alert
