#include "alert/idmef_io.h"

#include <charconv>
#include <optional>
#include <string>

namespace infilter::alert {
namespace {

/// Contents of the first <tag ...>...</tag> within `scope`.
std::optional<std::string_view> element(std::string_view scope, std::string_view tag) {
  const std::string open = "<" + std::string(tag);
  const auto start = scope.find(open);
  if (start == std::string_view::npos) return std::nullopt;
  const auto open_end = scope.find('>', start);
  if (open_end == std::string_view::npos) return std::nullopt;
  if (open_end > start && scope[open_end - 1] == '/') {
    return scope.substr(open_end, 0);  // self-closing: empty contents
  }
  const std::string close = "</" + std::string(tag) + ">";
  const auto end = scope.find(close, open_end);
  if (end == std::string_view::npos) return std::nullopt;
  return scope.substr(open_end + 1, end - open_end - 1);
}

/// Value of `name="..."` on the first <tag ...> within `scope`.
std::optional<std::string_view> attribute(std::string_view scope, std::string_view tag,
                                          std::string_view name) {
  const std::string open = "<" + std::string(tag);
  const auto start = scope.find(open);
  if (start == std::string_view::npos) return std::nullopt;
  const auto open_end = scope.find('>', start);
  if (open_end == std::string_view::npos) return std::nullopt;
  const auto head = scope.substr(start, open_end - start);
  const std::string key = std::string(name) + "=\"";
  const auto at = head.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  const auto value_start = at + key.size();
  const auto value_end = head.find('"', value_start);
  if (value_end == std::string_view::npos) return std::nullopt;
  return head.substr(value_start, value_end - value_start);
}

/// The AdditionalData element whose meaning attribute equals `meaning`.
std::optional<std::string_view> additional_data(std::string_view scope,
                                                std::string_view meaning) {
  std::size_t at = 0;
  while (true) {
    const auto start = scope.find("<AdditionalData", at);
    if (start == std::string_view::npos) return std::nullopt;
    const auto slice = scope.substr(start);
    const auto found_meaning = attribute(slice, "AdditionalData", "meaning");
    const auto contents = element(slice, "AdditionalData");
    if (found_meaning.has_value() && *found_meaning == meaning) return contents;
    at = start + 1;
  }
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  std::uint64_t value = 0;
  const auto end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = static_cast<T>(value);
  return true;
}

std::optional<DetectionStage> stage_by_name(std::string_view name) {
  for (const auto stage : {DetectionStage::kEiaMismatch, DetectionStage::kScanAnalysis,
                           DetectionStage::kNnsDistance, DetectionStage::kHopCountFusion}) {
    if (stage_name(stage) == name) return stage;
  }
  return std::nullopt;
}

}  // namespace

util::Result<Alert> parse_idmef(std::string_view xml) {
  const auto message = element(xml, "IDMEF-Message");
  if (!message.has_value()) return util::Error{"no IDMEF-Message element"};
  const auto body = element(*message, "Alert");
  if (!body.has_value()) return util::Error{"no Alert element"};

  Alert alert;
  const auto id = attribute(*message, "Alert", "messageid");
  if (!id.has_value() || !parse_number(*id, alert.id)) {
    return util::Error{"missing or bad Alert messageid"};
  }
  const auto create_time = element(*body, "CreateTime");
  if (!create_time.has_value() || !parse_number(*create_time, alert.create_time)) {
    return util::Error{"missing or bad CreateTime"};
  }

  const auto source = element(*body, "Source");
  const auto target = element(*body, "Target");
  if (!source.has_value() || !target.has_value()) {
    return util::Error{"missing Source or Target"};
  }
  const auto source_address = element(*source, "address");
  const auto target_address = element(*target, "address");
  if (!source_address.has_value() || !target_address.has_value()) {
    return util::Error{"missing source/target address"};
  }
  const auto src = net::IPv4Address::parse(*source_address);
  const auto dst = net::IPv4Address::parse(*target_address);
  if (!src.has_value() || !dst.has_value()) {
    return util::Error{"malformed source/target address"};
  }
  alert.source_ip = *src;
  alert.target_ip = *dst;

  if (const auto service = element(*target, "Service"); service.has_value()) {
    if (const auto port = element(*service, "port"); port.has_value()) {
      if (!parse_number(*port, alert.target_port)) {
        return util::Error{"malformed target port"};
      }
    }
    if (const auto proto = element(*service, "protocol"); proto.has_value()) {
      if (!parse_number(*proto, alert.proto)) {
        return util::Error{"malformed protocol"};
      }
    }
  }

  const auto stage_text = additional_data(*body, "detection-stage");
  if (!stage_text.has_value()) return util::Error{"missing detection-stage"};
  const auto stage = stage_by_name(*stage_text);
  if (!stage.has_value()) {
    return util::Error{"unknown detection stage '" + std::string(*stage_text) + "'"};
  }
  alert.stage = *stage;

  if (const auto ingress = additional_data(*body, "ingress-port"); ingress.has_value()) {
    if (!parse_number(*ingress, alert.ingress_port)) {
      return util::Error{"malformed ingress-port"};
    }
  }
  if (const auto expected = additional_data(*body, "expected-ingress");
      expected.has_value()) {
    std::uint16_t value = 0;
    if (!parse_number(*expected, value)) {
      return util::Error{"malformed expected-ingress"};
    }
    alert.expected_ingress = value;
  }
  if (const auto distance = additional_data(*body, "nns-distance");
      distance.has_value()) {
    std::uint32_t value = 0;
    if (!parse_number(*distance, value)) return util::Error{"malformed nns-distance"};
    alert.nns_distance = static_cast<int>(value);
  }
  if (const auto threshold = additional_data(*body, "nns-threshold");
      threshold.has_value()) {
    std::uint32_t value = 0;
    if (!parse_number(*threshold, value)) return util::Error{"malformed nns-threshold"};
    alert.nns_threshold = static_cast<int>(value);
  }
  return alert;
}

util::Result<std::vector<Alert>> parse_idmef_stream(std::string_view xml) {
  std::vector<Alert> alerts;
  std::size_t at = 0;
  int index = 0;
  while (true) {
    const auto start = xml.find("<IDMEF-Message", at);
    if (start == std::string_view::npos) break;
    const auto end = xml.find("</IDMEF-Message>", start);
    if (end == std::string_view::npos) {
      return util::Error{"message " + std::to_string(index) + ": unterminated"};
    }
    const auto document = xml.substr(start, end - start + 16);
    auto parsed = parse_idmef(document);
    if (!parsed) {
      return util::Error{"message " + std::to_string(index) + ": " +
                         parsed.error().message};
    }
    alerts.push_back(std::move(*parsed));
    at = end + 16;
    ++index;
  }
  return alerts;
}

}  // namespace infilter::alert
