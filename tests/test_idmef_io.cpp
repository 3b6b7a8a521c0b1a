// Tests for IDMEF parsing (alert/idmef_io.h).

#include "alert/idmef_io.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace infilter::alert {
namespace {

Alert random_alert(util::Rng& rng) {
  Alert a;
  a.id = rng();
  a.create_time = rng.below(1 << 30);
  a.stage = static_cast<DetectionStage>(rng.below(4));
  a.source_ip = net::IPv4Address{static_cast<std::uint32_t>(rng())};
  a.target_ip = net::IPv4Address{static_cast<std::uint32_t>(rng())};
  a.target_port = static_cast<std::uint16_t>(rng.below(65536));
  a.proto = rng.chance(0.5) ? 6 : 17;
  a.ingress_port = static_cast<std::uint16_t>(9001 + rng.below(10));
  a.expected_ingress = rng.chance(0.5)
                           ? static_cast<int>(9001 + rng.below(10))
                           : -1;
  if (a.stage == DetectionStage::kNnsDistance) {
    a.nns_distance = static_cast<int>(rng.below(720));
    a.nns_threshold = static_cast<int>(rng.below(200));
  }
  return a;
}

TEST(IdmefParse, RoundTripsRandomAlerts) {
  util::Rng rng{3};
  for (int trial = 0; trial < 60; ++trial) {
    const Alert original = random_alert(rng);
    const auto parsed = parse_idmef(original.to_idmef_xml());
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_EQ(parsed->id, original.id);
    EXPECT_EQ(parsed->create_time, original.create_time);
    EXPECT_EQ(parsed->stage, original.stage);
    EXPECT_EQ(parsed->source_ip, original.source_ip);
    EXPECT_EQ(parsed->target_ip, original.target_ip);
    EXPECT_EQ(parsed->target_port, original.target_port);
    EXPECT_EQ(parsed->ingress_port, original.ingress_port);
    EXPECT_EQ(parsed->expected_ingress, original.expected_ingress);
    if (original.target_port != 0) {
      EXPECT_EQ(parsed->proto, original.proto);
    }
    if (original.stage == DetectionStage::kNnsDistance) {
      EXPECT_EQ(parsed->nns_distance, original.nns_distance);
      EXPECT_EQ(parsed->nns_threshold, original.nns_threshold);
    }
  }
}

TEST(IdmefParse, StreamOfConcatenatedMessages) {
  util::Rng rng{4};
  std::string feed;
  std::vector<Alert> originals;
  for (int i = 0; i < 10; ++i) {
    originals.push_back(random_alert(rng));
    feed += originals.back().to_idmef_xml();
  }
  const auto parsed = parse_idmef_stream(feed);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  ASSERT_EQ(parsed->size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ((*parsed)[i].id, originals[i].id) << i;
    EXPECT_EQ((*parsed)[i].source_ip, originals[i].source_ip) << i;
  }
}

TEST(IdmefParse, EmptyStreamIsEmpty) {
  const auto parsed = parse_idmef_stream("");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(IdmefParse, StreamRejectsUnterminatedMessage) {
  util::Rng rng{5};
  auto xml = random_alert(rng).to_idmef_xml();
  xml.resize(xml.size() / 2);
  const auto parsed = parse_idmef_stream(xml);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().message.find("message 0"), std::string::npos);
}

TEST(IdmefParse, RejectsMissingCreateTime) {
  util::Rng rng{6};
  auto xml = random_alert(rng).to_idmef_xml();
  const auto at = xml.find("<CreateTime>");
  const auto end = xml.find("</CreateTime>") + 13;
  xml.erase(at, end - at);
  EXPECT_FALSE(parse_idmef(xml).has_value());
}

TEST(IdmefParse, RejectsBadAddress) {
  util::Rng rng{7};
  auto xml = random_alert(rng).to_idmef_xml();
  const auto at = xml.find("<address>");
  xml.replace(at, 9, "<address>not-an-ip");
  EXPECT_FALSE(parse_idmef(xml).has_value());
}

TEST(IdmefParse, RejectsUnknownStage) {
  util::Rng rng{8};
  Alert alert = random_alert(rng);
  auto xml = alert.to_idmef_xml();
  const std::string needle(stage_name(alert.stage));
  const auto at = xml.find(">" + needle + "<");
  ASSERT_NE(at, std::string::npos);
  xml.replace(at + 1, needle.size(), "quantum-oracle");
  EXPECT_FALSE(parse_idmef(xml).has_value());
}

TEST(IdmefParse, RejectsNonIdmefText) {
  EXPECT_FALSE(parse_idmef("<html><body>hi</body></html>").has_value());
  EXPECT_FALSE(parse_idmef("").has_value());
}

TEST(IdmefParse, ZeroPortAlertHasNoService) {
  util::Rng rng{9};
  Alert alert = random_alert(rng);
  alert.target_port = 0;
  const auto parsed = parse_idmef(alert.to_idmef_xml());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->target_port, 0);
}

}  // namespace
}  // namespace infilter::alert
