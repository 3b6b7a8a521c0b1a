// Tests for IDMEF alerting (alert/idmef.h).

#include "alert/idmef.h"

#include <gtest/gtest.h>

#include <limits>

namespace infilter::alert {
namespace {

Alert sample_alert() {
  Alert a;
  a.id = 42;
  a.create_time = 123456;
  a.stage = DetectionStage::kNnsDistance;
  a.source_ip = net::IPv4Address{3, 1, 2, 3};
  a.target_ip = net::IPv4Address{100, 64, 0, 7};
  a.target_port = 80;
  a.proto = 6;
  a.ingress_port = 9001;
  a.expected_ingress = 9004;
  a.nns_distance = 55;
  a.nns_threshold = 30;
  return a;
}

TEST(StageName, AllStagesNamed) {
  EXPECT_EQ(stage_name(DetectionStage::kEiaMismatch), "eia-mismatch");
  EXPECT_EQ(stage_name(DetectionStage::kScanAnalysis), "scan-analysis");
  EXPECT_EQ(stage_name(DetectionStage::kNnsDistance), "nns-distance");
  EXPECT_EQ(stage_name(DetectionStage::kHopCountFusion), "hopcount-fusion");
}

TEST(IdmefXml, ContainsCoreElements) {
  const auto xml = sample_alert().to_idmef_xml();
  EXPECT_NE(xml.find("<IDMEF-Message"), std::string::npos);
  EXPECT_NE(xml.find("messageid=\"42\""), std::string::npos);
  EXPECT_NE(xml.find("<CreateTime>123456</CreateTime>"), std::string::npos);
  EXPECT_NE(xml.find("spoofed=\"yes\""), std::string::npos);
  EXPECT_NE(xml.find("<address>3.1.2.3</address>"), std::string::npos);
  EXPECT_NE(xml.find("<address>100.64.0.7</address>"), std::string::npos);
  EXPECT_NE(xml.find("<port>80</port>"), std::string::npos);
  EXPECT_NE(xml.find("spoofed traffic (nns-distance)"), std::string::npos);
}

TEST(IdmefXml, NnsDiagnosticsOnlyForNnsStage) {
  auto a = sample_alert();
  EXPECT_NE(a.to_idmef_xml().find("nns-distance\">55"), std::string::npos);
  a.stage = DetectionStage::kEiaMismatch;
  EXPECT_EQ(a.to_idmef_xml().find("meaning=\"nns-distance\""), std::string::npos);
}

TEST(IdmefXml, ExpectedIngressOmittedWhenUnknown) {
  auto a = sample_alert();
  a.expected_ingress = -1;
  EXPECT_EQ(a.to_idmef_xml().find("expected-ingress"), std::string::npos);
}

TEST(IdmefXml, ZeroPortOmitsServiceElement) {
  auto a = sample_alert();
  a.target_port = 0;
  EXPECT_EQ(a.to_idmef_xml().find("<Service>"), std::string::npos);
}

TEST(IdmefXml, ClassificationDerivedFromStage) {
  auto a = sample_alert();
  for (const auto stage : {DetectionStage::kEiaMismatch, DetectionStage::kScanAnalysis,
                           DetectionStage::kNnsDistance, DetectionStage::kHopCountFusion}) {
    a.stage = stage;
    const std::string expected =
        "<Classification text=\"spoofed traffic (" + std::string(stage_name(stage)) + ")\"/>";
    EXPECT_NE(a.to_idmef_xml().find(expected), std::string::npos) << stage_name(stage);
  }
}

// -- Golden documents: the exact bytes of the IDMEF writer, one per stage,
// covering every optional element present and absent and the widest and
// narrowest values of each number and address. --

TEST(IdmefGolden, EiaMismatchWithServiceAndExpectedIngress) {
  Alert a;
  a.id = 7;
  a.create_time = 1000;
  a.stage = DetectionStage::kEiaMismatch;
  a.source_ip = net::IPv4Address{10, 0, 0, 1};
  a.target_ip = net::IPv4Address{192, 168, 1, 20};
  a.target_port = 443;
  a.proto = 6;
  a.ingress_port = 9003;
  a.expected_ingress = 9007;
  EXPECT_EQ(a.to_idmef_xml(), R"xml(<IDMEF-Message version="1.0">
  <Alert messageid="7">
    <Analyzer analyzerid="infilter" class="spoof-detector"/>
    <CreateTime>1000</CreateTime>
    <Source spoofed="yes">
      <Node><Address category="ipv4-addr"><address>10.0.0.1</address></Address></Node>
    </Source>
    <Target>
      <Node><Address category="ipv4-addr"><address>192.168.1.20</address></Address></Node>
      <Service><port>443</port><protocol>6</protocol></Service>
    </Target>
    <Classification text="spoofed traffic (eia-mismatch)"/>
    <AdditionalData type="string" meaning="detection-stage">eia-mismatch</AdditionalData>
    <AdditionalData type="integer" meaning="ingress-port">9003</AdditionalData>
    <AdditionalData type="integer" meaning="expected-ingress">9007</AdditionalData>
  </Alert>
</IDMEF-Message>
)xml");
}

TEST(IdmefGolden, ScanAnalysisWithoutOptionalElements) {
  Alert a;
  a.id = 1;
  a.create_time = 0;
  a.stage = DetectionStage::kScanAnalysis;
  a.source_ip = net::IPv4Address{0, 0, 0, 0};
  a.target_ip = net::IPv4Address{255, 255, 255, 255};
  a.target_port = 0;  // no <Service>
  a.proto = 17;
  a.ingress_port = 0;
  a.expected_ingress = -1;  // no expected-ingress
  EXPECT_EQ(a.to_idmef_xml(), R"xml(<IDMEF-Message version="1.0">
  <Alert messageid="1">
    <Analyzer analyzerid="infilter" class="spoof-detector"/>
    <CreateTime>0</CreateTime>
    <Source spoofed="yes">
      <Node><Address category="ipv4-addr"><address>0.0.0.0</address></Address></Node>
    </Source>
    <Target>
      <Node><Address category="ipv4-addr"><address>255.255.255.255</address></Address></Node>
    </Target>
    <Classification text="spoofed traffic (scan-analysis)"/>
    <AdditionalData type="string" meaning="detection-stage">scan-analysis</AdditionalData>
    <AdditionalData type="integer" meaning="ingress-port">0</AdditionalData>
  </Alert>
</IDMEF-Message>
)xml");
}

TEST(IdmefGolden, NnsDistanceWithWidestValues) {
  // The longest document the writer can produce (1032 bytes).
  Alert a;
  a.id = std::numeric_limits<std::uint64_t>::max();
  a.create_time = std::numeric_limits<util::TimeMs>::max();
  a.stage = DetectionStage::kNnsDistance;
  a.source_ip = net::IPv4Address{255, 254, 253, 252};
  a.target_ip = net::IPv4Address{255, 255, 255, 255};
  a.target_port = 65535;
  a.proto = 255;
  a.ingress_port = 65535;
  a.expected_ingress = std::numeric_limits<int>::max();
  a.nns_distance = std::numeric_limits<int>::min();
  a.nns_threshold = std::numeric_limits<int>::min();
  EXPECT_EQ(a.to_idmef_xml(), R"xml(<IDMEF-Message version="1.0">
  <Alert messageid="18446744073709551615">
    <Analyzer analyzerid="infilter" class="spoof-detector"/>
    <CreateTime>18446744073709551615</CreateTime>
    <Source spoofed="yes">
      <Node><Address category="ipv4-addr"><address>255.254.253.252</address></Address></Node>
    </Source>
    <Target>
      <Node><Address category="ipv4-addr"><address>255.255.255.255</address></Address></Node>
      <Service><port>65535</port><protocol>255</protocol></Service>
    </Target>
    <Classification text="spoofed traffic (nns-distance)"/>
    <AdditionalData type="string" meaning="detection-stage">nns-distance</AdditionalData>
    <AdditionalData type="integer" meaning="ingress-port">65535</AdditionalData>
    <AdditionalData type="integer" meaning="expected-ingress">2147483647</AdditionalData>
    <AdditionalData type="integer" meaning="nns-distance">-2147483648</AdditionalData>
    <AdditionalData type="integer" meaning="nns-threshold">-2147483648</AdditionalData>
  </Alert>
</IDMEF-Message>
)xml");
}

TEST(IdmefGolden, HopCountFusionOmitsNnsDiagnostics) {
  Alert a;
  a.id = 19600;
  a.create_time = 123456789;
  a.stage = DetectionStage::kHopCountFusion;
  a.source_ip = net::IPv4Address{172, 16, 9, 99};
  a.target_ip = net::IPv4Address{8, 8, 4, 4};
  a.target_port = 53;
  a.proto = 17;
  a.ingress_port = 9010;
  a.expected_ingress = 9002;
  a.nns_distance = 12;  // written only for the NNS stage
  a.nns_threshold = 5;
  EXPECT_EQ(a.to_idmef_xml(), R"xml(<IDMEF-Message version="1.0">
  <Alert messageid="19600">
    <Analyzer analyzerid="infilter" class="spoof-detector"/>
    <CreateTime>123456789</CreateTime>
    <Source spoofed="yes">
      <Node><Address category="ipv4-addr"><address>172.16.9.99</address></Address></Node>
    </Source>
    <Target>
      <Node><Address category="ipv4-addr"><address>8.8.4.4</address></Address></Node>
      <Service><port>53</port><protocol>17</protocol></Service>
    </Target>
    <Classification text="spoofed traffic (hopcount-fusion)"/>
    <AdditionalData type="string" meaning="detection-stage">hopcount-fusion</AdditionalData>
    <AdditionalData type="integer" meaning="ingress-port">9010</AdditionalData>
    <AdditionalData type="integer" meaning="expected-ingress">9002</AdditionalData>
  </Alert>
</IDMEF-Message>
)xml");
}

TEST(CollectingSink, StoresAlertsInOrder) {
  CollectingSink sink;
  auto a = sample_alert();
  a.id = 1;
  sink.consume(a);
  a.id = 2;
  sink.consume(a);
  ASSERT_EQ(sink.alerts().size(), 2u);
  EXPECT_EQ(sink.alerts()[0].id, 1u);
  EXPECT_EQ(sink.alerts()[1].id, 2u);
  sink.clear();
  EXPECT_TRUE(sink.alerts().empty());
}

}  // namespace
}  // namespace infilter::alert
