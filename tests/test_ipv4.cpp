// Unit tests for the IPv4 value types (net/ipv4.h).

#include "net/ipv4.h"

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

namespace infilter::net {
namespace {

TEST(IPv4Address, DefaultIsZero) {
  EXPECT_EQ(IPv4Address{}.value(), 0u);
  EXPECT_EQ(IPv4Address{}.to_string(), "0.0.0.0");
}

TEST(IPv4Address, OctetConstructorOrdersBytes) {
  const IPv4Address a{192, 0, 2, 33};
  EXPECT_EQ(a.value(), 0xC0000221u);
  EXPECT_EQ(a.octet(0), 192);
  EXPECT_EQ(a.octet(1), 0);
  EXPECT_EQ(a.octet(2), 2);
  EXPECT_EQ(a.octet(3), 33);
}

TEST(IPv4Address, ParseValid) {
  const auto a = IPv4Address::parse("10.1.255.0");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, (IPv4Address{10, 1, 255, 0}));
}

TEST(IPv4Address, ParseRoundTripsToString) {
  const IPv4Address original{203, 0, 113, 77};
  const auto parsed = IPv4Address::parse(original.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

class IPv4ParseRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(IPv4ParseRejects, Rejects) {
  EXPECT_FALSE(IPv4Address::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Malformed, IPv4ParseRejects,
                         ::testing::Values("", "1.2.3", "1.2.3.4.5", "256.0.0.1",
                                           "1.2.3.999", "a.b.c.d", "1..2.3",
                                           "1.2.3.4 ", " 1.2.3.4", "1.2.3.4x",
                                           "-1.2.3.4", "1.2.3.-4"));

TEST(IPv4Address, OrderingIsNumeric) {
  EXPECT_LT((IPv4Address{9, 255, 255, 255}), (IPv4Address{10, 0, 0, 0}));
  EXPECT_LT((IPv4Address{10, 0, 0, 1}), (IPv4Address{10, 0, 1, 0}));
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p{IPv4Address{10, 1, 2, 3}, 16};
  EXPECT_EQ(p.address(), (IPv4Address{10, 1, 0, 0}));
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(Prefix, FirstLastAndSize) {
  const Prefix p{IPv4Address{192, 168, 4, 0}, 22};
  EXPECT_EQ(p.first(), (IPv4Address{192, 168, 4, 0}));
  EXPECT_EQ(p.last(), (IPv4Address{192, 168, 7, 255}));
  EXPECT_EQ(p.size(), 1024u);
}

TEST(Prefix, SlashZeroCoversEverything) {
  const Prefix p{IPv4Address{1, 2, 3, 4}, 0};
  EXPECT_TRUE(p.contains(IPv4Address{0, 0, 0, 0}));
  EXPECT_TRUE(p.contains(IPv4Address{255, 255, 255, 255}));
  EXPECT_EQ(p.size(), std::uint64_t{1} << 32);
}

TEST(Prefix, Slash32IsSingleAddress) {
  const Prefix p{IPv4Address{8, 8, 8, 8}, 32};
  EXPECT_TRUE(p.contains(IPv4Address{8, 8, 8, 8}));
  EXPECT_FALSE(p.contains(IPv4Address{8, 8, 8, 9}));
  EXPECT_EQ(p.size(), 1u);
}

struct ContainsCase {
  const char* prefix;
  const char* address;
  bool contained;
};

// Prints a case by its strings so the test name is the same on every run
// (the default byte dump shows the pointers' addresses).
void PrintTo(const ContainsCase& c, std::ostream* os) {
  *os << c.prefix << (c.contained ? " has " : " lacks ") << c.address;
}

class PrefixContains : public ::testing::TestWithParam<ContainsCase> {};

TEST_P(PrefixContains, Matches) {
  const auto& c = GetParam();
  const auto prefix = Prefix::parse(c.prefix);
  const auto address = IPv4Address::parse(c.address);
  ASSERT_TRUE(prefix.has_value());
  ASSERT_TRUE(address.has_value());
  EXPECT_EQ(prefix->contains(*address), c.contained)
      << c.prefix << " contains " << c.address;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrefixContains,
    ::testing::Values(ContainsCase{"10.0.0.0/8", "10.255.1.2", true},
                      ContainsCase{"10.0.0.0/8", "11.0.0.0", false},
                      ContainsCase{"214.32.0.0/11", "214.63.255.255", true},
                      ContainsCase{"214.32.0.0/11", "214.64.0.0", false},
                      ContainsCase{"214.32.0.0/11", "214.31.255.255", false},
                      ContainsCase{"0.0.0.0/1", "127.255.255.255", true},
                      ContainsCase{"0.0.0.0/1", "128.0.0.0", false},
                      ContainsCase{"192.0.2.128/25", "192.0.2.128", true},
                      ContainsCase{"192.0.2.128/25", "192.0.2.127", false}));

TEST(Prefix, ContainsPrefixRequiresCoverage) {
  const auto outer = *Prefix::parse("10.0.0.0/8");
  const auto inner = *Prefix::parse("10.32.0.0/11");
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
  EXPECT_TRUE(outer.contains(outer));
}

TEST(Prefix, ParseRejectsBadMask) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/8x").has_value());
}

TEST(Prefix, BareAddressParsesAsHostRoute) {
  const auto p = Prefix::parse("198.51.100.7");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 32);
  EXPECT_EQ(p->address(), (IPv4Address{198, 51, 100, 7}));
}

TEST(Slash24, TruncatesToSubnet) {
  EXPECT_EQ(to_slash24(IPv4Address{10, 1, 2, 200}),
            (Prefix{IPv4Address{10, 1, 2, 0}, 24}));
  EXPECT_EQ(to_slash24(IPv4Address{10, 1, 2, 200}),
            to_slash24(IPv4Address{10, 1, 2, 3}));
  EXPECT_NE(to_slash24(IPv4Address{10, 1, 2, 200}),
            to_slash24(IPv4Address{10, 1, 3, 200}));
}

TEST(Hashing, DistinctAddressesUsuallyDiffer) {
  const std::hash<IPv4Address> h;
  EXPECT_NE(h(IPv4Address{1, 2, 3, 4}), h(IPv4Address{1, 2, 3, 5}));
}

}  // namespace
}  // namespace infilter::net
