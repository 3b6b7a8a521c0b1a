// Tests for the Table 1 sub-block scheme (net/subblocks.h).

#include "net/subblocks.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>

namespace infilter::net {
namespace {

TEST(SubBlocks, TableOneHas143Blocks) {
  EXPECT_EQ(slash8_first_octets().size(), 143u);
  EXPECT_EQ(kTotalSubBlocks, 1144);
}

TEST(SubBlocks, FirstOctetsAscendAndMatchTableEndpoints) {
  const auto octets = slash8_first_octets();
  for (std::size_t i = 1; i < octets.size(); ++i) {
    EXPECT_LT(octets[i - 1], octets[i]);
  }
  EXPECT_EQ(octets.front(), 3);   // Table 1 starts at 003/8
  EXPECT_EQ(octets.back(), 222);  // and ends at 222/8
}

// The paper's worked examples: "3.0/11 would be represented by 1a,
// 3.32/11 by 1b, 4.64/11 by 2c, 9.0/11 by 5a, ... 204.224/11 by 125h".
struct NotationCase {
  const char* notation;
  const char* prefix;
};

// Prints a case by its strings so the test name is the same on every run
// (the default byte dump shows the pointers' addresses).
void PrintTo(const NotationCase& c, std::ostream* os) {
  *os << c.notation << " is " << c.prefix;
}

class SubBlockNotation : public ::testing::TestWithParam<NotationCase> {};

TEST_P(SubBlockNotation, MatchesPaperExamples) {
  const auto& c = GetParam();
  const auto block = SubBlock::parse(c.notation);
  ASSERT_TRUE(block.has_value()) << c.notation;
  EXPECT_EQ(block->prefix(), *Prefix::parse(c.prefix)) << c.notation;
  EXPECT_EQ(block->notation(), c.notation);
}

INSTANTIATE_TEST_SUITE_P(PaperExamples, SubBlockNotation,
                         ::testing::Values(NotationCase{"1a", "3.0.0.0/11"},
                                           NotationCase{"1b", "3.32.0.0/11"},
                                           NotationCase{"2c", "4.64.0.0/11"},
                                           NotationCase{"5a", "9.0.0.0/11"},
                                           NotationCase{"125h", "204.224.0.0/11"},
                                           NotationCase{"13d", "18.96.0.0/11"},
                                           NotationCase{"143h", "222.224.0.0/11"}));

TEST(SubBlocks, PaperSubBlockBreakdownOf214) {
  // Section 6.2 example: 214/8 breaks into 214.0/11, 214.32/11, ...,
  // 214.224/11. 214 is in Table 1; find its block and verify all eight.
  const auto first = SubBlock::containing(IPv4Address{214, 0, 0, 0});
  ASSERT_TRUE(first.has_value());
  for (int letter = 0; letter < 8; ++letter) {
    const SubBlock block{(first->block_number() - 1) * 8 + letter};
    EXPECT_EQ(block.prefix().address(),
              (IPv4Address{214, static_cast<std::uint8_t>(letter << 5), 0, 0}));
    EXPECT_EQ(block.prefix().length(), 11);
  }
}

TEST(SubBlocks, RoundTripAllIndices) {
  for (int i = 0; i < kTotalSubBlocks; ++i) {
    const SubBlock block{i};
    const auto parsed = SubBlock::parse(block.notation());
    ASSERT_TRUE(parsed.has_value()) << block.notation();
    EXPECT_EQ(parsed->index(), i);
  }
}

TEST(SubBlocks, PrefixesAreDisjointAndCoverTableBlocks) {
  std::set<std::uint32_t> starts;
  for (int i = 0; i < kTotalSubBlocks; ++i) {
    const auto prefix = SubBlock{i}.prefix();
    EXPECT_TRUE(starts.insert(prefix.address().value()).second)
        << "duplicate prefix " << prefix.to_string();
    EXPECT_EQ(prefix.length(), 11);
  }
  EXPECT_EQ(starts.size(), static_cast<std::size_t>(kTotalSubBlocks));
}

TEST(SubBlocks, ContainingFindsOwnPrefix) {
  for (int i = 0; i < kTotalSubBlocks; i += 7) {
    const SubBlock block{i};
    // First, middle, and last address of the /11 all map back.
    const auto p = block.prefix();
    for (const auto address :
         {p.first(), IPv4Address{p.first().value() + p.size() / 2u}, p.last()}) {
      const auto found = SubBlock::containing(address);
      ASSERT_TRUE(found.has_value()) << p.to_string();
      EXPECT_EQ(found->index(), i);
    }
  }
}

TEST(SubBlocks, ContainingRejectsUnallocatedSpace) {
  // 0/8, 10/8 (private), 127/8 (loopback), 223/8+ are not in Table 1.
  EXPECT_FALSE(SubBlock::containing(IPv4Address{0, 1, 2, 3}).has_value());
  EXPECT_FALSE(SubBlock::containing(IPv4Address{10, 0, 0, 1}).has_value());
  EXPECT_FALSE(SubBlock::containing(IPv4Address{127, 0, 0, 1}).has_value());
  EXPECT_FALSE(SubBlock::containing(IPv4Address{223, 0, 0, 1}).has_value());
  EXPECT_FALSE(SubBlock::containing(IPv4Address{255, 255, 255, 255}).has_value());
}

TEST(SubBlocks, ParseRejectsGarbage) {
  EXPECT_FALSE(SubBlock::parse("").has_value());
  EXPECT_FALSE(SubBlock::parse("a").has_value());
  EXPECT_FALSE(SubBlock::parse("0a").has_value());
  EXPECT_FALSE(SubBlock::parse("144a").has_value());
  EXPECT_FALSE(SubBlock::parse("12i").has_value());
  EXPECT_FALSE(SubBlock::parse("12A").has_value());
  EXPECT_FALSE(SubBlock::parse("x2a").has_value());
}

TEST(SubBlockRange, ParseAndExpand) {
  const auto range = SubBlockRange::parse("1a-2h");
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->size(), 16);
  const auto blocks = range->expand();
  ASSERT_EQ(blocks.size(), 16u);
  EXPECT_EQ(blocks.front().notation(), "1a");
  EXPECT_EQ(blocks.back().notation(), "2h");
}

TEST(SubBlockRange, SingleBlockRange) {
  const auto range = SubBlockRange::parse("13c");
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->size(), 1);
  EXPECT_EQ(range->notation(), "13c");
}

TEST(SubBlockRange, RejectsReversedRange) {
  EXPECT_FALSE(SubBlockRange::parse("2a-1a").has_value());
}

TEST(SubBlockRange, ContainsIsInclusive) {
  const auto range = *SubBlockRange::parse("13e-25h");
  EXPECT_TRUE(range.contains(*SubBlock::parse("13e")));
  EXPECT_TRUE(range.contains(*SubBlock::parse("25h")));
  EXPECT_TRUE(range.contains(*SubBlock::parse("20a")));
  EXPECT_FALSE(range.contains(*SubBlock::parse("13d")));
  EXPECT_FALSE(range.contains(*SubBlock::parse("26a")));
}

TEST(SubBlocks, First1000CoverBlocks1Through125) {
  // "the 1000 address blocks used in our experiments are obtained by
  // breaking blocks 3/8 thru 204/8 ... and ignoring 205/8 onwards".
  const SubBlock last_used{kUsedSubBlocks - 1};
  EXPECT_EQ(last_used.notation(), "125h");
  EXPECT_EQ(last_used.prefix().address().octet(0), 204);
  const SubBlock first_unused{kUsedSubBlocks};
  EXPECT_EQ(first_unused.prefix().address().octet(0), 205);
}

}  // namespace
}  // namespace infilter::net
