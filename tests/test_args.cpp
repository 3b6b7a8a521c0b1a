// util::Args: option parsing and numeric validation for the tools/ CLIs.

#include "util/args.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace infilter::util {
namespace {

/// The value options the tests below pass.
const std::vector<std::string> kValueNames = {"threads", "offset", "queue-depth",
                                              "seed"};

Result<Args> try_parse(std::vector<const char*> argv,
                       const std::vector<std::string>& flags = {},
                       const std::vector<std::string>& values = kValueNames) {
  argv.insert(argv.begin(), "prog");
  return Args::parse(static_cast<int>(argv.size()), argv.data(), flags, values);
}

Args parse(std::vector<const char*> argv,
           const std::vector<std::string>& flags = {}) {
  const auto parsed = try_parse(std::move(argv), flags);
  EXPECT_TRUE(parsed.has_value()) << parsed.error().message;
  return *parsed;
}

TEST(Args, ParsesValuesFlagsAndPositionals) {
  const auto args = parse({"capture.bin", "--threads", "4", "--idmef"}, {"idmef"});
  EXPECT_EQ(args.positional(), std::vector<std::string>{"capture.bin"});
  EXPECT_EQ(args.value("threads"), "4");
  EXPECT_TRUE(args.has("idmef"));
  EXPECT_FALSE(args.has("queue-depth"));
}

// A misspelled option is an error naming it, not a silently ignored value.
TEST(Args, RejectsTypoedOptionNamingIt) {
  const auto typo = try_parse({"capture.bin", "--thread", "4"}, {"idmef"});
  ASSERT_FALSE(typo.has_value());
  EXPECT_NE(typo.error().message.find("--thread"), std::string::npos);
  const auto flag_typo = try_parse({"--idmeff"}, {"idmef"});
  ASSERT_FALSE(flag_typo.has_value());
  EXPECT_NE(flag_typo.error().message.find("--idmeff"), std::string::npos);
}

// An option a tool no longer reads (infilter-detect's --overload) fails
// loudly instead of running as if it were not given.
TEST(Args, RejectsRemovedOverloadOption) {
  const auto removed = try_parse(
      {"mixed.bin", "--threads", "2", "--overload", "drop-oldest"}, {"idmef"});
  ASSERT_FALSE(removed.has_value());
  EXPECT_NE(removed.error().message.find("unknown option --overload"),
            std::string::npos);
}

TEST(Args, CheckedIntAcceptsInRangeValues) {
  const auto args = parse({"--threads", "8", "--offset", "-3"});
  const auto threads = args.checked_int("threads", 0, 0, 4096);
  ASSERT_TRUE(threads.has_value()) << threads.error().message;
  EXPECT_EQ(*threads, 8);
  const auto offset = args.checked_int("offset", 0, -10, 10);
  ASSERT_TRUE(offset.has_value()) << offset.error().message;
  EXPECT_EQ(*offset, -3);
  // Boundary values are in range.
  const auto zero = parse({"--threads", "0"}).checked_int("threads", 1, 0, 4096);
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(*zero, 0);
}

TEST(Args, CheckedIntAbsentOptionYieldsFallbackUnvalidated) {
  const auto args = parse({});
  // The fallback is the caller's default and is not range-checked.
  const auto depth = args.checked_int("queue-depth", 4096, 1, 1 << 24);
  ASSERT_TRUE(depth.has_value());
  EXPECT_EQ(*depth, 4096);
}

TEST(Args, CheckedIntRejectsNonNumericValue) {
  const auto args = parse({"--threads", "four"});
  const auto threads = args.checked_int("threads", 0, 0, 4096);
  ASSERT_FALSE(threads.has_value());
  EXPECT_NE(threads.error().message.find("--threads"), std::string::npos);
  EXPECT_NE(threads.error().message.find("four"), std::string::npos);
  // int_or, by contrast, silently yields 0 -- the hazard checked_int closes.
  EXPECT_EQ(args.int_or("threads", 7), 0);
}

TEST(Args, CheckedIntRejectsTrailingJunk) {
  const auto args = parse({"--queue-depth", "512k"});
  const auto depth = args.checked_int("queue-depth", 4096, 1, 1 << 24);
  ASSERT_FALSE(depth.has_value());
  EXPECT_NE(depth.error().message.find("512k"), std::string::npos);
}

TEST(Args, CheckedIntRejectsEmptyValue) {
  const auto args = parse({"--threads", ""});
  EXPECT_FALSE(args.checked_int("threads", 0, 0, 4096).has_value());
}

TEST(Args, CheckedIntRejectsOutOfRangeNamingTheRange) {
  const auto args = parse({"--threads", "5000", "--queue-depth", "0"});
  const auto threads = args.checked_int("threads", 0, 0, 4096);
  ASSERT_FALSE(threads.has_value());
  EXPECT_NE(threads.error().message.find("[0, 4096]"), std::string::npos);
  const auto depth = args.checked_int("queue-depth", 4096, 1, 1 << 24);
  ASSERT_FALSE(depth.has_value());
  EXPECT_NE(depth.error().message.find("out of range"), std::string::npos);
}

TEST(Args, CheckedIntRejectsOverflow) {
  const auto args = parse({"--seed", "99999999999999999999999999"});
  EXPECT_FALSE(args.checked_int("seed", 1).has_value());
}

}  // namespace
}  // namespace infilter::util
