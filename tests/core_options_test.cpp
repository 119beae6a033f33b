// Tests for the command-line option parser the example drivers and bench
// targets share, including the flag vocabulary cirrus_run exposes
// (--topo/--oversub/--placement/--mtbf/--ckpt) and its error paths.
#include "core/options.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "topo/topo.hpp"

namespace {

using cirrus::core::Options;

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, KeyValuePairsAndFlags) {
  const auto opts = parse({"--np", "32", "--verbose", "--platform", "vayu"});
  EXPECT_EQ(opts.get_int("np", 0), 32);
  EXPECT_EQ(opts.get_or("platform", "dcc"), "vayu");
  EXPECT_TRUE(opts.has("verbose"));           // flag: present, no value
  EXPECT_FALSE(opts.get("verbose"));          // ... so get() is empty
  EXPECT_FALSE(opts.has("quiet"));
  EXPECT_EQ(opts.get_int("missing", 7), 7);   // defaults pass through
  EXPECT_EQ(opts.program(), "prog");
}

TEST(Options, FlagFollowedByOptionStaysAFlag) {
  // `--check --jobs 4`: --check must not swallow "--jobs" as its value.
  const auto opts = parse({"--check", "--jobs", "4"});
  EXPECT_TRUE(opts.has("check"));
  EXPECT_FALSE(opts.get("check"));
  EXPECT_EQ(opts.get_int("jobs", 0), 4);
}

TEST(Options, PositionalsAreCollected) {
  const auto opts = parse({"CG", "--np", "16", "FT"});
  EXPECT_EQ(opts.positional(), (std::vector<std::string>{"CG", "FT"}));
}

TEST(Options, NumericParsingRejectsJunk) {
  const auto opts = parse({"--np", "3x", "--oversub", "fast", "--mtbf", "120"});
  EXPECT_THROW((void)opts.get_int("np", 0), std::invalid_argument);
  EXPECT_THROW((void)opts.get_double("oversub", 1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(opts.get_double("mtbf", 0.0), 120.0);
}

TEST(Options, IntegersOutsideIntRangeThrow) {
  // Each of these used to wrap silently (to 1, 0 and 1) instead of failing.
  const auto opts = parse({"--cache-cap", "4294967297", "--seed", "4294967296", "--jobs",
                           "-4294967295", "--np", "-2147483648", "--big", "2147483647"});
  EXPECT_THROW((void)opts.get_int("cache-cap", 0), std::invalid_argument);
  EXPECT_THROW((void)opts.get_int("seed", 1), std::invalid_argument);
  EXPECT_THROW((void)opts.get_int("jobs", 0), std::invalid_argument);
  EXPECT_EQ(opts.get_int("np", 0), -2147483647 - 1);  // the int range itself still parses
  EXPECT_EQ(opts.get_int("big", 0), 2147483647);
}

TEST(Options, BareDoubleDashThrows) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Options, LastRepeatedKeyWins) {
  const auto opts = parse({"--np", "8", "--np", "16"});
  EXPECT_EQ(opts.get_int("np", 0), 16);
}

// The cirrus_run flag vocabulary: string-valued flags are decoded by the
// topo subsystem, which owns the accepted spellings and the error messages.
TEST(Options, TopologyFlagVocabulary) {
  using cirrus::topo::Kind;
  using cirrus::topo::Placement;
  const auto opts = parse({"--topo", "fattree", "--oversub", "2", "--placement", "scatter",
                           "--mtbf", "3600", "--ckpt", "300"});
  EXPECT_EQ(cirrus::topo::kind_from_string(opts.get_or("topo", "crossbar")), Kind::FatTree);
  EXPECT_EQ(cirrus::topo::placement_from_string(opts.get_or("placement", "contig")),
            Placement::Scattered);
  EXPECT_DOUBLE_EQ(opts.get_double("oversub", 1.0), 2.0);
  EXPECT_DOUBLE_EQ(opts.get_double("mtbf", 0.0), 3600.0);
  EXPECT_DOUBLE_EQ(opts.get_double("ckpt", 0.0), 300.0);
  // Aliases and case-insensitivity.
  EXPECT_EQ(cirrus::topo::kind_from_string("Fat-Tree"), Kind::FatTree);
  EXPECT_EQ(cirrus::topo::placement_from_string("BLOCK"), Placement::Contiguous);
}

TEST(Options, BadTopologyValuesThrow) {
  EXPECT_THROW(cirrus::topo::kind_from_string("torus"), std::invalid_argument);
  EXPECT_THROW(cirrus::topo::placement_from_string("random"), std::invalid_argument);
}

TEST(Options, KeysAreSortedAndComplete) {
  const auto opts = parse({"--np", "32", "--verbose", "--alpha", "1"});
  EXPECT_EQ(opts.keys(), (std::vector<std::string>{"alpha", "np", "verbose"}));
  EXPECT_TRUE(parse({}).keys().empty());
}

TEST(Options, UnknownKeysRejectsTypos) {
  using cirrus::core::unknown_keys;
  const auto opts = parse({"--np", "32", "--sede", "7", "--verbose"});
  // "sede" (a typo of "seed") is flagged; the known flags are not.
  EXPECT_EQ(unknown_keys(opts, {"np", "seed", "verbose"}),
            (std::vector<std::string>{"sede"}));
  EXPECT_TRUE(unknown_keys(opts, {"np", "sede", "verbose"}).empty());
  // Every key unknown: all reported, sorted.
  EXPECT_EQ(unknown_keys(opts, {}), (std::vector<std::string>{"np", "sede", "verbose"}));
}

}  // namespace
