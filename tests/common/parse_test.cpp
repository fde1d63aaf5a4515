#include "ftmc/common/parse.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cstdint>
#include <string>

namespace ftmc {
namespace {

TEST(NumberParse, IntegersParseWhole) {
  EXPECT_EQ(*parse_int("--n", "42"), 42);
  EXPECT_EQ(*parse_int("--n", "-7"), -7);
  EXPECT_EQ(*parse_int("--n", "9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*parse_uint64("--seed", "18446744073709551615"), UINT64_MAX);
}

TEST(NumberParse, EmptyAndJunkAreRejectedNamingTheFlag) {
  for (const char* bad : {"", " 1", "1 ", "12x", "x12", "+3", "0x10", "1e3",
                          "1.5"}) {
    const Expected<long long> r = parse_int("--cases", bad);
    ASSERT_FALSE(r.ok()) << '"' << bad << '"';
    EXPECT_NE(r.error().find("--cases"), std::string::npos) << r.error();
  }
  EXPECT_FALSE(parse_double("--p", "").ok());
  EXPECT_FALSE(parse_double("--p", "0.5x").ok());
  EXPECT_FALSE(parse_double("--p", "abc").ok());
}

TEST(NumberParse, OverflowIsAnErrorNotAClamp) {
  const Expected<long long> big =
      parse_int("--cases", "99999999999999999999999");
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.error().find("out of range"), std::string::npos)
      << big.error();
  EXPECT_FALSE(parse_int("--n", "-9223372036854775809").ok());
  EXPECT_FALSE(parse_uint64("--seed", "18446744073709551616").ok());
  EXPECT_FALSE(parse_double("--x", "1e999").ok());
}

TEST(NumberParse, NegativeUnsignedDoesNotWrap) {
  EXPECT_FALSE(parse_uint64("--seed", "-1").ok());
  EXPECT_FALSE(parse_uint64("--seed", "-0").ok());
}

TEST(NumberParse, DomainBoundsAreInclusive) {
  EXPECT_EQ(*parse_int("--port", "65535", 0, 65535), 65535);
  EXPECT_EQ(*parse_int("--port", "0", 0, 65535), 0);
  const Expected<long long> r = parse_int("--port", "65536", 0, 65535);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("[0, 65535]"), std::string::npos) << r.error();
  EXPECT_EQ(*parse_double("--p", "0", 0.0, 1.0), 0.0);
  EXPECT_FALSE(parse_double("--p", "2", 0.0, 1.0).ok());
  EXPECT_FALSE(parse_double("--p", "-0.5", 0.0, 1.0).ok());
}

TEST(NumberParse, DoublesAreFiniteAndExact) {
  EXPECT_EQ(*parse_double("--x", "0.001"), 0.001);
  EXPECT_EQ(*parse_double("--x", "-2.5e3"), -2500.0);
  EXPECT_FALSE(parse_double("--x", "inf").ok());
  EXPECT_FALSE(parse_double("--x", "nan").ok());
}

TEST(NumberParse, IgnoresTheGlobalLocale) {
  // A decimal-comma locale must change neither accepted spellings nor
  // values (skipped where the locale is not installed).
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
    GTEST_SKIP() << "de_DE.UTF-8 not installed";
  }
  const Expected<double> dot = parse_double("--x", "0.25");
  const Expected<double> comma = parse_double("--x", "0,25");
  std::setlocale(LC_NUMERIC, saved.c_str());
  ASSERT_TRUE(dot.ok()) << dot.error();
  EXPECT_EQ(*dot, 0.25);
  EXPECT_FALSE(comma.ok());
}

}  // namespace
}  // namespace ftmc
