// Unit tests for the string/CSV helpers.

#include "common/strings.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <sstream>

namespace uclean {
namespace {

TEST(SplitString, BasicFields) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitString, PreservesEmptyFields) {
  EXPECT_EQ(SplitString(",x,", ','), (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(JoinStrings, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"1", "two", "", "3.5"};
  EXPECT_EQ(SplitString(JoinStrings(parts, ","), ','), parts);
}

TEST(StripWhitespace, AllSides) {
  EXPECT_EQ(StripWhitespace("  x y\t\r\n"), "x y");
  EXPECT_EQ(StripWhitespace("\t\n "), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e-3 "), -1e-3);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("1.5 2.5").ok());
}

TEST(ParseInt, Valid) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt(" -7 "), -7);
  EXPECT_EQ(*ParseInt("0"), 0);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12.5").ok());
  EXPECT_FALSE(ParseInt("x12").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999999").ok());
}

TEST(FormatDouble, RoundTrips) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2.5e17}) {
    EXPECT_DOUBLE_EQ(*ParseDouble(FormatDouble(v)), v);
  }
}

// FormatDouble prints the bytes an ostringstream at max_digits10 printed
// before it went through std::to_chars; CSV files and reply lines
// depend on them.
TEST(FormatDouble, MatchesOstreamAtMaxDigits10) {
  const auto reference = [](double v) {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
  };
  using Limits = std::numeric_limits<double>;
  std::vector<double> corpus = {
      0.0,          -0.0,           Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(),          -Limits::quiet_NaN(),
      Limits::denorm_min(),         -Limits::denorm_min(),
      Limits::min(), -Limits::min(), Limits::max(),     Limits::lowest(),
      Limits::epsilon(), 1.0,       0.1,                1e21,
      1e-5,         123456789012345678.0};
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 100000; ++i) {
    uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    corpus.push_back(v);  // any bit pattern: NaN payloads, both signs
    corpus.push_back(unit(rng));
    bits = rng() >> 12;  // a subnormal
    std::memcpy(&v, &bits, sizeof v);
    corpus.push_back(v);
  }
  for (double v : corpus) {
    ASSERT_EQ(FormatDouble(v), reference(v));
  }
}

}  // namespace
}  // namespace uclean
