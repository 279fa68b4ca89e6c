// Byte parity of the JSON text writers: write_double and append_g17
// against printf's "%.17g" over seeded bit patterns and edge values, and
// write_escaped against a per-character reference over every byte value
// and random strings. Every store journal, archive point and response is
// written by write_double and write_escaped, and every evaluator
// fingerprint (the store's scope key) by append_g17, so a single differing
// byte would change them all.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "robust/json.hpp"
#include "util/rng.hpp"

namespace metacore::robust {
namespace {

std::string written(double v) {
  std::ostringstream os;
  write_double(os, v);
  return os.str();
}

std::string printf_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(WriteDouble, MatchesPrintfOverSeededBitPatterns) {
  util::CounterRng rng(0x6a736f6eULL);
  std::size_t checked = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(written(v), printf_17g(v))
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
    ++checked;
  }
  EXPECT_GT(checked, 990'000u);
}

TEST(WriteDouble, MatchesPrintfOnEdgeValues) {
  std::vector<double> values = {
      0.0, -0.0, 1e-5, 1e-4, 1e16, 1e17, 1e21, 1e22, 0.1, 0.2, 0.1 + 0.2,
      1.0 / 3.0, 2.0 / 3.0, 123456789012345678.0, 9007199254740992.0,
      9007199254740993.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0), std::nextafter(0.0, 1.0) * 3,
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0), 5e-324, 1e308,
      0.000123456789, 1e-300, 4.35, 2.675, 1e15 + 0.3};
  for (int i = -1000; i <= 1000; ++i) values.push_back(i);
  for (int e = -320; e <= 308; ++e) values.push_back(std::pow(10.0, e));
  for (const double v : values) {
    EXPECT_EQ(written(v), printf_17g(v))
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(AppendG17, MatchesPrintfOnAnyBitPatternNonFiniteIncluded) {
  const auto appended = [](double v) {
    std::string out = "x";  // appends, never overwrites
    append_g17(out, v);
    return out;
  };
  std::vector<double> values = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 0.0, -0.0, DBL_MAX,
      std::numeric_limits<double>::denorm_min(), 0.35, 1e-4};
  util::CounterRng rng(0x673137ULL);
  for (int i = 0; i < 200'000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  for (const double v : values) {
    ASSERT_EQ(appended(v), "x" + printf_17g(v))
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(WriteDouble, NonFiniteValuesUseTheBareTokens) {
  EXPECT_EQ(written(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(written(-std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(written(-std::numeric_limits<double>::infinity()), "-inf");
}

/// The writer as it escaped one character at a time.
std::string reference_escaped(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string escaped(const std::string& s) {
  std::ostringstream os;
  write_escaped(os, s);
  return os.str();
}

TEST(WriteEscaped, MatchesTheReferenceOnEveryByteValue) {
  EXPECT_EQ(escaped(""), "\"\"");
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(escaped(one), reference_escaped(one)) << "byte " << b;
    const std::string framed = "ab" + one + "cd" + one;
    EXPECT_EQ(escaped(framed), reference_escaped(framed)) << "byte " << b;
  }
}

TEST(WriteEscaped, MatchesTheReferenceOnRandomStrings) {
  util::CounterRng rng(0x657363ULL);
  for (int i = 0; i < 20'000; ++i) {
    std::string s(rng() % 48, '\0');
    for (char& c : s) {
      // Half the bytes printable ASCII, half anything (controls, quotes,
      // backslashes and high bytes included).
      c = rng() % 2 == 0 ? static_cast<char>(0x20 + rng() % 95)
                         : static_cast<char>(rng() % 256);
    }
    ASSERT_EQ(escaped(s), reference_escaped(s)) << "string " << i;
  }
}

}  // namespace
}  // namespace metacore::robust
