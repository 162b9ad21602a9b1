#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/time.h"

namespace ixp {
namespace {

// ---------------------------------------------------------------------------
// time

TEST(Time, CalendarEpochIsMonday) {
  const CalendarTime c = to_calendar(TimePoint{});
  EXPECT_EQ(c.day, 0);
  EXPECT_EQ(c.day_of_week, 0);  // Monday
  EXPECT_FALSE(c.is_weekend);
  EXPECT_DOUBLE_EQ(c.hour_of_day, 0.0);
}

TEST(Time, WeekendDetection) {
  EXPECT_FALSE(to_calendar(TimePoint(kDay * 4)).is_weekend);  // Friday
  EXPECT_TRUE(to_calendar(TimePoint(kDay * 5)).is_weekend);   // Saturday
  EXPECT_TRUE(to_calendar(TimePoint(kDay * 6)).is_weekend);   // Sunday
  EXPECT_FALSE(to_calendar(TimePoint(kDay * 7)).is_weekend);  // next Monday
}

TEST(Time, HourOfDay) {
  const TimePoint t(kDay * 3 + kHour * 14 + kMinute * 30);
  const CalendarTime c = to_calendar(t);
  EXPECT_EQ(c.day, 3);
  EXPECT_NEAR(c.hour_of_day, 14.5, 1e-9);
}

TEST(Time, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(27.9)), 27.9);
  EXPECT_DOUBLE_EQ(to_sec(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_hours(kHour * 20), 20.0);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(milliseconds(27.9)), "27.9ms");
  EXPECT_EQ(format_duration(kHour * 2 + kMinute * 14), "2h14m");
  EXPECT_EQ(format_duration(kMinute * 3 + kSecond * 5), "3m05s");
}

TEST(Time, ArithmeticAndComparison) {
  TimePoint a(kHour);
  TimePoint b = a + kMinute * 30;
  EXPECT_GT(b, a);
  EXPECT_EQ(b - a, kMinute * 30);
  a += kMinute * 30;
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// rng

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0, ss = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    ss += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(ss / n, 1.0, 0.05);
}

TEST(Rng, ChanceProbability) {
  Rng r(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(21);
  Rng child = parent.fork();
  // The child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next() == child.next();
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------------------
// strings

TEST(Strings, Split) {
  const auto parts = split("a|b||c", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("traceroute", "trace"));
  EXPECT_FALSE(starts_with("trace", "traceroute"));
  EXPECT_TRUE(ends_with("file.csv", ".csv"));
  EXPECT_FALSE(ends_with("csv", "file.csv"));
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(parse_u64(" 7 ", v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(parse_u64("12a", v));
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("-3", v));
  EXPECT_FALSE(parse_u64("99999999999999999999999", v));  // overflow
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.25", v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(parse_double("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(parse_double("3.25x", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("AS%u-%s", 30997u, "GIXA"), "AS30997-GIXA");
}

TEST(Strings, HumanCountAndBytes) {
  EXPECT_EQ(human_count(999), "999");
  EXPECT_EQ(human_count(1500), "1.5k");
  EXPECT_EQ(human_count(2.1e6), "2.1M");
  EXPECT_EQ(human_count(3.2e9), "3.2G");
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(1536), "1.5 KiB");
  EXPECT_EQ(human_bytes(16.0 * 1024 * 1024), "16.0 MiB");
  EXPECT_EQ(human_bytes(1.5 * 1024 * 1024 * 1024), "1.5 GiB");
}

// ---------------------------------------------------------------------------
// csv

TEST(Strings, JsonEscape) {
  EXPECT_EQ(json_escape("plain AS30997-AS65001"), "plain AS30997-AS65001");
  EXPECT_EQ(json_escape("q\"b\\"), "q\\\"b\\\\");
  EXPECT_EQ(json_escape("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f\0", 3)), "\\u0001\\u001f\\u0000");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  {
    CsvWriter w(out);
    w.header({"time", "rtt_ms", "label"});
    w.row().cell(std::int64_t{5}).cell(27.9).cell("far,end");
  }
  EXPECT_EQ(out.str(), "time,rtt_ms,label\n5,27.9,\"far,end\"\n");
}

TEST(Csv, NanRendersAsNan) {
  std::ostringstream out;
  {
    CsvWriter w(out);
    w.row().cell(std::nan(""));
  }
  EXPECT_EQ(out.str(), "nan\n");
}

// ---------------------------------------------------------------------------
// flags

Flags make_flags() {
  Flags f("tool", "test tool");
  f.add_string("name", "default", "a string");
  f.add_int("count", 7, "an int");
  f.add_double("ratio", 0.5, "a double");
  f.add_bool("verbose", false, "a bool");
  return f;
}

TEST(Flags, DefaultsApply) {
  auto f = make_flags();
  const char* argv[] = {"tool"};
  ASSERT_TRUE(f.parse(1, argv));
  EXPECT_EQ(f.get_string("name"), "default");
  EXPECT_EQ(f.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.5);
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, EqualsAndSpaceSyntax) {
  auto f = make_flags();
  const char* argv[] = {"tool", "--name=x", "--count", "42", "--ratio=1.25"};
  ASSERT_TRUE(f.parse(5, argv));
  EXPECT_EQ(f.get_string("name"), "x");
  EXPECT_EQ(f.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 1.25);
}

TEST(Flags, BoolForms) {
  {
    auto f = make_flags();
    const char* argv[] = {"tool", "--verbose"};
    ASSERT_TRUE(f.parse(2, argv));
    EXPECT_TRUE(f.get_bool("verbose"));
  }
  {
    auto f = make_flags();
    const char* argv[] = {"tool", "--verbose", "--no-verbose"};
    ASSERT_TRUE(f.parse(3, argv));
    EXPECT_FALSE(f.get_bool("verbose"));
  }
  {
    auto f = make_flags();
    const char* argv[] = {"tool", "--verbose=true"};
    ASSERT_TRUE(f.parse(2, argv));
    EXPECT_TRUE(f.get_bool("verbose"));
  }
}

TEST(Flags, PositionalCollected) {
  auto f = make_flags();
  const char* argv[] = {"tool", "first.wlt", "--count=1", "second.wlt"};
  ASSERT_TRUE(f.parse(4, argv));
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "first.wlt");
  EXPECT_EQ(f.positional()[1], "second.wlt");
}

TEST(Flags, UnknownFlagRejected) {
  auto f = make_flags();
  const char* argv[] = {"tool", "--bogus=1"};
  EXPECT_FALSE(f.parse(2, argv));
  EXPECT_NE(f.error().find("bogus"), std::string::npos);
}

TEST(Flags, MalformedValuesRejected) {
  {
    auto f = make_flags();
    const char* argv[] = {"tool", "--count=abc"};
    EXPECT_FALSE(f.parse(2, argv));
  }
  {
    auto f = make_flags();
    const char* argv[] = {"tool", "--verbose=maybe"};
    EXPECT_FALSE(f.parse(2, argv));
  }
  {
    auto f = make_flags();
    const char* argv[] = {"tool", "--name"};
    EXPECT_FALSE(f.parse(2, argv));  // missing value
  }
}

TEST(Flags, HelpRequested) {
  auto f = make_flags();
  const char* argv[] = {"tool", "--help"};
  ASSERT_TRUE(f.parse(2, argv));
  EXPECT_TRUE(f.help_requested());
  const auto text = f.help_text();
  EXPECT_NE(text.find("--count"), std::string::npos);
  EXPECT_NE(text.find("an int"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ascii chart

TEST(AsciiChart, RendersSpikes) {
  AsciiSeries s;
  s.name = "far";
  s.glyph = '*';
  s.values.assign(1000, 1.0);
  s.values[500] = 50.0;  // narrow spike must survive downsampling
  AsciiChartOptions opt;
  opt.width = 50;
  opt.height = 8;
  const std::string chart = render_ascii_chart({s}, opt);
  EXPECT_NE(chart.find('*'), std::string::npos);
  // The top row (y = 50) must contain the spike.
  const auto first_line_end = chart.find('\n');
  EXPECT_NE(chart.substr(0, first_line_end).find('*'), std::string::npos);
}

TEST(AsciiChart, HandlesAllNaN) {
  AsciiSeries s;
  s.values.assign(100, std::nan(""));
  const std::string chart = render_ascii_chart({s});
  EXPECT_FALSE(chart.empty());
}

}  // namespace
}  // namespace ixp
