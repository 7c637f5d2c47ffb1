// Unit tests for the util layer: Status/Result, the seekable RNG, the
// Julian-date calendar, fixed-point decimals, strings, flat files and the
// thread pool.

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <set>

#include "temp_path.h"
#include "util/date.h"
#include "util/decimal.h"
#include "util/flatfile.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace tpcds {
namespace {

// ---------------------------------------------------------------- status

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status err = Status::InvalidArgument("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.message(), "bad");
  EXPECT_EQ(err.ToString(), "Invalid argument: bad");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v;
}

Result<int> Doubled(int v) {
  TPCDS_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, ValueAndErrorPropagation) {
  Result<int> ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Doubled(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

// ----------------------------------------------------------------- random

TEST(RngTest, DeterministicPerSeed) {
  RngStream a(7);
  RngStream b(7);
  RngStream c(8);
  bool saw_difference = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.NextUint64();
    EXPECT_EQ(va, b.NextUint64());
    if (va != c.NextUint64()) saw_difference = true;
  }
  EXPECT_TRUE(saw_difference);
}

class RngSeekTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeekTest, SeekMatchesSequentialDraws) {
  uint64_t target = GetParam();
  RngStream sequential(99);
  for (uint64_t i = 0; i < target; ++i) sequential.NextUint64();
  uint64_t expected = sequential.NextUint64();

  RngStream seeker(99);
  seeker.SeekTo(target);
  EXPECT_EQ(seeker.offset(), target);
  EXPECT_EQ(seeker.NextUint64(), expected) << "offset " << target;
}

INSTANTIATE_TEST_SUITE_P(JumpTargets, RngSeekTest,
                         ::testing::Values(0, 1, 2, 3, 7, 64, 1000, 4097,
                                           123456, 999999));

TEST(RngTest, SeekBackwards) {
  RngStream rng(5);
  std::vector<uint64_t> first(16);
  for (uint64_t& v : first) v = rng.NextUint64();
  rng.SeekTo(4);
  EXPECT_EQ(rng.NextUint64(), first[4]);
  rng.SeekTo(0);
  EXPECT_EQ(rng.NextUint64(), first[0]);
}

TEST(RngTest, UniformIntBoundsAndCoverage) {
  RngStream rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 12);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 12);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  RngStream rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  RngStream rng(17);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / kN;
  double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
  EXPECT_NEAR(rng.Gaussian(100.0, 0.0), 100.0, 1e-9);
}

TEST(RngTest, WeightedPickFollowsWeights) {
  RngStream rng(19);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) ++counts[rng.WeightedPick(weights)];
  EXPECT_EQ(counts[2], 0);  // zero weight never picked
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.6, 0.02);
}

TEST(RngTest, DeriveSeedSeparatesStreams) {
  EXPECT_NE(DeriveSeed(1, 2, 3), DeriveSeed(1, 2, 4));
  EXPECT_NE(DeriveSeed(1, 2, 3), DeriveSeed(1, 3, 3));
  EXPECT_NE(DeriveSeed(1, 2, 3), DeriveSeed(2, 2, 3));
  EXPECT_EQ(DeriveSeed(1, 2, 3), DeriveSeed(1, 2, 3));
}

// ------------------------------------------------------------------ date

TEST(DateTest, KnownDates) {
  Date d = Date::FromYmd(2000, 1, 1);
  EXPECT_EQ(d.jdn(), 2451545);
  EXPECT_EQ(d.year(), 2000);
  EXPECT_EQ(d.month(), 1);
  EXPECT_EQ(d.day(), 1);
  EXPECT_STREQ(d.DayName(), "Saturday");
  EXPECT_EQ(d.ToString(), "2000-01-01");
}

TEST(DateTest, RoundTripAcrossTwoCenturies) {
  Date begin = Date::FromYmd(1900, 1, 1);
  for (int i = 0; i < 73049; i += 37) {  // sample the date_dim domain
    Date d = begin.AddDays(i);
    Date back = Date::FromYmd(d.year(), d.month(), d.day());
    ASSERT_EQ(back.jdn(), d.jdn()) << d.ToString();
  }
  // 73049 rows cover 1900-01-01 .. 2099-12-31; the next day is 2100-01-01.
  EXPECT_EQ(begin.AddDays(73048).ToString(), "2099-12-31");
  EXPECT_EQ(begin.AddDays(73049).ToString(), "2100-01-01");
}

TEST(DateTest, LeapYears) {
  EXPECT_TRUE(Date::IsLeapYear(2000));
  EXPECT_FALSE(Date::IsLeapYear(1900));
  EXPECT_TRUE(Date::IsLeapYear(1996));
  EXPECT_FALSE(Date::IsLeapYear(1999));
  EXPECT_EQ(Date::DaysInMonth(2000, 2), 29);
  EXPECT_EQ(Date::DaysInMonth(1900, 2), 28);
  EXPECT_EQ(Date::FromYmd(2000, 2, 28).AddDays(1).ToString(), "2000-02-29");
}

TEST(DateTest, ParseAndValidate) {
  Result<Date> ok = Date::Parse("1999-02-21");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->ToString(), "1999-02-21");
  EXPECT_FALSE(Date::Parse("1999-02-30").ok());
  EXPECT_FALSE(Date::Parse("not a date").ok());
  EXPECT_FALSE(Date::Parse("1999-13-01").ok());
  EXPECT_FALSE(Date::IsValidYmd(2001, 2, 29));
}

TEST(DateTest, CalendarHelpers) {
  Date d = Date::FromYmd(2001, 5, 17);
  EXPECT_EQ(d.Quarter(), 2);
  EXPECT_EQ(d.DayOfYear(), 31 + 28 + 31 + 30 + 17);
  EXPECT_EQ(d.EndOfMonth().day(), 31);
  EXPECT_EQ(d.WeekOfYear(), 1 + (d.DayOfYear() - 1) / 7);
  EXPECT_EQ(Date::FromYmd(2001, 6, 1) - d, 15);
  EXPECT_STREQ(d.MonthName(), "May");
}

// --------------------------------------------------------------- decimal

TEST(DecimalTest, ParseAndPrint) {
  EXPECT_EQ(Decimal::Parse("12.34")->cents(), 1234);
  EXPECT_EQ(Decimal::Parse("-0.05")->cents(), -5);
  EXPECT_EQ(Decimal::Parse("7")->cents(), 700);
  EXPECT_EQ(Decimal::Parse("7.5")->cents(), 750);
  EXPECT_EQ(Decimal::Parse("7.999")->cents(), 800);  // rounds
  EXPECT_FALSE(Decimal::Parse("").ok());
  EXPECT_FALSE(Decimal::Parse("abc").ok());
  EXPECT_FALSE(Decimal::Parse("1.2.3").ok());
  EXPECT_EQ(Decimal::FromCents(-1234).ToString(), "-12.34");
  EXPECT_EQ(Decimal::FromCents(5).ToString(), "0.05");
}

TEST(DecimalTest, ArithmeticIsExact) {
  Decimal a = Decimal::FromCents(1050);  // 10.50
  Decimal b = Decimal::FromCents(275);   // 2.75
  EXPECT_EQ((a + b).cents(), 1325);
  EXPECT_EQ((a - b).cents(), 775);
  EXPECT_EQ((a * 3).cents(), 3150);
  EXPECT_EQ((-a).cents(), -1050);
  // Summing a million cents-values stays exact.
  Decimal total;
  for (int i = 0; i < 1000000; ++i) total += Decimal::FromCents(1);
  EXPECT_EQ(total.cents(), 1000000);
}

TEST(DecimalTest, MultiplyByDoubleRounds) {
  Decimal price = Decimal::FromCents(999);  // 9.99
  EXPECT_EQ(price.MultipliedBy(0.5).cents(), 500);  // 4.995 -> 5.00
  EXPECT_EQ(price.MultipliedBy(0.0).cents(), 0);
  // 1.005 is not exactly representable in binary (1.00499...), so use an
  // unambiguous value to check half-away-from-zero rounding.
  EXPECT_EQ(Decimal::FromDouble(1.0051).cents(), 101);
  EXPECT_EQ(Decimal::FromDouble(-1.0051).cents(), -101);
  EXPECT_EQ(Decimal::FromDouble(1.25).cents(), 125);
}

// ---------------------------------------------------------------- strings

TEST(StringUtilTest, SplitJoinTrimCase) {
  EXPECT_EQ(Split("a|b||c", '|'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "SELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_TRUE(StartsWith("ss_item_sk", "ss_"));
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-42), "-42");
  EXPECT_EQ(FormatWithCommas(100), "100");
}

// --------------------------------------------------------------- flatfile

TEST(FlatFileTest, WriteReadRoundTrip) {
  std::string path = ProcessTempPath("tpcds_ff_test.dat");
  {
    FlatFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append({"1", "AAAA", "", "3.14"}).ok());
    ASSERT_TRUE(writer.Append({"2", "BBBB", "x", ""}).ok());
    EXPECT_EQ(writer.rows_written(), 2u);
    ASSERT_TRUE(writer.Close().ok());
  }
  FlatFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"1", "AAAA", "", "3.14"}));
  ASSERT_TRUE(reader.Next(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"2", "BBBB", "x", ""}));
  EXPECT_FALSE(reader.Next(&fields));
  std::remove(path.c_str());
}

TEST(FlatFileTest, CountingSinkMeasuresRawBytes) {
  CountingRowSink sink;
  ASSERT_TRUE(sink.Append({"ab", "c"}).ok());  // "ab|c|\n" = 6 bytes
  EXPECT_EQ(sink.rows(), 1u);
  EXPECT_EQ(sink.bytes(), 6u);
}

// ------------------------------------------------------------- threadpool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
  // The pool stays usable after WaitIdle.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 101);
}

}  // namespace
}  // namespace tpcds
