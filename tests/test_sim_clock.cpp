#include <gtest/gtest.h>

#include "common/sim_clock.h"

namespace tamper::common {
namespace {

TEST(SimClock, EpochIsJan1970Thursday) {
  const CivilTime ct = to_civil(0.0);
  EXPECT_EQ(ct.year, 1970);
  EXPECT_EQ(ct.month, 1);
  EXPECT_EQ(ct.day, 1);
  EXPECT_EQ(ct.hour, 0);
  EXPECT_EQ(ct.weekday, 4);  // Thursday
}

TEST(SimClock, KnownDateJan2023) {
  // 2023-01-12 was a Thursday.
  const SimTime t = from_civil(2023, 1, 12);
  const CivilTime ct = to_civil(t);
  EXPECT_EQ(ct.year, 2023);
  EXPECT_EQ(ct.month, 1);
  EXPECT_EQ(ct.day, 12);
  EXPECT_EQ(ct.weekday, 4);
}

TEST(SimClock, KnownDateSept2022) {
  // 2022-09-13 was a Tuesday.
  EXPECT_EQ(to_civil(from_civil(2022, 9, 13)).weekday, 2);
}

TEST(SimClock, RoundTripWithTimeOfDay) {
  const SimTime t = from_civil(2023, 6, 30, 23, 59, 58);
  const CivilTime ct = to_civil(t);
  EXPECT_EQ(ct.hour, 23);
  EXPECT_EQ(ct.minute, 59);
  EXPECT_EQ(ct.second, 58);
}

TEST(SimClock, LeapYearFeb29) {
  const CivilTime ct = to_civil(from_civil(2024, 2, 29, 12));
  EXPECT_EQ(ct.month, 2);
  EXPECT_EQ(ct.day, 29);
}

TEST(SimClock, DayBoundaryArithmetic) {
  const SimTime t = from_civil(2023, 1, 31, 23, 0, 0) + 2 * kSecondsPerHour;
  const CivilTime ct = to_civil(t);
  EXPECT_EQ(ct.month, 2);
  EXPECT_EQ(ct.day, 1);
  EXPECT_EQ(ct.hour, 1);
}

TEST(SimClock, LocalHourAppliesOffset) {
  const SimTime midnight_utc = from_civil(2023, 1, 12);
  EXPECT_NEAR(local_hour(midnight_utc, 0.0), 0.0, 1e-9);
  EXPECT_NEAR(local_hour(midnight_utc, 3.5), 3.5, 1e-9);  // Iran
  EXPECT_NEAR(local_hour(midnight_utc, -6.0), 18.0, 1e-9);
}

TEST(SimClock, LocalHourWrapsAroundDay) {
  const SimTime t = from_civil(2023, 1, 12, 22);
  EXPECT_NEAR(local_hour(t, 8.0), 6.0, 1e-9);  // 22+8=30 -> 6
}

TEST(SimClock, WeekendDetection) {
  // 2023-01-14 was a Saturday, 2023-01-16 a Monday.
  EXPECT_TRUE(is_weekend(from_civil(2023, 1, 14, 12), 0.0));
  EXPECT_TRUE(is_weekend(from_civil(2023, 1, 15, 12), 0.0));
  EXPECT_FALSE(is_weekend(from_civil(2023, 1, 16, 12), 0.0));
}

TEST(SimClock, WeekendRespectsOffset) {
  // Friday 23:00 UTC is already Saturday in UTC+8.
  EXPECT_FALSE(is_weekend(from_civil(2023, 1, 13, 23), 0.0));
  EXPECT_TRUE(is_weekend(from_civil(2023, 1, 13, 23), 8.0));
}

TEST(SimClock, FormatDate) {
  EXPECT_EQ(format_date(from_civil(2023, 1, 12)), "2023-01-12");
  EXPECT_EQ(format_datetime(from_civil(2022, 9, 13, 4, 5, 6)), "2022-09-13 04:05:06");
}

// Round-trip sweep across many dates.
struct DateCase {
  int year, month, day;
};

// Names each case by its date instead of gtest's raw-byte print.
void PrintTo(const DateCase& d, std::ostream* os) {
  *os << d.year << '-' << (d.month < 10 ? "0" : "") << d.month << '-'
      << (d.day < 10 ? "0" : "") << d.day;
}

class CivilRoundTrip : public ::testing::TestWithParam<DateCase> {};

TEST_P(CivilRoundTrip, Holds) {
  const auto& d = GetParam();
  const CivilTime ct = to_civil(from_civil(d.year, d.month, d.day, 7, 8, 9));
  EXPECT_EQ(ct.year, d.year);
  EXPECT_EQ(ct.month, d.month);
  EXPECT_EQ(ct.day, d.day);
  EXPECT_EQ(ct.hour, 7);
}

INSTANTIATE_TEST_SUITE_P(Dates, CivilRoundTrip,
                         ::testing::Values(DateCase{1970, 1, 1}, DateCase{1999, 12, 31},
                                           DateCase{2000, 2, 29}, DateCase{2020, 2, 29},
                                           DateCase{2023, 1, 12}, DateCase{2023, 1, 26},
                                           DateCase{2022, 9, 13}, DateCase{2038, 1, 19},
                                           DateCase{2100, 3, 1}));

}  // namespace
}  // namespace tamper::common
