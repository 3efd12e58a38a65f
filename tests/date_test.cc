#include "util/date.h"

#include <gtest/gtest.h>

namespace fab {
namespace {

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ(Date(1970, 1, 1).ordinal(), 0);
  EXPECT_EQ(Date().ordinal(), 0);
}

TEST(DateTest, KnownOrdinals) {
  EXPECT_EQ(Date(1970, 1, 2).ordinal(), 1);
  EXPECT_EQ(Date(1969, 12, 31).ordinal(), -1);
  EXPECT_EQ(Date(2000, 3, 1).ordinal(), 11017);
  EXPECT_EQ(Date(2017, 1, 1).ordinal(), 17167);
}

TEST(DateTest, CivilRoundTrip) {
  const Date d(2023, 6, 30);
  EXPECT_EQ(d.year(), 2023);
  EXPECT_EQ(d.month(), 6);
  EXPECT_EQ(d.day(), 30);
}

TEST(DateTest, AddDaysCrossesMonthAndYear) {
  EXPECT_EQ(Date(2020, 12, 31).AddDays(1), Date(2021, 1, 1));
  EXPECT_EQ(Date(2020, 2, 28).AddDays(1), Date(2020, 2, 29));
  EXPECT_EQ(Date(2020, 2, 28).AddDays(2), Date(2020, 3, 1));
  EXPECT_EQ(Date(2020, 1, 15).AddDays(-15), Date(2019, 12, 31));
}

TEST(DateTest, Difference) {
  EXPECT_EQ(Date(2020, 1, 10) - Date(2020, 1, 1), 9);
  EXPECT_EQ(Date(2021, 1, 1) - Date(2020, 1, 1), 366);  // 2020 is leap
  EXPECT_EQ(Date(2020, 1, 1) - Date(2021, 1, 1), -366);
}

TEST(DateTest, Ordering) {
  EXPECT_LT(Date(2020, 1, 1), Date(2020, 1, 2));
  EXPECT_LE(Date(2020, 1, 1), Date(2020, 1, 1));
  EXPECT_GT(Date(2021, 1, 1), Date(2020, 12, 31));
  EXPECT_NE(Date(2021, 1, 1), Date(2020, 1, 1));
}

TEST(DateTest, ToStringFormatsIso) {
  EXPECT_EQ(Date(2017, 1, 1).ToString(), "2017-01-01");
  EXPECT_EQ(Date(2023, 12, 9).ToString(), "2023-12-09");
}

TEST(DailyRangeTest, InclusiveBounds) {
  const auto range = DailyRange(Date(2020, 1, 1), Date(2020, 1, 5));
  ASSERT_EQ(range.size(), 5u);
  EXPECT_EQ(range.front(), Date(2020, 1, 1));
  EXPECT_EQ(range.back(), Date(2020, 1, 5));
}

TEST(DailyRangeTest, SingleDay) {
  const auto range = DailyRange(Date(2020, 1, 1), Date(2020, 1, 1));
  EXPECT_EQ(range.size(), 1u);
}

TEST(DailyRangeTest, EmptyWhenReversed) {
  EXPECT_TRUE(DailyRange(Date(2020, 1, 2), Date(2020, 1, 1)).empty());
}

class DateRoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(DateRoundTripSweep, OrdinalRoundTripsThroughCivil) {
  const int year = GetParam();
  // Walk the whole year day by day, checking ordinal monotonicity and
  // civil round-trips.
  Date d(year, 1, 1);
  int days = 0;
  while (d.year() == year) {
    EXPECT_EQ(Date(d.year(), d.month(), d.day()), d);
    EXPECT_EQ(Date::FromOrdinal(d.ordinal()), d);
    d = d.AddDays(1);
    ++days;
  }
  const bool leap = (year % 4 == 0 && (year % 100 != 0 || year % 400 == 0));
  EXPECT_EQ(days, leap ? 366 : 365);
}

INSTANTIATE_TEST_SUITE_P(Years, DateRoundTripSweep,
                         ::testing::Values(1970, 1999, 2000, 2016, 2020, 2023,
                                           2100));

}  // namespace
}  // namespace fab
