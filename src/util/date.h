#ifndef FAB_UTIL_DATE_H_
#define FAB_UTIL_DATE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fab {

/// A calendar date in the proleptic Gregorian calendar.
///
/// Dates convert losslessly to/from a day ordinal (days since 1970-01-01),
/// which is what `table::Table` uses as its row index. All simulated series
/// are daily, matching the paper's data granularity.
class Date {
 public:
  /// 1970-01-01.
  Date() : ordinal_(0) {}

  /// From a civil year/month/day. Out-of-range months/days are normalized
  /// by the ordinal conversion (e.g. Feb 30 -> Mar 1/2).
  Date(int year, int month, int day);

  /// From days since the Unix epoch (may be negative).
  static Date FromOrdinal(int64_t ordinal);

  int64_t ordinal() const { return ordinal_; }
  int year() const;
  int month() const;
  int day() const;

  /// "YYYY-MM-DD".
  std::string ToString() const;

  Date AddDays(int64_t days) const { return FromOrdinal(ordinal_ + days); }

  bool operator==(const Date& o) const { return ordinal_ == o.ordinal_; }
  bool operator!=(const Date& o) const { return ordinal_ != o.ordinal_; }
  bool operator<(const Date& o) const { return ordinal_ < o.ordinal_; }
  bool operator<=(const Date& o) const { return ordinal_ <= o.ordinal_; }
  bool operator>(const Date& o) const { return ordinal_ > o.ordinal_; }
  bool operator>=(const Date& o) const { return ordinal_ >= o.ordinal_; }

  /// Days from `o` to `*this` (positive when `*this` is later).
  int64_t operator-(const Date& o) const { return ordinal_ - o.ordinal_; }

 private:
  explicit Date(int64_t ordinal) : ordinal_(ordinal) {}

  int64_t ordinal_;  // Days since 1970-01-01.
};

/// Every date in [start, end] inclusive, one per day.
std::vector<Date> DailyRange(Date start, Date end);

}  // namespace fab

#endif  // FAB_UTIL_DATE_H_
