#include "util/date.h"

#include <cstdio>

namespace fab {

namespace {

// Howard Hinnant's civil-from-days / days-from-civil algorithms.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y_out, int* m_out, int* d_out) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;             // [0, 399]
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                       // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                            // [1, 12]
  *y_out = static_cast<int>(y + (m <= 2));
  *m_out = static_cast<int>(m);
  *d_out = static_cast<int>(d);
}

}  // namespace

Date::Date(int year, int month, int day)
    : ordinal_(DaysFromCivil(year, month, day)) {}

Date Date::FromOrdinal(int64_t ordinal) { return Date(ordinal); }

int Date::year() const {
  int y, m, d;
  CivilFromDays(ordinal_, &y, &m, &d);
  return y;
}

int Date::month() const {
  int y, m, d;
  CivilFromDays(ordinal_, &y, &m, &d);
  return m;
}

int Date::day() const {
  int y, m, d;
  CivilFromDays(ordinal_, &y, &m, &d);
  return d;
}

std::string Date::ToString() const {
  int y, m, d;
  CivilFromDays(ordinal_, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

std::vector<Date> DailyRange(Date start, Date end) {
  std::vector<Date> out;
  if (end < start) return out;
  out.reserve(static_cast<size_t>(end - start) + 1);
  for (int64_t o = start.ordinal(); o <= end.ordinal(); ++o) {
    out.push_back(Date::FromOrdinal(o));
  }
  return out;
}

}  // namespace fab
