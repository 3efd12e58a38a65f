#include "ta/volume.h"

namespace fab::ta {

table::Column Obv(const std::vector<double>& close,
                  const std::vector<double>& volume) {
  const size_t n = close.size();
  table::Column out(n);
  if (n == 0 || volume.size() != n) return out;
  double obv = 0.0;
  out.Set(0, obv);
  for (size_t i = 1; i < n; ++i) {
    if (close[i] > close[i - 1]) {
      obv += volume[i];
    } else if (close[i] < close[i - 1]) {
      obv -= volume[i];
    }
    out.Set(i, obv);
  }
  return out;
}

table::Column ChaikinMoneyFlow(const std::vector<double>& high,
                               const std::vector<double>& low,
                               const std::vector<double>& close,
                               const std::vector<double>& volume, int window) {
  const size_t n = close.size();
  table::Column out(n);
  if (window < 1 || n < static_cast<size_t>(window) || high.size() != n ||
      low.size() != n || volume.size() != n) {
    return out;
  }
  const size_t w = static_cast<size_t>(window);
  std::vector<double> mfv(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double range = high[i] - low[i];
    const double mult =
        range > 0.0 ? ((close[i] - low[i]) - (high[i] - close[i])) / range : 0.0;
    mfv[i] = mult * volume[i];
  }
  for (size_t i = w - 1; i < n; ++i) {
    double num = 0.0;
    double den = 0.0;
    for (size_t j = i + 1 - w; j <= i; ++j) {
      num += mfv[j];
      den += volume[j];
    }
    out.Set(i, den > 0.0 ? num / den : 0.0);
  }
  return out;
}

}  // namespace fab::ta
