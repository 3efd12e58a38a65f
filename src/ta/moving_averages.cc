#include "ta/moving_averages.h"

namespace fab::ta {

table::Column Sma(const std::vector<double>& values, int window) {
  const size_t n = values.size();
  const size_t w = static_cast<size_t>(window);
  table::Column out(n);
  if (window < 1 || n < w) return out;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += values[i];
    if (i >= w) sum -= values[i - w];
    if (i + 1 >= w) out.Set(i, sum / static_cast<double>(w));
  }
  return out;
}

table::Column Ema(const std::vector<double>& values, int window) {
  const size_t n = values.size();
  const size_t w = static_cast<size_t>(window);
  table::Column out(n);
  if (window < 1 || n < w) return out;
  // Seed with the SMA of the first `window` values.
  double seed = 0.0;
  for (size_t i = 0; i < w; ++i) seed += values[i];
  seed /= static_cast<double>(w);
  const double alpha = 2.0 / (static_cast<double>(window) + 1.0);
  double ema = seed;
  out.Set(w - 1, ema);
  for (size_t i = w; i < n; ++i) {
    ema = alpha * values[i] + (1.0 - alpha) * ema;
    out.Set(i, ema);
  }
  return out;
}

}  // namespace fab::ta
