#include "util/random.h"

#include <cmath>

namespace fab {

namespace {
inline uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.Next();
}

uint64_t Rng::NextU64() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t n) {
  // Lemire-style rejection to avoid modulo bias.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::StudentT(double dof) {
  // t = Z / sqrt(ChiSq(dof) / dof); ChiSq(dof) = Gamma(dof/2, 2).
  const double z = Normal();
  const double chi_sq = Gamma(dof / 2.0, 2.0);
  return z / std::sqrt(chi_sq / dof);
}

double Rng::Gamma(double shape, double scale) {
  if (shape < 1.0) {
    // Boost to shape+1 and correct with a power of a uniform.
    const double g = Gamma(shape + 1.0, scale);
    double u = 0.0;
    do {
      u = Uniform();
    } while (u <= 0.0);
    return g * std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

uint64_t Rng::Fork(uint64_t child_index) {
  SplitMix64 sm(state_[0] ^ (0xA5A5A5A5A5A5A5A5ull + child_index));
  return sm.Next();
}

}  // namespace fab
