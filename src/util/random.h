#ifndef FAB_UTIL_RANDOM_H_
#define FAB_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fab {

/// SplitMix64 — tiny, fast 64-bit generator used to seed xoshiro and to
/// derive independent child seeds from a parent seed. Deterministic across
/// platforms.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64 random bits.
  uint64_t Next();

 private:
  uint64_t state_;
};

/// xoshiro256** — the library's workhorse PRNG.
///
/// All stochastic components (simulator, bootstrap sampling, permutation
/// shuffles, ...) draw from an explicitly seeded `Rng` so every experiment
/// is bit-reproducible. Not cryptographically secure.
class Rng {
 public:
  /// Seeds the four 256-bit state words via SplitMix64(seed).
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next 64 random bits.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box–Muller (cached second deviate).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Student-t deviate with `dof` degrees of freedom (fat tails for
  /// crypto-like return shocks). Requires dof > 0.
  double StudentT(double dof);

  /// Gamma(shape, scale) via Marsaglia–Tsang. Requires shape, scale > 0.
  double Gamma(double shape, double scale);

  /// Bernoulli trial with probability p of true.
  bool Bernoulli(double p);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Deterministically derives an independent child seed; child `i` of the
  /// same parent is stable across runs.
  uint64_t Fork(uint64_t child_index);

 private:
  uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace fab

#endif  // FAB_UTIL_RANDOM_H_
