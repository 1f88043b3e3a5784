// Deterministic, seedable pseudo-random number generation used throughout the
// library. Every simulation in the benchmark harness derives its generators
// from explicit seeds so that experiment output is reproducible run-to-run.
#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fountain::util {

/// xoshiro256** 1.0 (Blackman/Vigna). Small, fast, high-quality generator
/// satisfying std::uniform_random_bit_generator so it can drive <random>
/// distributions as well as the convenience helpers below.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from a single 64-bit seed via splitmix64,
  /// as recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) throw std::invalid_argument("Rng::below: bound must be > 0");
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (-bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      using std::swap;
      swap(values[i - 1], values[below(i)]);
    }
  }

  /// A uniformly random permutation of {0, ..., count-1}.
  std::vector<std::uint32_t> permutation(std::size_t count) {
    std::vector<std::uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0U);
    shuffle(order);
    return order;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_[4] = {};
};

}  // namespace fountain::util
