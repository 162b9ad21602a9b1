// Deterministic random number generation.
//
// Every stochastic component of the simulator (traffic models, router ICMP
// slow-path jitter, loss decisions) draws from an ixp::Rng seeded from the
// scenario, so a campaign replays bit-identically.  The core generator is
// xoshiro256++ (public domain, Blackman & Vigna), which is fast and has
// 256-bit state -- plenty for year-long campaigns.
#pragma once

#include <cstdint>
#include <limits>

namespace ixp {

class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds from a single 64-bit value via splitmix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() { return next(); }
  /// Defined here so hot loops (the change-point bootstrap draws ~57k
  /// values per confidence test) inline it.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Marsaglia polar method.
  double normal();
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Pareto with shape alpha and scale xm (heavy-tailed burst sizes).
  double pareto(double alpha, double xm);
  /// Bernoulli trial.
  bool chance(double p);

  /// Derives an independent child generator; used to give each simulated
  /// entity its own stream so that adding one entity does not perturb the
  /// draws of the others.
  Rng fork();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ixp
