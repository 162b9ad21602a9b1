#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <cmath>
#include <vector>

#include "oracle/oracle.h"
#include "stats/changepoint.h"
#include "stats/descriptive.h"
#include "stats/periodicity.h"
#include "stats/ranks.h"
#include "util/rng.h"

namespace ixp::stats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// descriptive

TEST(Descriptive, MeanSkipsNaN) {
  const std::vector<double> v = {1.0, kNaN, 3.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.0);
}

TEST(Descriptive, MedianOddEven) {
  const std::vector<double> odd = {3, 1, 2};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.1), 4.0);
}

TEST(Descriptive, EmptyAndAllNaN) {
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(mean(empty)));
  EXPECT_TRUE(std::isnan(median(empty)));
  const std::vector<double> nans = {kNaN, kNaN};
  EXPECT_TRUE(std::isnan(mean(nans)));
  EXPECT_EQ(finite_count(nans), 0u);
}

TEST(Descriptive, MaxValueSkipsNaN) {
  const std::vector<double> v = {kNaN, 3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(max_value(v), 7.0);
  const std::vector<double> nans = {kNaN, kNaN};
  EXPECT_TRUE(std::isnan(max_value(nans)));
}

// ---------------------------------------------------------------------------
// ranks

TEST(Ranks, SimpleOrdering) {
  const std::vector<double> v = {30, 10, 20};
  const auto r = ranks(v);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(Ranks, TiesGetMidRank) {
  const std::vector<double> v = {5, 5, 1};
  const auto r = ranks(v);
  EXPECT_DOUBLE_EQ(r[0], 2.5);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
}

TEST(Ranks, NaNPreserved) {
  const std::vector<double> v = {2, kNaN, 1};
  const auto r = ranks(v);
  EXPECT_TRUE(std::isnan(r[1]));
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[2], 1.0);
}

TEST(Ranks, MannWhitneySeparatedSamples) {
  std::vector<double> lo(30), hi(30);
  for (int i = 0; i < 30; ++i) {
    lo[static_cast<std::size_t>(i)] = i * 0.1;
    hi[static_cast<std::size_t>(i)] = 100 + i * 0.1;
  }
  EXPECT_LT(mann_whitney_pvalue(lo, hi), 1e-6);
}

TEST(Ranks, MannWhitneySameDistribution) {
  Rng rng(3);
  std::vector<double> a(200), b(200);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();
  EXPECT_GT(mann_whitney_pvalue(a, b), 0.01);
}

// ---------------------------------------------------------------------------
// change points

std::vector<double> step_series(std::size_t n, std::size_t shift_at, double base, double delta,
                                double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (i < shift_at ? base : base + delta) + noise * rng.normal();
  }
  return v;
}

// The production entry with a fresh scratch, returning a copy.
std::vector<std::size_t> detect(std::span<const double> v, const CusumOptions& opt = {}) {
  ChangePointScratch scratch;
  return detect_change_point_indices(v, opt, scratch);
}

TEST(ChangePoint, DetectsSingleShift) {
  const auto v = step_series(200, 120, 10, 15, 0.5, 7);
  const auto cps = detect(v);
  ASSERT_EQ(cps.size(), 1u);
  EXPECT_NEAR(static_cast<double>(cps[0]), 120.0, 4.0);
  const auto segs = to_segments(v, cps);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_NEAR(segs[0].level, 10.0, 0.5);
  EXPECT_NEAR(segs[1].level, 25.0, 0.5);
}

TEST(ChangePoint, NoShiftNoDetection) {
  Rng rng(9);
  std::vector<double> v(300);
  for (auto& x : v) x = 10 + 0.5 * rng.normal();
  EXPECT_TRUE(detect(v).empty());
}

TEST(ChangePoint, DetectsUpAndDown) {
  // Up at 100, down at 200 (an elevated episode).
  std::vector<double> v;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const double base = (i >= 100 && i < 200) ? 30.0 : 10.0;
    v.push_back(base + 0.4 * rng.normal());
  }
  const auto cps = detect(v);
  ASSERT_EQ(cps.size(), 2u);
  EXPECT_NEAR(static_cast<double>(cps[0]), 100.0, 4.0);
  EXPECT_NEAR(static_cast<double>(cps[1]), 200.0, 4.0);
}

TEST(ChangePoint, RankVariantRobustToOutliers) {
  // Heavy outliers on a flat series must not fake a shift.
  Rng rng(13);
  std::vector<double> v(400, 10.0);
  for (auto& x : v) x += 0.3 * rng.normal();
  for (int i = 0; i < 8; ++i) v[static_cast<std::size_t>(rng.uniform_int(0, 399))] = 500.0;
  CusumOptions opt;
  opt.use_ranks = true;
  const auto cps = detect(v, opt);
  // Outliers are isolated; rank CUSUM may split at most near them but must
  // not report a *confident, persistent* level change.  Accept zero or
  // rare unstable splits whose levels differ by little.
  const auto segs = to_segments(v, cps);
  ASSERT_EQ(segs.size(), cps.size() + 1);
  for (std::size_t k = 0; k < cps.size(); ++k) {
    EXPECT_LT(std::fabs(segs[k + 1].level - segs[k].level), 2.0);
  }
}

TEST(ChangePoint, ToSegmentsCoversSeries) {
  const auto v = step_series(100, 60, 5, 10, 0.3, 17);
  const auto cps = detect(v);
  const auto segs = to_segments(v, cps);
  ASSERT_FALSE(segs.empty());
  EXPECT_EQ(segs.front().begin, 0u);
  EXPECT_EQ(segs.back().end, v.size());
  for (std::size_t i = 1; i < segs.size(); ++i) EXPECT_EQ(segs[i].begin, segs[i - 1].end);
}

TEST(ChangePoint, NaNGapsTolerated) {
  auto v = step_series(200, 100, 10, 20, 0.5, 19);
  for (std::size_t i = 40; i < 55; ++i) v[i] = kNaN;
  const auto cps = detect(v);
  ASSERT_GE(cps.size(), 1u);
  EXPECT_NEAR(static_cast<double>(cps[0]), 100.0, 6.0);
}

// Property sweep: detection across magnitudes and noise levels.
class ShiftDetection : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ShiftDetection, FindsTheShift) {
  const double delta = std::get<0>(GetParam());
  const double noise = std::get<1>(GetParam());
  const auto v = step_series(240, 140, 12, delta, noise, 23);
  const auto cps = detect(v);
  ASSERT_GE(cps.size(), 1u) << "delta=" << delta << " noise=" << noise;
  EXPECT_NEAR(static_cast<double>(cps[0]), 140.0, 8.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShiftDetection,
                         ::testing::Combine(::testing::Values(5.0, 10.0, 27.9),
                                            ::testing::Values(0.2, 0.5, 1.0)));

TEST(ChangePoint, DeterministicAcrossRuns) {
  const auto v = step_series(300, 150, 8, 12, 0.6, 105);
  const auto a = detect(v);
  EXPECT_EQ(detect(v), a);
  // A scratch recycled through another input gives the same answer.
  ChangePointScratch scratch;
  const auto other = step_series(700, 300, 2, 5, 1.0, 106);
  detect_change_point_indices(other, {}, scratch);
  EXPECT_EQ(detect_change_point_indices(v, {}, scratch), a);
}

TEST(ChangePoint, MinSegmentRespected) {
  // A shift 3 samples from the end cannot be split off (min_segment 6).
  auto v = step_series(100, 97, 5, 30, 0.1, 107);
  for (const std::size_t cp : detect(v)) {
    EXPECT_GE(cp, 6u);
    EXPECT_LE(cp, v.size() - 6);
  }
}

// The production recursion against the oracle's plain bootstrap loop,
// index for index, over a seeded corpus that reaches every path of the
// production bootstrap: rank inputs (a half-integer mean, so the top-level
// window runs the exact-integer scan) whose odd-length sub-segments have
// non-dyadic means (the double scan); raw noisy doubles (double scan);
// raw small integers over 256 samples (a dyadic mean: the integer scan on
// raw values) and over large magnitudes (the int64 scalar fallback);
// NaN gaps; and inputs shorter than 2 * min_segment.  One scratch serves
// the whole corpus, as in the detector's window loop.
TEST(ChangePoint, IndicesMatchOracle) {
  ChangePointScratch scratch;
  std::size_t cases = 0, accepted = 0;
  const auto check = [&](const std::vector<double>& v, const CusumOptions& opt,
                         const char* what) {
    const auto want = oracle::change_point_indices(v, opt);
    const auto& got = detect_change_point_indices(v, opt, scratch);
    EXPECT_EQ(got, want) << what << " n=" << v.size() << " ranks=" << opt.use_ranks
                         << " rounds=" << opt.bootstrap_rounds << " seed=" << opt.seed;
    ++cases;
    accepted += want.size();
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    // Staircases with odd-length levels and a noise sweep.
    const std::size_t n = 150 + static_cast<std::size_t>(rng.uniform_int(0, 250));
    const std::size_t a = n / 3 + static_cast<std::size_t>(rng.uniform_int(0, 20));
    const std::size_t b = 2 * n / 3 + static_cast<std::size_t>(rng.uniform_int(0, 20));
    const double noise = 0.2 + 0.4 * static_cast<double>(seed % 3);
    std::vector<double> stair(n);
    for (std::size_t i = 0; i < n; ++i) {
      stair[i] = (i < a ? 10.0 : (i < b ? 18.0 : 13.0)) + noise * rng.normal();
    }
    std::vector<double> gappy = stair;
    const std::size_t gap = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 40));
    for (std::size_t i = gap; i < gap + 30; ++i) gappy[i] = kNaN;
    for (std::size_t i = 0; i < n; i += 17) gappy[i] = kNaN;
    std::vector<double> flat(n);
    for (auto& x : flat) x = 5.0 + rng.normal();
    // Steps well inside the noise, with gaps: verdicts near the confidence
    // bar, where one bootstrap round more or less, or a draw out of step,
    // changes the answer.
    std::vector<double> weak(n);
    double level = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 40 == 0) level = rng.uniform(0.0, 1.2);
      weak[i] = i % 11 == 3 ? kNaN : level + rng.normal();
    }
    std::vector<double> small_int(256), big_int(256);
    for (std::size_t i = 0; i < 256; ++i) {
      const bool high = i >= 90 + seed * 10;
      small_int[i] = static_cast<double>(rng.uniform_int(0, 6) + (high ? 5 : 0));
      big_int[i] = static_cast<double>(rng.uniform_int(0, 200000) + (high ? 250000 : 0));
    }
    big_int[static_cast<std::size_t>(rng.uniform_int(0, 255))] = kNaN;

    for (const bool use_ranks : {true, false}) {
      CusumOptions opt;
      opt.use_ranks = use_ranks;
      opt.seed = 0x5eed5eedULL ^ (seed * 0x9e3779b97f4a7c15ULL);
      opt.bootstrap_rounds = seed % 2 == 0 ? 200 : 97;
      opt.confidence = seed % 3 == 0 ? 0.99 : 0.95;
      check(stair, opt, "staircase");
      check(gappy, opt, "staircase with NaN gaps");
      check(flat, opt, "flat noise");
      check(weak, opt, "weak steps with NaN gaps");
      check(small_int, opt, "small integers");
      check(big_int, opt, "large integers");
      for (const std::size_t len : {0u, 1u, 11u, 12u}) {
        check(std::vector<double>(stair.begin(), stair.begin() + len), opt, "short");
      }
      opt.min_segment = 3 + static_cast<std::size_t>(seed);
      check(stair, opt, "staircase, other min_segment");
    }
  }
  // Many short borderline windows: a verdict that flips on a handful of
  // bootstrap rounds shows up as a different index set in some of them.
  Rng rng(4099);
  for (std::size_t k = 0; k < 120; ++k) {
    std::vector<double> v(24 + 3 * (k % 40));
    const std::size_t step = v.size() / 2 + k % 5;
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = (i % 7 == 2) ? kNaN : (i < step ? 0.0 : 0.8) + rng.normal();
    }
    CusumOptions opt;
    opt.use_ranks = k % 3 != 0;
    opt.seed = k;
    check(v, opt, "short borderline window");
  }
  EXPECT_EQ(cases, 6u * 2u * 11u + 120u);
  EXPECT_GT(accepted, 50u);  // the corpus exercises acceptance, not just refusal
}

// Quantile is monotone in q and bounded by min/max (property sweep).
class QuantileProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantileProperty, MonotoneAndBounded) {
  Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v(50 + GetParam() * 37);
  for (auto& x : v) x = rng.pareto(1.2, 1.0);
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  double prev = -1e300;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double val = quantile(v, q);
    EXPECT_GE(val, prev);
    EXPECT_GE(val, *lo - 1e-12);
    EXPECT_LE(val, *hi + 1e-12);
    prev = val;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantileProperty, ::testing::Range(0, 6));

// The selection kernel must reproduce the sort-based definition exactly --
// the TSLP engines' byte-identity rests on it.  Sweeps sizes across the
// sort cutoff and all three partition outcomes (low side, straddle, high
// side with pivot-equal runs).
TEST(QuantileProperty, SelectionMatchesSortedReference) {
  Rng rng(777);
  for (int it = 0; it < 200; ++it) {
    std::vector<double> v(1 + static_cast<std::size_t>(it) * 3 % 401);
    for (auto& x : v) {
      // Heavy ties every third case to exercise the pivot-equal peel.
      x = (it % 3 == 0) ? std::floor(rng.uniform(0.0, 5.0)) : rng.uniform(0.0, 100.0);
    }
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.05, 0.10, 0.5, 0.9, 0.95, 1.0}) {
      const double pos = q * static_cast<double>(sorted.size() - 1);
      const std::size_t lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
      const double frac = pos - static_cast<double>(lo);
      const double want = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
      std::vector<double> work = v;
      const double got = quantile_inplace(std::span<double>(work), q);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "n=" << v.size() << " q=" << q << " it=" << it;
    }
  }
}

// Repeated in-place calls on one buffer must keep returning what a fresh
// call would: the window prefilter computes p95 then p05 from one buffer.
TEST(QuantileProperty, RepeatedInplaceCallsAreStable) {
  Rng rng(778);
  std::vector<double> v(300);
  for (auto& x : v) x = rng.uniform(0.0, 50.0);
  std::vector<double> fresh = v;
  const double q95_fresh = quantile_inplace(std::span<double>(fresh), 0.95);
  fresh = v;
  const double q05_fresh = quantile_inplace(std::span<double>(fresh), 0.05);
  const double q95 = quantile_inplace(std::span<double>(v), 0.95);
  const double q05 = quantile_inplace(std::span<double>(v), 0.05);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(q95), std::bit_cast<std::uint64_t>(q95_fresh));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(q05), std::bit_cast<std::uint64_t>(q05_fresh));
}

// ---------------------------------------------------------------------------
// periodicity

std::vector<double> diurnal_series(int days, int spd, double amplitude, double noise,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(days * spd));
  for (int d = 0; d < days; ++d) {
    for (int s = 0; s < spd; ++s) {
      const double hour = 24.0 * s / spd;
      const double bump = (hour > 10 && hour < 18) ? amplitude : 0.0;
      v.push_back(10 + bump + noise * rng.normal());
    }
  }
  return v;
}

TEST(Periodicity, AutocorrelationOfPeriodicSeries) {
  const auto v = diurnal_series(10, 96, 15, 0.5, 29);
  const double day_acf = autocorrelation(v, 96);
  const double off_acf = autocorrelation(v, 48);
  EXPECT_GT(day_acf, 0.6);
  EXPECT_LT(off_acf, 0.0);  // half-day lag anti-correlates
}

TEST(Periodicity, DiurnalScoreRecurring) {
  const auto v = diurnal_series(12, 96, 15, 0.5, 31);
  const auto score = diurnal_score(v, 96);
  EXPECT_TRUE(score.recurring);
  EXPECT_GT(score.elevated_day_frac, 0.9);
}

TEST(Periodicity, FlatSeriesNotRecurring) {
  Rng rng(37);
  std::vector<double> v(96 * 12);
  for (auto& x : v) x = 10 + 0.5 * rng.normal();
  EXPECT_FALSE(diurnal_score(v, 96).recurring);
}

TEST(Periodicity, SingleStepNotRecurring) {
  // A multi-day level shift is elevated but not diurnal.
  std::vector<double> v;
  Rng rng(41);
  for (int i = 0; i < 96 * 12; ++i) {
    const double base = (i > 96 * 5 && i < 96 * 8) ? 30.0 : 10.0;
    v.push_back(base + 0.4 * rng.normal());
  }
  const auto score = diurnal_score(v, 96);
  EXPECT_FALSE(score.recurring);
}

TEST(Periodicity, TooShortSeries) {
  const std::vector<double> v(50, 10.0);
  EXPECT_FALSE(diurnal_score(v, 96).recurring);
}

TEST(Periodicity, Lag0IsOne) {
  const auto v = diurnal_series(4, 48, 10, 0.3, 44);
  EXPECT_NEAR(autocorrelation(v, 0), 1.0, 1e-9);
}

TEST(Periodicity, LagBeyondLengthIsNaN) {
  const std::vector<double> v(10, 1.0);
  EXPECT_TRUE(std::isnan(autocorrelation(v, 10)));
  EXPECT_TRUE(std::isnan(autocorrelation(v, 100)));
}

TEST(Periodicity, AcfVectorSizes) {
  const auto v = diurnal_series(4, 24, 10, 0.1, 43);
  const auto a = acf(v, 30);
  ASSERT_EQ(a.size(), 31u);
  EXPECT_NEAR(a[0], 1.0, 1e-9);
}

}  // namespace
}  // namespace ixp::stats
