#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "oracle/oracle.h"
#include "series/columnar.h"
#include "tslp/classifier.h"
#include "tslp/engine.h"
#include "tslp/level_shift.h"
#include "tslp/loss_analysis.h"
#include "tslp/online.h"
#include "util/rng.h"

namespace ixp::tslp {
namespace {

constexpr std::size_t kSamplesPerDay = 288;  // 5-minute cadence

// Synthetic far-side RTT series generator: base RTT, diurnal congestion
// plateaus of the given magnitude and daily width, optional noise.
RttSeries diurnal_far(int days, double base_ms, double magnitude_ms, double start_hour,
                      double width_hours, double noise_ms, std::uint64_t seed,
                      int congested_from_day = 0, int congested_until_day = 1 << 30) {
  Rng rng(seed);
  RttSeries s;
  s.start = TimePoint{};
  s.interval = kMinute * 5;
  for (int d = 0; d < days; ++d) {
    for (std::size_t i = 0; i < kSamplesPerDay; ++i) {
      const double hour = 24.0 * static_cast<double>(i) / kSamplesPerDay;
      const bool in_window = hour >= start_hour && hour < start_hour + width_hours;
      const bool active = d >= congested_from_day && d < congested_until_day;
      const double level = base_ms + ((in_window && active) ? magnitude_ms : 0.0);
      s.ms.push_back(level + noise_ms * std::fabs(rng.normal()));
    }
  }
  return s;
}

RttSeries flat_near(int days, double base_ms, double noise_ms, std::uint64_t seed) {
  Rng rng(seed);
  RttSeries s;
  s.start = TimePoint{};
  s.interval = kMinute * 5;
  for (std::size_t i = 0; i < static_cast<std::size_t>(days) * kSamplesPerDay; ++i) {
    s.ms.push_back(base_ms + noise_ms * std::fabs(rng.normal()));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Level-shift detection

TEST(LevelShift, ScaledMeanLongHorizon) {
  // Regression for the duration/period averages at int32-overflow-adjacent
  // sample counts: with ~2.2e9 samples (a multi-year series) the 64-bit
  // product samples * interval.count() overflows, so scaled_mean in
  // level_shift.cc takes it at 128 bits.
  LevelShiftResult res;
  res.episodes.push_back({0, 1100000000, 10.0});
  res.episodes.push_back({1200000000, 2300000000, 10.0});
  const Duration iv(5000000000);  // 5-second cadence
  // total = 2.2e9 samples: the naive product 2.2e9 * 5e9 ns = 1.1e19
  // exceeds INT64_MAX; the per-episode mean (5.5e18 ns) still fits.
  EXPECT_EQ(res.average_duration(iv).count(), 5500000000000000000LL);
  // Span between first and last begin = 1.2e9 samples over one gap.
  EXPECT_EQ(res.average_period(iv).count(), 6000000000000000000LL);
}

TEST(LevelShift, ScaledMeanRoundsToNearest) {
  // Dividing before multiplying truncated to whole sample counts and
  // biased dt_UD low by up to a full interval; the mean must round to the
  // nearest nanosecond instead.
  LevelShiftResult res;
  res.episodes.push_back({0, 2, 5.0});    // 2 samples
  res.episodes.push_back({10, 13, 5.0});  // 3 samples
  res.episodes.push_back({20, 25, 5.0});  // 5 samples
  const Duration iv(1000000000);          // 1 s
  // mean = 10/3 samples = 3.333... s
  EXPECT_EQ(res.average_duration(iv).count(), 3333333333LL);
}

TEST(LevelShift, DetectsDailyEpisodes) {
  const auto far = diurnal_far(10, 2.0, 20.0, 12.0, 6.0, 0.3, 1);
  LevelShiftDetector det;
  const auto res = det.detect(far);
  ASSERT_TRUE(res.any());
  // Ten days of congestion: expect roughly one episode per day.
  EXPECT_GE(res.episodes.size(), 8u);
  EXPECT_LE(res.episodes.size(), 12u);
  EXPECT_NEAR(res.baseline_ms, 2.2, 0.6);
  EXPECT_NEAR(res.average_magnitude(), 20.0, 3.0);
}

TEST(LevelShift, AverageDurationMatchesWindow) {
  const auto far = diurnal_far(10, 2.0, 20.0, 12.0, 6.0, 0.3, 2);
  LevelShiftDetector det;
  const auto res = det.detect(far);
  ASSERT_TRUE(res.any());
  EXPECT_NEAR(to_hours(res.average_duration(far.interval)), 6.0, 1.5);
  EXPECT_NEAR(to_hours(res.average_period(far.interval)), 24.0, 3.0);
}

TEST(LevelShift, BelowThresholdIgnored) {
  const auto far = diurnal_far(10, 2.0, 6.0, 12.0, 6.0, 0.3, 3);
  LevelShiftOptions opt;
  opt.threshold_ms = 10.0;
  LevelShiftDetector det(opt);
  EXPECT_FALSE(det.detect(far).any());
  // But a 5 ms threshold catches it.
  opt.threshold_ms = 5.0;
  LevelShiftDetector det5(opt);
  EXPECT_TRUE(det5.detect(far).any());
}

TEST(LevelShift, MinDurationFiltersBlips) {
  // A 15-minute blip (3 samples) must not qualify as a 30-minute shift.
  auto far = flat_near(4, 2.0, 0.2, 4);
  for (std::size_t i = 500; i < 503; ++i) far.ms[i] = 30.0;
  LevelShiftDetector det;
  EXPECT_FALSE(det.detect(far).any());
}

TEST(LevelShift, QuietSeriesFastPathNoEpisodes) {
  const auto far = flat_near(30, 2.0, 0.2, 5);
  LevelShiftDetector det;
  const auto res = det.detect(far);
  EXPECT_FALSE(res.any());
  EXPECT_TRUE(std::isnan(res.average_magnitude()));
}

TEST(LevelShift, SanitizationMergesSplitEpisodes) {
  // One 6-hour plateau with a 15-minute dip in the middle: sanitization
  // must merge it back into a single episode.
  auto far = diurnal_far(6, 2.0, 20.0, 12.0, 6.0, 0.2, 6);
  for (int d = 0; d < 6; ++d) {
    const std::size_t mid = static_cast<std::size_t>(d) * kSamplesPerDay + (15 * kSamplesPerDay) / 24;
    for (std::size_t i = mid; i < mid + 3; ++i) far.ms[i] = 2.0;
  }
  LevelShiftDetector det;
  const auto res = det.detect(far);
  EXPECT_GE(res.episodes.size(), 5u);
  EXPECT_LE(res.episodes.size(), 7u);  // not ~12 (split) episodes
}

TEST(LevelShift, MultiDayShiftIsOneEpisode) {
  auto far = flat_near(12, 2.0, 0.2, 7);
  for (std::size_t i = 3 * kSamplesPerDay; i < 6 * kSamplesPerDay; ++i) far.ms[i] += 25.0;
  LevelShiftDetector det;
  const auto res = det.detect(far);
  ASSERT_EQ(res.episodes.size(), 1u);
  EXPECT_NEAR(to_hours(res.average_duration(far.interval)), 72.0, 6.0);
  EXPECT_NEAR(res.episodes[0].magnitude_ms, 25.0, 2.0);
}

TEST(LevelShift, EpisodesAreStatisticallySignificant) {
  const auto far = diurnal_far(10, 2.0, 20.0, 12.0, 6.0, 0.3, 60);
  LevelShiftDetector det;
  const auto res = det.detect(far);
  ASSERT_TRUE(res.any());
  for (const auto& e : res.episodes) {
    EXPECT_TRUE(e.significant()) << "p=" << e.p_value;
    EXPECT_LT(e.p_value, 1e-4);
  }
}

TEST(LevelShift, LossGapsDoNotBreakDetection) {
  auto far = diurnal_far(8, 2.0, 20.0, 12.0, 6.0, 0.3, 8);
  Rng rng(9);
  for (auto& v : far.ms) {
    if (rng.chance(0.1)) v = kMissing;  // 10 % probe loss
  }
  LevelShiftDetector det;
  const auto res = det.detect(far);
  EXPECT_GE(res.episodes.size(), 6u);
}

// Threshold sweep (the Table 1 mechanism): a link with magnitude m is
// flagged at threshold T iff m >= T.
class ThresholdSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ThresholdSweep, FlaggingRespectsThreshold) {
  const double magnitude = std::get<0>(GetParam());
  const double threshold = std::get<1>(GetParam());
  const auto far = diurnal_far(8, 2.0, magnitude, 12.0, 5.0, 0.25, 10);
  LevelShiftOptions opt;
  opt.threshold_ms = threshold;
  LevelShiftDetector det(opt);
  const bool flagged = det.detect(far).any();
  // Allow a +/-1.5 ms gray zone right at the threshold (noise shifts the
  // measured magnitude slightly).
  if (magnitude >= threshold + 1.5) {
    EXPECT_TRUE(flagged) << magnitude << " vs " << threshold;
  } else if (magnitude <= threshold - 1.5) {
    EXPECT_FALSE(flagged) << magnitude << " vs " << threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThresholdSweep,
                         ::testing::Combine(::testing::Values(7.0, 12.0, 17.0, 27.9),
                                            ::testing::Values(5.0, 10.0, 15.0, 20.0)));

// ---------------------------------------------------------------------------
// Regression tests for the truncation/merge bugs flagged by the golden
// corpus (each failed on the pre-fix code).

TEST(LevelShift, AverageDurationKeepsSubIntervalPrecision) {
  // Episodes of 3 and 4 samples average 3.5 samples = 17.5 min at a
  // 5-minute cadence.  Dividing before multiplying truncated to 3 samples
  // (15 min), biasing the reported dt_UD low by up to one full interval.
  LevelShiftResult res;
  res.episodes.push_back({0, 3, 15.0});
  res.episodes.push_back({10, 14, 15.0});
  EXPECT_EQ(res.average_duration(kMinute * 5), kSecond * (17 * 60 + 30));
}

TEST(LevelShift, AveragePeriodKeepsSubIntervalPrecision) {
  // Starts at 0, 7, 13: mean spacing 6.5 samples = 32.5 min, not 30.
  LevelShiftResult res;
  res.episodes.push_back({0, 2, 15.0});
  res.episodes.push_back({7, 9, 15.0});
  res.episodes.push_back({13, 15, 15.0});
  EXPECT_EQ(res.average_period(kMinute * 5), kSecond * (32 * 60 + 30));
}

TEST(LevelShift, MergeNeverShrinksAnEpisode) {
  // A nested raw episode used to *shrink* the merged span (prev.end was
  // overwritten with e.end) and double-count the overlap in the weighted
  // magnitude; the following overlapping tail then failed to merge.
  std::vector<Episode> raw;
  raw.push_back({100, 300, 10.0});
  raw.push_back({150, 250, 50.0});  // fully nested
  raw.push_back({290, 310, 20.0});  // overlaps the tail
  const auto merged = sanitize_episodes(std::move(raw), 3);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].begin, 100u);
  EXPECT_EQ(merged[0].end, 310u);
  // The nested episode contributes no new samples; the tail contributes
  // its 10 samples beyond index 300.
  EXPECT_NEAR(merged[0].magnitude_ms, (10.0 * 200 + 20.0 * 10) / 210.0, 1e-12);
}

TEST(LevelShift, MergeWeightsOverlapOnlyOnce) {
  // Two 50%-overlapping episodes: the second's weight must be only its
  // non-overlapping half, and the merged span must be the union.
  std::vector<Episode> raw;
  raw.push_back({0, 100, 10.0});
  raw.push_back({50, 150, 30.0});
  const auto merged = sanitize_episodes(std::move(raw), 1);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].begin, 0u);
  EXPECT_EQ(merged[0].end, 150u);
  EXPECT_NEAR(merged[0].magnitude_ms, (10.0 * 100 + 30.0 * 50) / 150.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Level-shift properties: invariances any reasonable detector must satisfy,
// checked on noise-free constructions so the expectations are exact.

RttSeries plateau_series(std::size_t n, double base_ms, double magnitude_ms,
                         std::size_t elevated_begin, std::size_t elevated_end) {
  RttSeries s;
  s.start = TimePoint{};
  s.interval = kMinute * 5;
  s.ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool elevated = i >= elevated_begin && i < elevated_end;
    s.ms.push_back(elevated ? base_ms + magnitude_ms : base_ms);
  }
  return s;
}

TEST(LevelShiftProperty, ConstantSeriesHasNoEpisodes) {
  const auto s = plateau_series(1152, 10.0, 0.0, 0, 0);
  LevelShiftDetector det;
  const auto res = det.detect(s);
  EXPECT_FALSE(res.any());
  EXPECT_EQ(res.coverage, 1.0);
  EXPECT_TRUE(res.gaps.empty());
}

TEST(LevelShiftProperty, ConstantOffsetPreservesEpisodes) {
  // Adding a constant to every sample permutes nothing: the ranks are
  // identical, so the episodes must be identical (and the baseline moves by
  // exactly the offset; 64 is exactly representable).
  const auto a = plateau_series(1152, 10.0, 30.0, 400, 640);
  auto b = a;
  for (auto& v : b.ms) v += 64.0;
  LevelShiftDetector det;
  const auto ra = det.detect(a);
  const auto rb = det.detect(b);
  ASSERT_TRUE(ra.any());
  ASSERT_EQ(ra.episodes.size(), rb.episodes.size());
  for (std::size_t i = 0; i < ra.episodes.size(); ++i) {
    EXPECT_EQ(ra.episodes[i].begin, rb.episodes[i].begin);
    EXPECT_EQ(ra.episodes[i].end, rb.episodes[i].end);
    EXPECT_DOUBLE_EQ(ra.episodes[i].magnitude_ms, rb.episodes[i].magnitude_ms);
  }
  EXPECT_DOUBLE_EQ(rb.baseline_ms, ra.baseline_ms + 64.0);
}

TEST(LevelShiftProperty, TimeReversalMirrorsEpisodes) {
  const auto a = plateau_series(1152, 10.0, 30.0, 400, 640);
  auto r = a;
  std::reverse(r.ms.begin(), r.ms.end());
  LevelShiftDetector det;
  const auto ra = det.detect(a);
  const auto rr = det.detect(r);
  ASSERT_TRUE(ra.any());
  ASSERT_EQ(ra.episodes.size(), rr.episodes.size());
  const std::size_t n = a.ms.size();
  for (std::size_t i = 0; i < ra.episodes.size(); ++i) {
    // Episode i of the forward series mirrors episode size-1-i of the
    // reversed one: [b, e) maps to [n - e, n - b).
    const auto& fwd = ra.episodes[i];
    const auto& rev = rr.episodes[rr.episodes.size() - 1 - i];
    EXPECT_EQ(rev.begin, n - fwd.end);
    EXPECT_EQ(rev.end, n - fwd.begin);
    EXPECT_DOUBLE_EQ(rev.magnitude_ms, fwd.magnitude_ms);
  }
}

// ---------------------------------------------------------------------------
// Gap markers and gap-tolerant detection

TEST(Series, FindGapsMarksMissingRuns) {
  RttSeries s;
  s.interval = kMinute * 5;
  s.ms = {1.0, kMissing, kMissing, 2.0, kMissing, kMissing, kMissing, kMissing};
  const auto all = find_gaps(s, 1);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].begin, 1u);
  EXPECT_EQ(all[0].end, 3u);
  EXPECT_EQ(all[1].begin, 4u);
  EXPECT_EQ(all[1].end, 8u);  // trailing run is closed off
  EXPECT_EQ(all[1].samples(), 4u);
  const auto long_only = find_gaps(s, 3);
  ASSERT_EQ(long_only.size(), 1u);
  EXPECT_EQ(long_only[0].begin, 4u);
  EXPECT_EQ(s.finite_count(), 2u);
  EXPECT_DOUBLE_EQ(s.coverage(), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(RttSeries{}.coverage(), 1.0);  // empty = nothing missing
}

TEST(LevelShift, SanitizeBridgesOnlyWhenPredicateHolds) {
  std::vector<Episode> raw;
  raw.push_back({100, 200, 20.0});
  raw.push_back({260, 360, 20.0});  // 60-sample gap, far beyond kMergeGap
  const auto split = sanitize_episodes(raw, 6, nullptr);
  EXPECT_EQ(split.size(), 2u);
  const auto bridged =
      sanitize_episodes(raw, 6, [](std::size_t, std::size_t) { return true; });
  ASSERT_EQ(bridged.size(), 1u);
  EXPECT_EQ(bridged[0].begin, 100u);
  EXPECT_EQ(bridged[0].end, 360u);
}

TEST(LevelShift, AllMissingGapInsidePlateauKeepsOneEpisode) {
  // An ICMP-tightening hole in the middle of a plateau carries no evidence
  // the level ever came back down: the episode must not split around it.
  auto s = plateau_series(1152, 10.0, 30.0, 400, 648);
  for (std::size_t i = 500; i < 548; ++i) s.ms[i] = kMissing;
  LevelShiftDetector det;
  const auto res = det.detect(s);
  ASSERT_EQ(res.episodes.size(), 1u);
  EXPECT_EQ(res.episodes[0].begin, 400u);
  EXPECT_EQ(res.episodes[0].end, 648u);
  ASSERT_EQ(res.gaps.size(), 1u);
  EXPECT_EQ(res.gaps[0].begin, 500u);
  EXPECT_EQ(res.gaps[0].end, 548u);
}

TEST(LevelShift, QuietEvidenceSplitsWhereMissingnessDoesNot) {
  // The same two plateaus, separated once by an *observed* return to
  // baseline and once by pure missingness.  Only the former is evidence
  // that the level came down, so only the former splits the episodes.
  auto observed = plateau_series(1152, 10.0, 30.0, 400, 720);
  auto missing = observed;
  for (std::size_t i = 500; i < 620; ++i) {
    observed.ms[i] = 10.0;      // back at baseline, measured
    missing.ms[i] = kMissing;   // unmeasured
  }
  LevelShiftDetector det;
  EXPECT_EQ(det.detect(observed).episodes.size(), 2u);
  const auto bridged = det.detect(missing);
  ASSERT_EQ(bridged.episodes.size(), 1u);
  EXPECT_EQ(bridged.episodes[0].begin, 400u);
  EXPECT_EQ(bridged.episodes[0].end, 720u);
}

TEST(LevelShift, UnjudgeableSeriesReportsCoverageOnly) {
  // 1152 rounds with only 8 survivors: below kMinCoverage the detector
  // must refuse to produce episodes, however elevated the survivors look.
  RttSeries s;
  s.interval = kMinute * 5;
  s.ms.assign(1152, kMissing);
  for (std::size_t i = 0; i < 8; ++i) s.ms[i * 16] = i % 2 == 0 ? 10.0 : 40.0;
  LevelShiftDetector det;
  const auto res = det.detect(s);
  EXPECT_FALSE(res.any());
  EXPECT_NEAR(res.coverage, 8.0 / 1152.0, 1e-12);
  EXPECT_FALSE(res.gaps.empty());
}

TEST(Classifier, SamplesPerDayRoundsToNearest) {
  EXPECT_EQ(samples_per_day(kMinute * 5), 288u);
  EXPECT_EQ(samples_per_day(kMinute * 30), 48u);
  // 7 minutes does not divide 24 h: 205.71 must round to 206, not
  // truncate to 205 and skew the diurnal day slicing.
  EXPECT_EQ(samples_per_day(kMinute * 7), 206u);
  // 13-minute cadence: 110.77 -> 111.
  EXPECT_EQ(samples_per_day(kMinute * 13), 111u);
  // Cadences above one day used to truncate to zero and silently disable
  // the diurnal test; they must clamp to one sample per "day".
  EXPECT_EQ(samples_per_day(kHour * 25), 1u);
}

TEST(Classifier, NonDivisorCadenceStillClassifies) {
  // A congested link probed every 7 minutes (24 h % 7 min != 0) must still
  // come out congested with a recurring diurnal pattern.
  RttSeries far;
  far.start = TimePoint{};
  far.interval = kMinute * 7;
  RttSeries near = far;
  Rng rng(40);
  Rng rng_near(41);
  const std::size_t n = static_cast<std::size_t>((kDay.count() * 12) / far.interval.count());
  for (std::size_t i = 0; i < n; ++i) {
    const double hour = std::fmod(to_hours(far.time_of(i).since_epoch()), 24.0);
    const bool peak = hour >= 12.0 && hour < 18.0;
    far.ms.push_back(2.0 + (peak ? 18.0 : 0.0) + 0.3 * std::fabs(rng.normal()));
    near.ms.push_back(1.0 + 0.2 * std::fabs(rng_near.normal()));
  }
  LinkSeries link;
  link.key = "nondivisor";
  link.near_rtt = std::move(near);
  link.far_rtt = std::move(far);
  CongestionClassifier c;
  const auto rep = c.classify(link);
  EXPECT_EQ(rep.verdict, Verdict::kCongested);
  EXPECT_TRUE(rep.diurnal.recurring);
  EXPECT_NEAR(to_hours(rep.waveform.dt_ud), 6.0, 1.5);
}

// ---------------------------------------------------------------------------
// slice()

TEST(Slice, RestrictsToWindow) {
  RttSeries s;
  s.start = TimePoint(kDay);
  s.interval = kMinute * 5;
  for (int i = 0; i < 288 * 4; ++i) s.ms.push_back(static_cast<double>(i));
  const auto cut = slice(s, TimePoint(kDay * 2), TimePoint(kDay * 3));
  EXPECT_EQ(cut.ms.size(), 288u);
  EXPECT_DOUBLE_EQ(cut.ms.front(), 288.0);  // first sample of day 2
  EXPECT_EQ(cut.start, TimePoint(kDay * 2));
}

TEST(Slice, ClampsOutOfRange) {
  RttSeries s;
  s.start = TimePoint{};
  s.interval = kMinute * 5;
  s.ms.assign(100, 1.0);
  const auto before = slice(s, TimePoint(kDay * 10), TimePoint(kDay * 11));
  EXPECT_TRUE(before.ms.empty());
  const auto all = slice(s, TimePoint{}, TimePoint(kDay * 99));
  EXPECT_EQ(all.ms.size(), 100u);
}

TEST(Slice, LinkSeriesSlicesBothSides) {
  LinkSeries ls;
  ls.key = "k";
  ls.near_rtt.start = TimePoint{};
  ls.near_rtt.interval = kMinute * 5;
  ls.near_rtt.ms.assign(288 * 2, 1.0);
  ls.far_rtt = ls.near_rtt;
  const auto cut = slice(ls, TimePoint(kDay), TimePoint(kDay * 2));
  EXPECT_EQ(cut.near_rtt.ms.size(), 288u);
  EXPECT_EQ(cut.far_rtt.ms.size(), 288u);
  EXPECT_EQ(cut.key, "k");
}

// ---------------------------------------------------------------------------
// Classifier

LinkSeries make_link(RttSeries near, RttSeries far) {
  LinkSeries ls;
  ls.key = "test";
  ls.near_rtt = std::move(near);
  ls.far_rtt = std::move(far);
  return ls;
}

TEST(Classifier, CongestedVerdict) {
  const auto link = make_link(flat_near(12, 1.0, 0.2, 20),
                              diurnal_far(12, 2.0, 18.0, 12.0, 6.0, 0.3, 21));
  CongestionClassifier c;
  const auto rep = c.classify(link);
  EXPECT_EQ(rep.verdict, Verdict::kCongested);
  EXPECT_TRUE(rep.near_clean);
  EXPECT_TRUE(rep.diurnal.recurring);
  EXPECT_NEAR(rep.waveform.a_w_ms, 18.0, 3.0);
}

TEST(Classifier, CleanLinkNotCongested) {
  const auto link = make_link(flat_near(12, 1.0, 0.2, 22), flat_near(12, 2.0, 0.3, 23));
  CongestionClassifier c;
  EXPECT_EQ(c.classify(link).verdict, Verdict::kNotCongested);
}

TEST(Classifier, NonDiurnalShiftIsPotentiallyCongested) {
  auto far = flat_near(20, 2.0, 0.3, 24);
  // A 3-day route-change shift.
  for (std::size_t i = 8 * kSamplesPerDay; i < 11 * kSamplesPerDay; ++i) far.ms[i] += 25.0;
  const auto link = make_link(flat_near(20, 1.0, 0.2, 25), std::move(far));
  CongestionClassifier c;
  const auto rep = c.classify(link);
  EXPECT_EQ(rep.verdict, Verdict::kPotentiallyCongested);
  EXPECT_FALSE(rep.has_diurnal_pattern());
}

TEST(Classifier, DirtyNearSideInconclusive) {
  const auto far = diurnal_far(12, 2.0, 18.0, 12.0, 6.0, 0.3, 26);
  const auto near = diurnal_far(12, 1.0, 12.0, 12.0, 6.0, 0.3, 27);  // near also shifts
  const auto link = make_link(near, far);
  CongestionClassifier c;
  EXPECT_EQ(c.classify(link).verdict, Verdict::kInconclusive);
}

TEST(Classifier, SustainedWhenPatternReachesEnd) {
  const auto link = make_link(flat_near(20, 1.0, 0.2, 28),
                              diurnal_far(20, 2.0, 18.0, 12.0, 6.0, 0.3, 29));
  CongestionClassifier c;
  const auto rep = c.classify(link);
  EXPECT_EQ(rep.verdict, Verdict::kCongested);
  EXPECT_EQ(rep.persistence, Persistence::kSustained);
}

TEST(Classifier, TransientWhenPatternStops) {
  // Congested for the first 20 days of a 60-day series.
  const auto far = diurnal_far(60, 2.0, 18.0, 12.0, 6.0, 0.3, 30, 0, 20);
  const auto link = make_link(flat_near(60, 1.0, 0.2, 31), far);
  CongestionClassifier c;
  const auto rep = c.classify(link);
  EXPECT_EQ(rep.verdict, Verdict::kCongested);
  EXPECT_EQ(rep.persistence, Persistence::kTransient);
}

TEST(Classifier, WeekdayWeekendSplit) {
  // Weekday-only congestion (days 0-4 of each week).
  RttSeries far;
  far.start = TimePoint{};
  far.interval = kMinute * 5;
  Rng rng(32);
  for (int d = 0; d < 28; ++d) {
    const bool weekend = (d % 7) >= 5;
    for (std::size_t i = 0; i < kSamplesPerDay; ++i) {
      const double hour = 24.0 * static_cast<double>(i) / kSamplesPerDay;
      const bool peak = hour >= 11 && hour < 17;
      const double mag = peak ? (weekend ? 8.0 : 30.0) : 0.0;
      far.ms.push_back(2.0 + mag + 0.3 * std::fabs(rng.normal()));
    }
  }
  const auto link = make_link(flat_near(28, 1.0, 0.2, 33), far);
  CongestionClassifier c;
  const auto rep = c.classify(link);
  EXPECT_GT(rep.waveform.weekday_peak_ms, rep.waveform.weekend_peak_ms * 1.5);
}

TEST(Classifier, WeekdayWeekendSplitMatchesOracle) {
  // The production split buckets whole calendar days at a time; the oracle
  // classifies every sample through to_calendar.  They must agree bit for
  // bit wherever day blocks are awkward: times before the epoch (clamped
  // to day 0), a cadence that does not divide a day, a start mid-day, a
  // Friday -> Saturday boundary, and calendar days with no finite sample.
  struct Case {
    const char* name;
    TimePoint start;
    Duration interval;
    std::size_t samples;
  };
  const Case cases[] = {
      {"negative start", TimePoint(-(kDay * 8 + kHour * 5)), kMinute * 5, 16 * kSamplesPerDay},
      {"7-min cadence", TimePoint{}, kMinute * 7, 3000},
      {"mid-day start", TimePoint(kHour * 13 + kMinute * 17), kMinute * 5, 9 * kSamplesPerDay},
      {"Friday to Saturday", TimePoint(kDay * 4 + kHour * 22), kMinute * 5, 4 * kSamplesPerDay},
      {"negative start, 7-min cadence", TimePoint(-(kDay + kMinute * 3)), kMinute * 7, 2500},
  };
  Rng rng(0x3eeed);
  for (const auto& c : cases) {
    for (const bool dark_days : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (dark_days ? ", dark days" : ""));
      RttSeries s;
      s.start = c.start;
      s.interval = c.interval;
      for (std::size_t i = 0; i < c.samples; ++i) {
        s.ms.push_back(rng.chance(0.05) ? kMissing : rng.uniform(2.0, 40.0));
      }
      if (dark_days) {
        // Day 1 and every weekend day answer nothing at all.
        for (std::size_t i = 0; i < s.ms.size(); ++i) {
          const CalendarTime t = to_calendar(s.time_of(i));
          if (t.day == 1 || t.is_weekend) s.ms[i] = kMissing;
        }
      }
      double weekday = -1.0, weekend = -1.0, want_weekday = -1.0, want_weekend = -1.0;
      weekday_weekend_peaks(s, 3.0, weekday, weekend);
      oracle::weekday_weekend_peaks(s, 3.0, want_weekday, want_weekend);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(weekday), std::bit_cast<std::uint64_t>(want_weekday));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(weekend), std::bit_cast<std::uint64_t>(want_weekend));
      EXPECT_GT(weekday, 0.0);
      if (dark_days) {
        EXPECT_EQ(weekend, 0.0);
      } else {
        EXPECT_GT(weekend, 0.0);
      }
    }
  }
  // A series with no finite sample at all: both sides report 0.
  RttSeries dark;
  dark.start = TimePoint(-kHour);
  dark.interval = kMinute * 7;
  dark.ms.assign(2 * kSamplesPerDay, kMissing);
  double weekday = -1.0, weekend = -1.0, want_weekday = -1.0, want_weekend = -1.0;
  weekday_weekend_peaks(dark, 3.0, weekday, weekend);
  oracle::weekday_weekend_peaks(dark, 3.0, want_weekday, want_weekend);
  EXPECT_EQ(weekday, 0.0);
  EXPECT_EQ(weekend, 0.0);
  EXPECT_EQ(want_weekday, 0.0);
  EXPECT_EQ(want_weekend, 0.0);
}

TEST(Classifier, FarSideGoesDarkStillSustained) {
  // GIXA-GHANATEL phase 2: probing stops answering on 06/08; the pattern
  // ran right up to the blackout, so the congestion counts as sustained.
  auto far = diurnal_far(30, 2.0, 12.0, 12.0, 8.0, 0.3, 34);
  for (std::size_t i = 20 * kSamplesPerDay; i < far.ms.size(); ++i) far.ms[i] = kMissing;
  const auto link = make_link(flat_near(30, 1.0, 0.2, 35), far);
  CongestionClassifier c;
  const auto rep = c.classify(link);
  EXPECT_TRUE(rep.verdict == Verdict::kCongested || rep.verdict == Verdict::kInconclusive);
  EXPECT_EQ(rep.persistence, Persistence::kSustained);
}

// ---------------------------------------------------------------------------
// Loss correlation (the Fig 2b / Fig 3b analysis)

LossSeries make_loss(const RttSeries& rtt, const LevelShiftResult& shifts, double in_rate,
                     double out_rate, int sent = 100) {
  LossSeries loss;
  loss.target = net::Ipv4Address(196, 49, 0, 2);
  for (std::size_t i = 0; i < rtt.ms.size(); i += 12) {  // one batch per hour
    bool inside = false;
    for (const auto& e : shifts.episodes) {
      if (i >= e.begin && i < e.end) inside = true;
    }
    LossBatch b;
    b.at = rtt.time_of(i);
    b.sent = sent;
    b.lost = static_cast<int>(std::lround(sent * (inside ? in_rate : out_rate)));
    loss.batches.push_back(b);
  }
  return loss;
}

TEST(LossCorrelation, CongestionDrivenLossConfirms) {
  const auto far = diurnal_far(10, 2.0, 20.0, 12.0, 6.0, 0.3, 50);
  LevelShiftDetector det;
  const auto shifts = det.detect(far);
  ASSERT_TRUE(shifts.any());
  const auto loss = make_loss(far, shifts, 0.20, 0.0);  // 20% inside, clean outside
  const auto corr = correlate_loss(loss, far, shifts);
  EXPECT_GT(corr.batches_in, 0u);
  EXPECT_GT(corr.batches_out, 0u);
  EXPECT_NEAR(corr.loss_in_episodes, 0.20, 0.02);
  EXPECT_NEAR(corr.loss_outside, 0.0, 0.01);
  EXPECT_TRUE(corr.loss_confirms_congestion());
  EXPECT_FALSE(corr.users_likely_unaffected());
  EXPECT_GT(corr.correlation, 0.8);
}

TEST(LossCorrelation, KnetStyleLowLoss) {
  // Diurnal RTT pattern but negligible loss everywhere: KNET's signature.
  const auto far = diurnal_far(10, 2.0, 17.5, 12.0, 3.0, 0.3, 51);
  LevelShiftDetector det;
  const auto shifts = det.detect(far);
  ASSERT_TRUE(shifts.any());
  const auto loss = make_loss(far, shifts, 0.001, 0.001, /*sent=*/1000);
  const auto corr = correlate_loss(loss, far, shifts);
  EXPECT_FALSE(corr.loss_confirms_congestion());
  EXPECT_TRUE(corr.users_likely_unaffected());
  EXPECT_NEAR(corr.average_loss(), 0.001, 0.0005);
}

TEST(LossCorrelation, NoEpisodesMeansNoInsideBatches) {
  const auto far = flat_near(10, 2.0, 0.2, 52);
  LevelShiftDetector det;
  const auto shifts = det.detect(far);
  const auto loss = make_loss(far, shifts, 0.5, 0.002);
  const auto corr = correlate_loss(loss, far, shifts);
  EXPECT_EQ(corr.batches_in, 0u);
  EXPECT_TRUE(std::isnan(corr.correlation));
}

// ---------------------------------------------------------------------------
// Degenerate-input regressions for the loss analysis

TEST(LossCorrelation, ZeroVarianceLossIsUndefined) {
  // Identical loss inside and outside episodes: the point-biserial
  // denominator is zero, so the coefficient is undefined.  Before the fix
  // the initializer leaked through and a constant-loss series reported
  // correlation 0.0 -- "measured and found uncorrelated" instead of
  // "cannot be measured".
  const auto far = diurnal_far(10, 2.0, 20.0, 12.0, 6.0, 0.3, 53);
  LevelShiftDetector det;
  const auto shifts = det.detect(far);
  ASSERT_TRUE(shifts.any());
  const auto loss = make_loss(far, shifts, 0.10, 0.10);
  const auto corr = correlate_loss(loss, far, shifts);
  EXPECT_GT(corr.batches_in, 0u);
  EXPECT_GT(corr.batches_out, 0u);
  EXPECT_TRUE(std::isnan(corr.correlation));
  // The means themselves are perfectly well defined.
  EXPECT_NEAR(corr.loss_in_episodes, 0.10, 1e-12);
  EXPECT_NEAR(corr.loss_outside, 0.10, 1e-12);
}

TEST(LossCorrelation, EmptyBatchesAreNotObservations) {
  // Batches that sent zero probes carry no measurement.  Before the fix
  // they entered as zero-loss observations, diluting both means and the
  // correlation.
  const auto far = diurnal_far(10, 2.0, 20.0, 12.0, 6.0, 0.3, 54);
  LevelShiftDetector det;
  const auto shifts = det.detect(far);
  ASSERT_TRUE(shifts.any());
  auto loss = make_loss(far, shifts, 0.20, 0.002);
  const auto clean = correlate_loss(loss, far, shifts);
  // Interleave empty batches everywhere, including inside episodes.
  LossSeries padded = loss;
  for (std::size_t i = 0; i < loss.batches.size(); ++i) {
    LossBatch empty;
    empty.at = loss.batches[i].at;
    empty.sent = 0;
    empty.lost = 0;
    padded.batches.push_back(empty);
  }
  const auto padded_corr = correlate_loss(padded, far, shifts);
  EXPECT_EQ(padded_corr.batches_skipped, loss.batches.size());
  EXPECT_EQ(padded_corr.batches_in, clean.batches_in);
  EXPECT_EQ(padded_corr.batches_out, clean.batches_out);
  EXPECT_DOUBLE_EQ(padded_corr.loss_in_episodes, clean.loss_in_episodes);
  EXPECT_DOUBLE_EQ(padded_corr.loss_outside, clean.loss_outside);
  EXPECT_DOUBLE_EQ(padded_corr.correlation, clean.correlation);
}

TEST(LossCorrelation, AllBatchesEmptyIsUndefined) {
  const auto far = diurnal_far(6, 2.0, 20.0, 12.0, 6.0, 0.3, 55);
  LevelShiftDetector det;
  const auto shifts = det.detect(far);
  LossSeries loss;
  for (std::size_t i = 0; i < far.ms.size(); i += 12) {
    LossBatch b;
    b.at = far.time_of(i);
    b.sent = 0;
    b.lost = 0;
    loss.batches.push_back(b);
  }
  const auto corr = correlate_loss(loss, far, shifts);
  EXPECT_EQ(corr.batches_in, 0u);
  EXPECT_EQ(corr.batches_out, 0u);
  EXPECT_EQ(corr.batches_skipped, loss.batches.size());
  EXPECT_TRUE(std::isnan(corr.correlation));
  EXPECT_TRUE(std::isnan(corr.average_loss()));
}

// ---------------------------------------------------------------------------
// Engine equivalence: the scalar oracle vs detect_fast vs online, byte for
// byte

// Asserts two detector results are bit-identical in every field a
// downstream consumer can observe.
void expect_same_result(const LevelShiftResult& a, const LevelShiftResult& b,
                        const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.episodes.size(), b.episodes.size());
  for (std::size_t i = 0; i < a.episodes.size(); ++i) {
    EXPECT_EQ(a.episodes[i].begin, b.episodes[i].begin);
    EXPECT_EQ(a.episodes[i].end, b.episodes[i].end);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.episodes[i].magnitude_ms),
              std::bit_cast<std::uint64_t>(b.episodes[i].magnitude_ms));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.episodes[i].p_value),
              std::bit_cast<std::uint64_t>(b.episodes[i].p_value));
  }
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].begin, b.segments[i].begin);
    EXPECT_EQ(a.segments[i].end, b.segments[i].end);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.segments[i].level),
              std::bit_cast<std::uint64_t>(b.segments[i].level));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.baseline_ms),
            std::bit_cast<std::uint64_t>(b.baseline_ms));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.coverage),
            std::bit_cast<std::uint64_t>(b.coverage));
  EXPECT_EQ(a.refused_low_coverage, b.refused_low_coverage);
  ASSERT_EQ(a.gaps.size(), b.gaps.size());
  for (std::size_t i = 0; i < a.gaps.size(); ++i) {
    EXPECT_EQ(a.gaps[i].begin, b.gaps[i].begin);
    EXPECT_EQ(a.gaps[i].end, b.gaps[i].end);
  }
  EXPECT_EQ(a.windows_scanned, b.windows_scanned);
  EXPECT_EQ(a.windows_skipped_dark, b.windows_skipped_dark);
  EXPECT_EQ(a.windows_skipped_quiet, b.windows_skipped_quiet);
}

// The equivalence corpus: every shape the detector meets in campaigns --
// quiet, congested, noisy, gappy, boundary-hugging, and degenerate.
std::vector<RttSeries> equivalence_corpus() {
  std::vector<RttSeries> corpus;
  corpus.push_back(diurnal_far(10, 2.0, 18.0, 12.0, 6.0, 0.3, 101));
  corpus.push_back(diurnal_far(14, 5.0, 25.0, 20.0, 5.0, 1.0, 102));
  corpus.push_back(flat_near(10, 1.0, 0.2, 103));
  corpus.push_back(flat_near(14, 40.0, 8.0, 104));  // noisy, never shifts
  // Congestion active from sample 0 (episode pinned at the series start).
  corpus.push_back(diurnal_far(8, 2.0, 20.0, 0.0, 8.0, 0.3, 105));
  // Congestion running through the final sample.
  {
    auto s = flat_near(8, 2.0, 0.3, 106);
    for (std::size_t i = s.ms.size() - 3 * kSamplesPerDay; i < s.ms.size(); ++i) s.ms[i] += 20.0;
    corpus.push_back(std::move(s));
  }
  // Mid-series all-missing outage crossing a plateau.
  {
    auto s = diurnal_far(10, 2.0, 18.0, 12.0, 6.0, 0.3, 107);
    for (std::size_t i = 4 * kSamplesPerDay; i < 5 * kSamplesPerDay; ++i) s.ms[i] = kMissing;
    corpus.push_back(std::move(s));
  }
  // Random 20% missing.
  {
    auto s = diurnal_far(10, 2.0, 18.0, 12.0, 6.0, 0.3, 108);
    Rng rng(109);
    for (auto& x : s.ms) {
      if (rng.chance(0.2)) x = kMissing;
    }
    corpus.push_back(std::move(s));
  }
  // Sub-coverage: refusal path.
  {
    RttSeries s;
    s.interval = kMinute * 5;
    s.ms.assign(1152, kMissing);
    for (std::size_t i = 0; i < 8; ++i) s.ms[i * 16] = i % 2 == 0 ? 10.0 : 40.0;
    corpus.push_back(std::move(s));
  }
  // Degenerates: empty, single-sample, all-gap.
  {
    RttSeries s;
    s.interval = kMinute * 5;
    corpus.push_back(s);  // empty
    s.ms.assign(1, 10.0);
    corpus.push_back(s);  // single sample
    s.ms.assign(600, kMissing);
    corpus.push_back(std::move(s));  // all gap
  }
  return corpus;
}

TEST(EngineEquivalence, FastMatchesLegacyOnCorpus) {
  LevelShiftOptions opts;
  LevelShiftDetector det(opts);
  std::size_t idx = 0;
  for (const auto& s : equivalence_corpus()) {
    const auto fast = det.detect(s);
    const auto legacy = oracle::detect_legacy(s, opts);
    expect_same_result(fast, legacy, ("corpus series " + std::to_string(idx++)).c_str());
  }
}

// ---------------------------------------------------------------------------
// Online detector: order-independence properties

TEST(OnlineProperty, OneAtATimeMatchesAllAtOnce) {
  LevelShiftOptions opts;
  std::size_t idx = 0;
  for (const auto& s : equivalence_corpus()) {
    SCOPED_TRACE("corpus series " + std::to_string(idx++));
    OnlineLevelShift one(opts, s.start, s.interval);
    for (const double x : s.ms) one.push(x);
    OnlineLevelShift all(opts, s.start, s.interval);
    all.push(std::span<const double>(s.ms));
    DetectScratch scratch;
    const auto a = one.finalize(view_of(s), scratch);
    const auto b = all.finalize(view_of(s), scratch);
    expect_same_result(a, b, "one-at-a-time vs all-at-once");
    // And both match the offline detector and the oracle.
    LevelShiftDetector det(opts);
    expect_same_result(a, det.detect(s), "online vs fast");
    expect_same_result(a, oracle::detect_legacy(s, opts), "online vs legacy");
  }
}

TEST(OnlineProperty, ChunkedFeedAtRandomSplitsMatches) {
  LevelShiftOptions opts;
  const auto corpus = equivalence_corpus();
  Rng rng(0xc4a11);
  DetectScratch scratch;
  for (std::size_t idx = 0; idx < corpus.size(); ++idx) {
    const auto& s = corpus[idx];
    LevelShiftDetector det(opts);
    const auto want = det.detect(s);
    for (int trial = 0; trial < 3; ++trial) {
      SCOPED_TRACE("series " + std::to_string(idx) + " trial " + std::to_string(trial));
      OnlineLevelShift online(opts, s.start, s.interval);
      std::size_t fed = 0;
      while (fed < s.ms.size()) {
        const std::size_t chunk = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(s.ms.size() - fed)));
        online.push(std::span<const double>(s.ms).subspan(fed, chunk));
        fed += chunk;
      }
      expect_same_result(online.finalize(view_of(s), scratch), want, "chunked vs fast");
    }
  }
}

TEST(OnlineProperty, FinalizeIsRepeatableAndResumable) {
  // finalize() must not corrupt detector state: finalizing mid-stream and
  // then feeding the rest must equal the never-finalized run.
  LevelShiftOptions opts;
  const auto s = diurnal_far(10, 2.0, 18.0, 12.0, 6.0, 0.3, 120);
  OnlineLevelShift online(opts, s.start, s.interval);
  const std::size_t half = s.ms.size() / 2;
  online.push(std::span<const double>(s.ms).first(half));
  const SeriesView first_half{std::span<const double>(s.ms).first(half), s.start, s.interval};
  DetectScratch scratch;
  const auto mid1 = online.finalize(first_half, scratch);
  const auto mid2 = online.finalize(first_half, scratch);
  expect_same_result(mid1, mid2, "repeated finalize");
  online.push(std::span<const double>(s.ms).subspan(half));
  LevelShiftDetector det(opts);
  expect_same_result(online.finalize(view_of(s), scratch), det.detect(s),
                     "resume after finalize");
}

TEST(OnlineProperty, FinalizeAtHigherThresholdMatchesDetect) {
  // Campaigns push the far side at the 5 ms floor and judge Table-2
  // snapshots at the classifier threshold from the same detector: a
  // finalize at T1 >= T0 must equal detect_fast at T1 field for field,
  // window counters included, however the samples were chunked.  The
  // corpus gains plateaus whose spread sits between the gates (4 ms: quiet
  // at 10 ms only; 8 ms: quiet at 20 ms only), so the re-gate has work.
  auto corpus = equivalence_corpus();
  corpus.push_back(diurnal_far(10, 2.0, 4.0, 12.0, 6.0, 0.3, 122));
  corpus.push_back(diurnal_far(10, 2.0, 8.0, 12.0, 6.0, 0.3, 123));
  DetectScratch scratch;
  {
    // A threshold below the push threshold cannot be replayed: the
    // windows quiet at T0 were never scanned.  Checked before any other
    // work so the death-test child, which re-runs this test up to here
    // with the checks armed, stays cheap.
    LevelShiftOptions opts;
    opts.threshold_ms = 5.0;
    const RttSeries& s = corpus.front();
    OnlineLevelShift online(opts, s.start, s.interval);
    online.push(std::span<const double>(s.ms));
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setenv("IXP_PARANOID", "1", 1);
    EXPECT_DEATH((void)online.finalize(view_of(s), scratch, 4.0), "below the push threshold");
    unsetenv("IXP_PARANOID");
  }
  Rng rng(0x7411);
  std::size_t regated = 0;  // results whose scanned-window count T1 changed
  LevelShiftOptions push_opts;
  push_opts.threshold_ms = 5.0;
  for (std::size_t idx = 0; idx < corpus.size(); ++idx) {
    const auto& s = corpus[idx];
    OnlineLevelShift online(push_opts, s.start, s.interval);
    std::size_t fed = 0;
    while (fed < s.ms.size()) {
      const std::size_t chunk = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(s.ms.size() - fed)));
      online.push(std::span<const double>(s.ms).subspan(fed, chunk));
      fed += chunk;
      // Finalizing mid-stream at T1 must leave the detector resumable.
      if (fed < s.ms.size()) {
        SCOPED_TRACE("series " + std::to_string(idx) + " prefix " + std::to_string(fed));
        const SeriesView prefix{std::span<const double>(s.ms).first(fed), s.start, s.interval};
        LevelShiftOptions at = push_opts;
        at.threshold_ms = 20.0;
        expect_same_result(online.finalize(prefix, scratch, 20.0),
                           detect_fast(prefix, at, scratch), "mid-stream finalize(T1)");
      }
    }
    std::size_t scanned_at_t0 = 0;
    for (const double t1 : {5.0, 10.0, 20.0}) {
      SCOPED_TRACE("series " + std::to_string(idx) + " T1 " + std::to_string(t1));
      LevelShiftOptions at = push_opts;
      at.threshold_ms = t1;
      const LevelShiftResult got = online.finalize(view_of(s), scratch, t1);
      expect_same_result(got, detect_fast(view_of(s), at, scratch), "finalize(T1) vs fast");
      if (t1 == 5.0) scanned_at_t0 = got.windows_scanned;
      if (got.windows_scanned != scanned_at_t0) ++regated;
    }
  }
  // The corpus must exercise the re-gate, or the replay is untested.
  EXPECT_GT(regated, 0u);
}

TEST(OnlineProperty, BoundedMemory) {
  // The online detector's buffered tail is bounded by window + stride no
  // matter how long the feed runs.
  LevelShiftOptions opts;
  const auto s = diurnal_far(30, 2.0, 18.0, 12.0, 6.0, 0.3, 121);
  OnlineLevelShift online(opts, s.start, s.interval);
  const std::size_t win = std::max<std::size_t>(
      2, static_cast<std::size_t>(kAnalysisWindow.count() / s.interval.count()));
  const std::size_t bound = win + std::max<std::size_t>(1, win / 2);
  std::size_t high_water = 0;
  for (const double x : s.ms) {
    online.push(x);
    high_water = std::max(high_water, online.pending_samples());
  }
  EXPECT_EQ(online.samples_seen(), s.ms.size());
  EXPECT_LE(high_water, bound);
}

// ---------------------------------------------------------------------------
// Window boundary pins (the rank-CUSUM off-by-one audit)

TEST(LevelShiftBoundary, EpisodeCanBeginAtSampleZero) {
  // Elevated from the very first sample, dropping later: the first
  // episode must begin exactly at 0, not at 1 (a detector that only
  // opened episodes at accepted change points lost the leading sample).
  auto s = flat_near(8, 2.0, 0.3, 130);
  for (std::size_t i = 0; i < 2 * kSamplesPerDay; ++i) s.ms[i] += 20.0;
  LevelShiftDetector det;
  const auto fast = det.detect(s);
  const auto legacy = oracle::detect_legacy(s, det.options());
  for (const auto* res : {&fast, &legacy}) {
    ASSERT_TRUE(res->any());
    EXPECT_EQ(res->episodes.front().begin, 0u);
    for (const auto& e : res->episodes) {
      EXPECT_LT(e.begin, e.end);
      EXPECT_LE(e.end, s.ms.size());
    }
  }
}

TEST(LevelShiftBoundary, EpisodeCanEndAtFinalSample) {
  // Elevated through the last sample: the final episode must end exactly
  // at n -- neither dropped (off-by-one clamp at n-1) nor past the series.
  auto s = flat_near(8, 2.0, 0.3, 131);
  for (std::size_t i = s.ms.size() - 2 * kSamplesPerDay; i < s.ms.size(); ++i) s.ms[i] += 20.0;
  LevelShiftDetector det;
  const auto fast = det.detect(s);
  const auto legacy = oracle::detect_legacy(s, det.options());
  for (const auto* res : {&fast, &legacy}) {
    ASSERT_TRUE(res->any());
    EXPECT_EQ(res->episodes.back().end, s.ms.size());
    for (const auto& e : res->episodes) {
      EXPECT_LT(e.begin, e.end);
      EXPECT_LE(e.end, s.ms.size());
    }
  }
}

TEST(LevelShiftBoundary, EpisodeBoundsHoldAcrossGapRuns) {
  // A plateau interrupted by an all-missing run: sanitization may bridge
  // the gap, but no episode may extend past the series end or invert.
  auto s = flat_near(10, 2.0, 0.3, 132);
  for (std::size_t i = 3 * kSamplesPerDay; i < 7 * kSamplesPerDay; ++i) s.ms[i] += 20.0;
  for (std::size_t i = 4 * kSamplesPerDay; i < 4 * kSamplesPerDay + 100; ++i) s.ms[i] = kMissing;
  // Trailing gap right at the series end.
  for (std::size_t i = s.ms.size() - 50; i < s.ms.size(); ++i) s.ms[i] = kMissing;
  LevelShiftDetector det;
  const auto fast = det.detect(s);
  const auto legacy = oracle::detect_legacy(s, det.options());
  expect_same_result(fast, legacy, "gap-run series");
  ASSERT_TRUE(fast.any());
  for (const auto& e : fast.episodes) {
    EXPECT_LT(e.begin, e.end);
    EXPECT_LE(e.end, s.ms.size());
  }
}

TEST(LevelShiftBoundary, DegenerateSeriesNeverCrash) {
  LevelShiftDetector det;
  RttSeries s;
  s.interval = kMinute * 5;
  // Empty.
  auto res = det.detect(s);
  EXPECT_FALSE(res.any());
  EXPECT_TRUE(res.episodes.empty());
  // Single sample.
  s.ms.assign(1, 12.0);
  res = det.detect(s);
  EXPECT_FALSE(res.any());
  // Two samples (the smallest window the scanner can form).
  s.ms = {12.0, 30.0};
  res = det.detect(s);
  EXPECT_LE(res.episodes.size(), 1u);
  // All gap.
  s.ms.assign(500, kMissing);
  res = det.detect(s);
  EXPECT_FALSE(res.any());
  EXPECT_TRUE(res.refused_low_coverage);
}

TEST(LevelShift, MinDurationCeilAtOddCadence) {
  // min_episode_samples rounds *up*: with a 7-minute cadence and a
  // 30-minute floor, 30/7 = 4.29 must require 5 samples -- an episode of
  // 4 samples spans only 28 minutes, under the floor.  Truncation kept it.
  EXPECT_EQ(min_episode_samples(kMinute * 30, kMinute * 7), 5u);
  EXPECT_EQ(min_episode_samples(kMinute * 30, kMinute * 5), 6u);
  EXPECT_EQ(min_episode_samples(kMinute * 30, kMinute * 30), 1u);
  EXPECT_EQ(min_episode_samples(Duration{}, kMinute * 5), 0u);
}

// ---------------------------------------------------------------------------
// Raw vs columnar-decoded classification (coverage refusal parity)

TEST(Classifier, ColumnarRefusalMatchesRaw) {
  // A link whose far side is below kMinCoverage must be refused with the
  // same verdict whether the series comes in raw or is decoded from the
  // columnar store -- coverage is computed over the same sample count, so
  // the round trip (which preserves NaN runs exactly) cannot flip it.
  RttSeries far;
  far.interval = kMinute * 5;
  far.ms.assign(1152, kMissing);
  for (std::size_t i = 0; i < 8; ++i) far.ms[i * 16] = i % 2 == 0 ? 10.0 : 40.0;
  const auto near = flat_near(4, 1.0, 0.2, 140);
  const auto link = make_link(near, far);

  series::SeriesStore store(link.far_rtt.start, link.far_rtt.interval);
  store.add_link({.key = link.key});
  store.append(0, link.near_rtt.ms, link.far_rtt.ms);
  LinkSeries decoded = link;
  decoded.near_rtt.ms.clear();
  decoded.far_rtt.ms.clear();
  store.decode_into(0, decoded.near_rtt.ms, decoded.far_rtt.ms);
  ASSERT_EQ(decoded.far_rtt.ms.size(), link.far_rtt.ms.size());

  CongestionClassifier c;
  const auto raw_rep = c.classify(link);
  const auto col_rep = c.classify(decoded);
  EXPECT_TRUE(raw_rep.far_shifts.refused_low_coverage);
  EXPECT_TRUE(col_rep.far_shifts.refused_low_coverage);
  EXPECT_EQ(raw_rep.verdict, col_rep.verdict);
  EXPECT_EQ(raw_rep.persistence, col_rep.persistence);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(raw_rep.far_shifts.coverage),
            std::bit_cast<std::uint64_t>(col_rep.far_shifts.coverage));
  expect_same_result(raw_rep.far_shifts, col_rep.far_shifts, "far refusal");
  expect_same_result(raw_rep.near_shifts, col_rep.near_shifts, "near side");
}

}  // namespace
}  // namespace ixp::tslp
