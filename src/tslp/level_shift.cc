#include "tslp/level_shift.h"

#include <algorithm>

#include "tslp/engine.h"
#include "util/check.h"
#include "util/strings.h"

namespace ixp::tslp {

// Episode lists handed to consumers must be sorted, non-overlapping, and
// non-empty per episode; the duration/period averages and the loss
// correlation all assume it.
void check_episode_invariants(const std::vector<Episode>& episodes) {
  if (!paranoid_checks_enabled()) return;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const Episode& e = episodes[i];
    IXP_CHECK(e.begin < e.end,
              strformat("episode %zu is empty or inverted: [%zu, %zu)", i, e.begin, e.end));
    if (i > 0) {
      IXP_CHECK(episodes[i - 1].end <= e.begin,
                strformat("episodes %zu and %zu overlap or are unsorted: [%zu, %zu) then [%zu, %zu)",
                          i - 1, i, episodes[i - 1].begin, episodes[i - 1].end, e.begin, e.end));
    }
  }
}

namespace {

// total * interval / divisor, dividing *after* the multiplication and
// rounding to nearest.  Dividing first (the old code) truncated to a whole
// sample count and biased the reported dt_UD / period low by up to one full
// probing interval.  The product is taken at 128 bits: a multi-year series
// has sample counts past 2^31, and interval.count() is nanoseconds (3e11
// for 5 minutes), so the 64-bit product overflows long before the
// substrate's long-horizon campaigns end (regression:
// tests/test_tslp.cc ScaledMeanLongHorizon).
Duration scaled_mean(std::int64_t total, Duration interval, std::int64_t divisor) {
  const auto product = static_cast<__int128>(interval.count()) * total;
  return Duration(static_cast<std::int64_t>((product + divisor / 2) / divisor));
}

}  // namespace

double LevelShiftResult::average_magnitude() const {
  if (episodes.empty()) return kMissing;
  double sum = 0;
  for (const auto& e : episodes) sum += e.magnitude_ms;
  return sum / static_cast<double>(episodes.size());
}

Duration LevelShiftResult::average_duration(Duration interval) const {
  if (episodes.empty()) return Duration(0);
  std::int64_t total = 0;
  for (const auto& e : episodes) total += static_cast<std::int64_t>(e.samples());
  return scaled_mean(total, interval, static_cast<std::int64_t>(episodes.size()));
}

Duration LevelShiftResult::average_period(Duration interval) const {
  if (episodes.size() < 2) return Duration(0);
  const std::int64_t span = static_cast<std::int64_t>(episodes.back().begin - episodes.front().begin);
  return scaled_mean(span, interval, static_cast<std::int64_t>(episodes.size() - 1));
}

std::vector<Episode> sanitize_episodes(std::vector<Episode> raw, std::size_t gap_samples) {
  return sanitize_episodes(std::move(raw), gap_samples, nullptr);
}

std::vector<Episode> sanitize_episodes(
    std::vector<Episode> raw, std::size_t gap_samples,
    const std::function<bool(std::size_t, std::size_t)>& also_merge) {
  std::vector<Episode> merged;
  for (const auto& e : raw) {
    const bool close_enough =
        !merged.empty() && e.begin <= merged.back().end + gap_samples;
    const bool bridgeable = !merged.empty() && !close_enough && also_merge &&
                            e.begin > merged.back().end &&
                            also_merge(merged.back().end, e.begin);
    if (close_enough || bridgeable) {
      Episode& prev = merged.back();
      // Weight the merged magnitude by the samples each episode actually
      // contributes: overlap with `prev` must not be counted twice, and a
      // nested episode (e.end <= prev.end) must not shrink the span.
      const std::size_t fresh_begin = std::max(e.begin, prev.end);
      const std::size_t fresh = e.end > fresh_begin ? e.end - fresh_begin : 0;
      if (fresh > 0) {
        const double w1 = static_cast<double>(prev.samples());
        const double w2 = static_cast<double>(fresh);
        prev.magnitude_ms = (prev.magnitude_ms * w1 + e.magnitude_ms * w2) / (w1 + w2);
        prev.end = std::max(prev.end, e.end);
      }
    } else {
      merged.push_back(e);
    }
  }
  check_episode_invariants(merged);
  return merged;
}

LevelShiftResult LevelShiftDetector::detect(const RttSeries& series) const {
  thread_local DetectScratch scratch;
  return detect_fast(view_of(series), opts_, scratch);
}

}  // namespace ixp::tslp
