// Level-shift detection on RTT series -- the paper's §5.2 algorithm.
//
// The detector runs the rank-based non-parametric CUSUM change-point test
// (stats/changepoint.h, after Taylor [40]) over windows of the series,
// converts accepted change points into level segments, and extracts
// *elevated episodes*: maximal runs where the level sits at least
// `threshold_ms` above the series baseline for at least `min_duration`
// (paper values: 10 ms and 30 minutes at a 5-minute cadence).
//
// Episode magnitude corresponds to the filled router buffer, which is the
// A_w the paper reports; episode duration is the up-to-down width dt_UD.
// sanitize() merges episodes split by brief dips, matching the paper's
// "level shifts sanitization" step before computing dt_UD.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "stats/changepoint.h"
#include "tslp/series.h"

namespace ixp::tslp {

struct LevelShiftOptions {
  double threshold_ms = 10.0;        ///< minimum magnitude to label a shift
  Duration min_duration = kMinute * 30;
  stats::CusumOptions cusum;         ///< rank-based by default
};

/// Change-point analysis window.
inline constexpr Duration kAnalysisWindow = kDay;
/// Merge episodes separated by gaps up to this long (sanitization).
inline constexpr Duration kMergeGap = kMinute * 30;

// ---- Gap tolerance ----
// Real deployments return gappy series (monitor outages, ICMP rate
// limiting, loss trains); missing rounds must never be treated as
// observations.  These rules decide when the surviving samples still
// support a verdict.
/// Missing runs of at least this many samples become explicit SeriesGap
/// markers in the result.
inline constexpr std::size_t kGapMinRun = 6;
/// Windows with fewer finite samples than this are skipped outright: a
/// handful of surviving points cannot support a change-point decision.
inline constexpr std::size_t kMinFiniteWindow = 8;
/// A raw episode must carry at least this fraction of finite samples
/// over its span, or it is discarded as unsupported.
inline constexpr double kMinEpisodeCoverage = 0.25;
/// Below this overall finite fraction the series is unjudgeable and the
/// detector reports no episodes at all.
inline constexpr double kMinCoverage = 0.02;

/// Episode duration floor in samples.  Rounds *up*: an episode shorter than
/// `min_duration` must never pass, so at a 7-minute cadence a 30-minute
/// floor requires 5 samples (35 min), not the 4 samples (28 min) the old
/// truncating division admitted (regression: MinDurationCeilAtOddCadence).
inline std::size_t min_episode_samples(Duration min_duration, Duration interval) {
  const std::int64_t num = min_duration.count();
  const std::int64_t den = interval.count();
  // No duration floor means no filter: zero, not one.  (Behaviorally the
  // same -- every episode spans at least one sample -- but a caller
  // comparing against the configured floor must see "none".)
  if (num <= 0) return 0;
  if (den <= 0) return 1;
  return static_cast<std::size_t>(std::max<std::int64_t>(1, (num + den - 1) / den));
}

/// One elevated episode: [begin, end) sample indices.
struct Episode {
  std::size_t begin = 0;
  std::size_t end = 0;
  double magnitude_ms = 0.0;  ///< elevated level minus baseline
  /// Two-sided Mann-Whitney p-value of the episode's samples against the
  /// series' baseline samples; ~0 for genuine level shifts.
  double p_value = 1.0;

  [[nodiscard]] std::size_t samples() const { return end - begin; }
  [[nodiscard]] bool significant(double alpha = 0.01) const { return p_value < alpha; }
};

/// The sanitization step: merges episodes whose gap is <= `gap_samples`
/// samples, weighting the merged magnitude by each episode's contribution
/// of *new* (non-overlapping) samples.  Input must be sorted by `begin`;
/// overlapping and even fully nested episodes are handled (a nested episode
/// never shrinks the merged span).  Exposed for direct testing.
std::vector<Episode> sanitize_episodes(std::vector<Episode> raw, std::size_t gap_samples);

/// Same merge, with an extra predicate: episodes whose inter-gap
/// [prev_end, next_begin) satisfies `also_merge` are merged even when the
/// gap exceeds `gap_samples`.  The detector bridges every all-missing run,
/// of any length: a gap carries no evidence that the level ever came back
/// down.  (Gaps with even one quiet finite sample in between still split
/// episodes.)
std::vector<Episode> sanitize_episodes(
    std::vector<Episode> raw, std::size_t gap_samples,
    const std::function<bool(std::size_t, std::size_t)>& also_merge);

/// Paranoid-mode invariant check (sorted, non-overlapping, non-empty).
/// No-op unless paranoid checks are on.
void check_episode_invariants(const std::vector<Episode>& episodes);

struct LevelShiftResult {
  double baseline_ms = 0.0;           ///< robust base RTT level
  double coverage = 1.0;              ///< finite fraction of the series
  std::vector<SeriesGap> gaps;        ///< missing runs >= kGapMinRun
  std::vector<stats::Segment> segments;
  std::vector<Episode> episodes;      ///< sanitized, duration-filtered
  /// Elevated segments that qualified as episodes before sanitization
  /// merged them; episodes.size() <= raw_episode_count always holds.
  std::size_t raw_episode_count = 0;
  /// True when the series was too dark to judge (coverage < kMinCoverage)
  /// and the detector refused to emit any verdict.
  bool refused_low_coverage = false;

  // Window telemetry (the detector's skip shortcuts classify windows
  // exactly as the scalar oracle's loop would).
  std::size_t windows_scanned = 0;        ///< ran change-point detection
  std::size_t windows_skipped_dark = 0;   ///< fewer than kMinFiniteWindow
  std::size_t windows_skipped_quiet = 0;  ///< p95-p05 spread below threshold/2

  [[nodiscard]] bool any() const { return !episodes.empty(); }
  /// Average episode magnitude (the paper's A_w); NaN if no episodes.
  [[nodiscard]] double average_magnitude() const;
  /// Average episode duration (the paper's dt_UD).
  [[nodiscard]] Duration average_duration(Duration interval) const;
  /// Average spacing between consecutive episode starts (periodicity).
  [[nodiscard]] Duration average_period(Duration interval) const;
};

class LevelShiftDetector {
 public:
  explicit LevelShiftDetector(LevelShiftOptions opts = {}) : opts_(opts) {}

  /// Runs the full pipeline on one series (detect_fast, tslp/engine.h).
  [[nodiscard]] LevelShiftResult detect(const RttSeries& series) const;

  [[nodiscard]] const LevelShiftOptions& options() const { return opts_; }

 private:
  LevelShiftOptions opts_;
};

}  // namespace ixp::tslp
