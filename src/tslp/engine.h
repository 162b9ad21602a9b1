// The TSLP level-shift detector: a scratch-reusing, vectorized
// implementation of the paper's §5.2 pipeline over a borrowed series view.
//
// detect_fast() is the one production detector.  It is byte-identical to
// the scalar reference pipeline kept in tests/oracle/ on every input (see
// docs/ARCHITECTURE.md, "TSLP fast path", for the argument;
// tests/test_tslp.cc and the golden corpus pin it).  The speed comes from
// exact transformations only:
//   * change-point detection returns accepted *indices* without the
//     discarded per-point confidence re-estimation and segment medians
//     (stats::detect_change_point_indices);
//   * one FiniteIndex pass replaces every per-range counting loop;
//   * the quiet-window test short-circuits on a fused finite min/max
//     (max - min < threshold/2 implies p95 - p05 < threshold/2);
//   * one isfinite compaction feeds both prefilter quantiles;
//   * all per-window buffers are recycled across windows and series.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/changepoint.h"
#include "tslp/kernels.h"
#include "tslp/level_shift.h"
#include "util/check.h"

namespace ixp::tslp {

/// A borrowed series: the samples plus the time base, so detection can run
/// directly over columnar-store decode buffers without copying into an
/// RttSeries.  Same index/time arithmetic as RttSeries.
struct SeriesView {
  std::span<const double> ms;
  TimePoint start{};
  Duration interval = kMinute * 5;

  [[nodiscard]] TimePoint time_of(std::size_t i) const {
    IXP_CHECK(interval.count() > 0, "SeriesView interval must be positive");
    return start + interval * static_cast<std::int64_t>(i);
  }
  [[nodiscard]] std::size_t index_of(TimePoint t) const {
    IXP_CHECK(interval.count() > 0, "SeriesView interval must be positive");
    const auto d = t - start;
    if (d.count() < 0) return 0;
    return static_cast<std::size_t>(d.count() / interval.count());
  }
  [[nodiscard]] std::size_t size() const { return ms.size(); }
};

[[nodiscard]] inline SeriesView view_of(const RttSeries& s) {
  return SeriesView{std::span<const double>(s.ms), s.start, s.interval};
}

/// Reusable buffers for detect_fast: one instance amortizes every
/// allocation across the windows of a series and across series.
struct DetectScratch {
  FiniteIndex index;
  stats::ChangePointScratch cp;
  std::vector<double> finite;               ///< isfinite compaction buffer
  std::vector<std::size_t> cps;             ///< global change-point indices
};

/// The detector.  Classification (CongestionClassifier::classify) and
/// LevelShiftDetector::detect call it directly; OnlineLevelShift::finalize
/// runs the same three steps below with its pre-scanned windows.
LevelShiftResult detect_fast(const SeriesView& series, const LevelShiftOptions& opts,
                             DetectScratch& scratch);

namespace detail {

enum class WindowOutcome { kDark, kQuiet, kScanned };

/// The preamble: validates the view, builds the finite index, computes
/// coverage / gaps / baseline, and derives the window size.  Returns false
/// when detection ends here (empty series, coverage refusal, or NaN
/// baseline); `out` is then final.
bool prepare_series(const SeriesView& series, DetectScratch& scratch, LevelShiftResult& out,
                    std::size_t& win);

/// One analysis window: the darkness and quiet-spread skips, then
/// change-point detection with the window's perturbed seed.  Accepted
/// global indices are appended to `cps`.  The online detector calls it as
/// each window fills, so a window is processed identically no matter when
/// its samples arrived.  `finite` must be the chunk's not-NaN count.  A
/// scanned window's p95 - p05 spread is left in `spread`; the accepted
/// change points do not depend on opts.threshold_ms, so the spread alone
/// decides whether the window would also be scanned at a higher threshold.
WindowOutcome scan_window(std::span<const double> chunk, std::size_t begin, std::size_t finite,
                          const LevelShiftOptions& opts, stats::ChangePointScratch& cp,
                          std::vector<double>& finite_buf, std::vector<std::size_t>& cps,
                          double& spread);

/// The window loop: scans the 50%-overlapping windows of `win` samples
/// whose begins are first_begin, first_begin + win/2, ... up to the series
/// end, counting each outcome in `out` and appending accepted change points
/// (plus each scanned window's end, when it is not the series end) to
/// scratch.cps.  Requires scratch.index built over `series`.
void scan_windows(const SeriesView& series, const LevelShiftOptions& opts, std::size_t win,
                  std::size_t first_begin, DetectScratch& scratch, LevelShiftResult& out);

/// The assembly tail: sort/unique scratch.cps, segments, elevated
/// episodes, sanitization, duration filter, Mann-Whitney significance.
/// Requires out.baseline_ms set and scratch.index built over `series`.
void assemble_result(const SeriesView& series, const LevelShiftOptions& opts,
                     DetectScratch& scratch, LevelShiftResult& out);

}  // namespace detail

}  // namespace ixp::tslp
