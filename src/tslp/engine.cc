#include "tslp/engine.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "stats/ranks.h"
#include "util/simd.h"
#include "util/strings.h"

namespace ixp::tslp {

namespace {

using detail::WindowOutcome;

// The darkness and quiet-spread gates of scan_window, no detection.  A
// window that passes leaves its p95 - p05 spread in `spread`.
WindowOutcome gate_window(std::span<const double> chunk, std::size_t finite,
                          const LevelShiftOptions& opts, std::vector<double>& finite_buf,
                          double& spread) {
  if (finite < kMinFiniteWindow) return WindowOutcome::kDark;
  double lo = 0.0, hi = 0.0;
  // No finite sample: the prefilter's quantiles would be NaN, and
  // !(NaN - NaN >= x) skips the window.
  if (!simd::finite_minmax(chunk, lo, hi)) return WindowOutcome::kQuiet;
  // Exact conservative shortcut: p95 - p05 <= max - min, so a spread
  // below the bar here is below the bar for the quantiles too.  Only
  // windows that pass pay for the real prefilter.
  if (hi - lo < opts.threshold_ms / 2.0) return WindowOutcome::kQuiet;
  finite_buf.resize(chunk.size());
  const std::size_t nf = simd::compact_finite(chunk, finite_buf.data());
  const std::span<double> fb(finite_buf.data(), nf);
  // quantile_inplace only permutes fb, so the second call sees the same
  // multiset the first did -- both values match fresh quantile() calls.
  const double q95 = stats::quantile_inplace(fb, 0.95);
  const double q05 = stats::quantile_inplace(fb, 0.05);
  spread = q95 - q05;
  if (!(spread >= opts.threshold_ms / 2.0)) return WindowOutcome::kQuiet;
  return WindowOutcome::kScanned;
}

}  // namespace

namespace detail {

WindowOutcome scan_window(std::span<const double> chunk, std::size_t begin, std::size_t finite,
                          const LevelShiftOptions& opts, stats::ChangePointScratch& cp,
                          std::vector<double>& finite_buf, std::vector<std::size_t>& cps,
                          double& spread) {
  const WindowOutcome gate = gate_window(chunk, finite, opts, finite_buf, spread);
  if (gate != WindowOutcome::kScanned) return gate;
  stats::CusumOptions copt = opts.cusum;
  copt.seed ^= begin * 0x9e3779b97f4a7c15ULL;  // distinct bootstrap streams
  for (const std::size_t idx : stats::detect_change_point_indices(chunk, copt, cp)) {
    cps.push_back(begin + idx);
  }
  return WindowOutcome::kScanned;
}

bool prepare_series(const SeriesView& series, DetectScratch& scratch, LevelShiftResult& out,
                    std::size_t& win) {
  const std::span<const double> v = series.ms;
  win = 0;
  if (v.empty()) return false;
  IXP_CHECK(series.interval.count() > 0,
            strformat("SeriesView interval must be positive, got %lldns",
                      static_cast<long long>(series.interval.count())));
  IXP_CHECK(series.index_of(series.time_of(v.size() - 1)) == v.size() - 1,
            "SeriesView index/time round-trip is broken");

  scratch.index.build(v);
  out.coverage =
      static_cast<double>(scratch.index.not_nan(0, v.size())) / static_cast<double>(v.size());
  out.gaps = scratch.index.gaps();
  if (out.coverage < kMinCoverage) {
    out.refused_low_coverage = true;
    return false;
  }

  // Baseline: one compaction, then the shared selection kernel -- exactly
  // what stats::quantile(v, 0.10) computes internally.
  scratch.finite.resize(v.size());
  const std::size_t nf = simd::compact_finite(v, scratch.finite.data());
  out.baseline_ms = stats::quantile_inplace(std::span<double>(scratch.finite.data(), nf), 0.10);
  if (std::isnan(out.baseline_ms)) return false;

  win = std::max<std::size_t>(
      2, static_cast<std::size_t>(kAnalysisWindow.count() / series.interval.count()));
  return true;
}

void scan_windows(const SeriesView& series, const LevelShiftOptions& opts, std::size_t win,
                  std::size_t first_begin, DetectScratch& scratch, LevelShiftResult& out) {
  const std::span<const double> v = series.ms;
  for (std::size_t begin = first_begin; begin < v.size(); begin += win / 2) {
    const std::size_t end = std::min(begin + win, v.size());
    const std::span<const double> chunk(v.data() + begin, end - begin);
    const std::size_t finite = scratch.index.not_nan(begin, end);
    double spread = 0.0;
    switch (scan_window(chunk, begin, finite, opts, scratch.cp, scratch.finite, scratch.cps,
                        spread)) {
      case WindowOutcome::kDark:
        ++out.windows_skipped_dark;
        break;
      case WindowOutcome::kQuiet:
        ++out.windows_skipped_quiet;
        break;
      case WindowOutcome::kScanned:
        ++out.windows_scanned;
        // Window boundaries are implicit change points so segment levels
        // never average across windows.
        if (end < v.size()) scratch.cps.push_back(end);
        break;
    }
  }
}

void assemble_result(const SeriesView& series, const LevelShiftOptions& opts,
                     DetectScratch& scratch, LevelShiftResult& out) {
  const std::span<const double> v = series.ms;
  auto& cps = scratch.cps;
  std::sort(cps.begin(), cps.end());
  cps.erase(std::unique(cps.begin(), cps.end()), cps.end());

  out.segments = stats::to_segments(v, cps);

  // Elevated segments -> raw episodes, with the coverage support test from
  // the prefix counts instead of a per-segment loop.
  std::vector<Episode> raw;
  for (const auto& seg : out.segments) {
    if (std::isnan(seg.level)) continue;
    if (seg.level - out.baseline_ms >= opts.threshold_ms) {
      const std::size_t finite = scratch.index.not_nan(seg.begin, seg.end);
      const double span = static_cast<double>(seg.end - seg.begin);
      if (span <= 0 || static_cast<double>(finite) / span < kMinEpisodeCoverage) {
        continue;
      }
      raw.push_back({seg.begin, seg.end, seg.level - out.baseline_ms});
    }
  }

  const std::size_t gap_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(kMergeGap.count() / series.interval.count()));
  const auto all_missing = [&scratch](std::size_t from, std::size_t to) {
    return scratch.index.all_missing(from, to);
  };
  out.raw_episode_count = raw.size();
  const std::vector<Episode> merged = sanitize_episodes(std::move(raw), gap_samples, all_missing);

  // Duration filter (ceil: see min_episode_samples).
  const std::size_t min_samples = min_episode_samples(opts.min_duration, series.interval);
  for (const auto& e : merged) {
    if (e.samples() >= min_samples) out.episodes.push_back(e);
  }
  check_episode_invariants(out.episodes);

  // Statistical significance, identical sampling to the scalar oracle.
  if (!out.episodes.empty()) {
    std::vector<double> baseline_samples;
    baseline_samples.reserve(2048);
    for (const auto& seg : out.segments) {
      if (std::isnan(seg.level) || seg.level - out.baseline_ms >= opts.threshold_ms) continue;
      const std::size_t step = std::max<std::size_t>(1, (seg.end - seg.begin) / 64);
      for (std::size_t i = seg.begin; i < seg.end && baseline_samples.size() < 2048; i += step) {
        if (std::isfinite(v[i])) baseline_samples.push_back(v[i]);
      }
    }
    for (auto& e : out.episodes) {
      if (baseline_samples.size() < 8) break;
      const std::size_t n = std::min<std::size_t>(e.samples(), 512);
      std::vector<double> ep;
      ep.reserve(n);
      const std::size_t step = std::max<std::size_t>(1, e.samples() / n);
      for (std::size_t i = e.begin; i < e.end; i += step) {
        if (std::isfinite(v[i])) ep.push_back(v[i]);
      }
      if (ep.size() >= 8) e.p_value = stats::mann_whitney_pvalue(ep, baseline_samples);
    }
  }
}

}  // namespace detail

LevelShiftResult detect_fast(const SeriesView& series, const LevelShiftOptions& opts,
                             DetectScratch& scratch) {
  LevelShiftResult out;
  std::size_t win = 0;
  if (!detail::prepare_series(series, scratch, out, win)) return out;
  scratch.cps.clear();
  detail::scan_windows(series, opts, win, 0, scratch, out);
  detail::assemble_result(series, opts, scratch, out);
  return out;
}

}  // namespace ixp::tslp
