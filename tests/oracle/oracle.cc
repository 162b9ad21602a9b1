#include "oracle/oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "stats/changepoint.h"
#include "stats/descriptive.h"
#include "stats/ranks.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ixp::oracle {
namespace {

// CUSUM range (max - min of the CUSUM path) -- Taylor's Sdiff statistic.
// NaN entries contribute zero deviation.
double cusum_range(std::span<const double> v, double m) {
  double s = 0, lo = 0, hi = 0;
  for (double x : v) {
    if (std::isfinite(x)) s += x - m;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  return hi - lo;
}

// Index of the CUSUM extremum: the last sample of the old level.
std::size_t cusum_extremum(std::span<const double> v, double m) {
  double s = 0, best = -1;
  std::size_t at = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::isfinite(v[i])) s += v[i] - m;
    if (std::fabs(s) > best) {
      best = std::fabs(s);
      at = i;
    }
  }
  return at;
}

struct Detector {
  const stats::CusumOptions& opt;
  Rng rng;
  std::vector<std::size_t> found;

  // Bootstrap with early exit: once the number of exceedances guarantees
  // the confidence cannot reach the bar, stop shuffling.
  double confidence_of(std::span<const double> v) {
    const double m = stats::mean(v);
    if (std::isnan(m)) return 0.0;
    const double observed = cusum_range(v, m);
    if (observed <= 0) return 0.0;
    std::vector<double> shuffled(v.begin(), v.end());
    const int rounds = std::max(1, opt.bootstrap_rounds);
    const int max_fail = static_cast<int>(std::floor((1.0 - opt.confidence) * rounds));
    int below = 0;
    for (int r = 0; r < rounds; ++r) {
      // Fisher-Yates; reshuffling the previous permutation stays uniform.
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(shuffled[i - 1], shuffled[j]);
      }
      if (cusum_range(shuffled, m) < observed) {
        ++below;
      } else if (r - below >= max_fail + 1) {
        // Even if every remaining round lands below, the bar is missed.
        return static_cast<double>(below) / rounds;
      }
    }
    return static_cast<double>(below) / rounds;
  }

  void recurse(std::span<const double> v, std::size_t offset) {
    if (v.size() < 2 * opt.min_segment) return;
    const double conf = confidence_of(v);
    if (conf < opt.confidence) return;
    const double m = stats::mean(v);
    const std::size_t ext = cusum_extremum(v, m);
    const std::size_t split = ext + 1;  // first index of the new level
    if (split < opt.min_segment || v.size() - split < opt.min_segment) return;
    found.push_back(offset + split);
    recurse(v.subspan(0, split), offset);
    recurse(v.subspan(split), offset + split);
  }
};

}  // namespace

std::vector<std::size_t> change_point_indices(std::span<const double> v,
                                              const stats::CusumOptions& opt) {
  std::vector<double> work;
  std::span<const double> input = v;
  if (opt.use_ranks) {
    work = stats::ranks(v);
    input = work;
  }
  Detector det{opt, Rng(opt.seed), {}};
  det.recurse(input, 0);
  std::sort(det.found.begin(), det.found.end());
  det.found.erase(std::unique(det.found.begin(), det.found.end()), det.found.end());
  return det.found;
}

using tslp::Episode;
using tslp::LevelShiftOptions;
using tslp::LevelShiftResult;
using tslp::RttSeries;

LevelShiftResult detect_legacy(const RttSeries& series, const LevelShiftOptions& opts) {
  LevelShiftResult out;
  const auto& v = series.ms;
  if (v.empty()) return out;
  IXP_CHECK(series.interval.count() > 0,
            strformat("RttSeries interval must be positive, got %lldns",
                      static_cast<long long>(series.interval.count())));
  IXP_CHECK(series.index_of(series.time_of(v.size() - 1)) == v.size() - 1,
            "RttSeries index/time round-trip is broken");

  // Gap accounting: explicit markers for the missing runs, and a coverage
  // early-out — a series that is almost entirely dark (monitor outage for
  // most of the window) cannot support any verdict.
  out.coverage = series.coverage();
  out.gaps = tslp::find_gaps(series, tslp::kGapMinRun);
  if (out.coverage < tslp::kMinCoverage) {
    out.refused_low_coverage = true;
    return out;
  }

  // Baseline: the 10th percentile of the whole series is a robust estimate
  // of the uncongested RTT floor.
  out.baseline_ms = stats::quantile(v, 0.10);
  if (std::isnan(out.baseline_ms)) return out;

  // Change-point analysis over 50%-overlapping windows; change points are
  // global indices.  The overlap matters: a shift that happens to land
  // exactly on a window boundary is flat inside both adjacent windows (and
  // the quiet-window fast path would skip them), but it sits mid-window in
  // the offset pass.
  const std::size_t win = std::max<std::size_t>(
      2, static_cast<std::size_t>(tslp::kAnalysisWindow.count() / series.interval.count()));
  std::vector<std::size_t> cps;
  for (std::size_t begin = 0; begin < v.size(); begin += win / 2) {
    const std::size_t end = std::min(begin + win, v.size());
    const std::span<const double> chunk(v.data() + begin, end - begin);
    // Mostly-dark windows are skipped outright: a handful of surviving
    // samples cannot support a change-point decision, and the bootstrap's
    // rank transform would amplify their noise.
    std::size_t finite = 0;
    for (const double x : chunk) {
      if (!std::isnan(x)) ++finite;
    }
    if (finite < tslp::kMinFiniteWindow) {
      ++out.windows_skipped_dark;
      continue;
    }
    const double hi = stats::quantile(chunk, 0.95);
    const double lo = stats::quantile(chunk, 0.05);
    if (!(hi - lo >= opts.threshold_ms / 2.0)) {
      ++out.windows_skipped_quiet;
      continue;
    }
    ++out.windows_scanned;
    stats::CusumOptions copt = opts.cusum;
    copt.seed ^= begin * 0x9e3779b97f4a7c15ULL;  // distinct bootstrap streams
    for (const std::size_t idx : change_point_indices(chunk, copt)) {
      cps.push_back(begin + idx);
    }
    // Window boundaries are implicit change points so segment levels never
    // average across windows.
    if (end < v.size()) cps.push_back(end);
  }
  std::sort(cps.begin(), cps.end());
  cps.erase(std::unique(cps.begin(), cps.end()), cps.end());

  // Build segments over the whole series.
  out.segments = stats::to_segments(v, cps);

  // Elevated segments -> raw episodes.  Episodes whose span is mostly
  // missing are unsupported: the segment level rests on too few samples.
  std::vector<Episode> raw;
  for (const auto& seg : out.segments) {
    if (std::isnan(seg.level)) continue;
    if (seg.level - out.baseline_ms >= opts.threshold_ms) {
      std::size_t finite = 0;
      for (std::size_t i = seg.begin; i < seg.end; ++i) {
        if (!std::isnan(v[i])) ++finite;
      }
      const double span = static_cast<double>(seg.end - seg.begin);
      if (span <= 0 || static_cast<double>(finite) / span < tslp::kMinEpisodeCoverage) {
        continue;
      }
      raw.push_back({seg.begin, seg.end, seg.level - out.baseline_ms});
    }
  }

  // Sanitize: merge episodes separated by gaps <= kMergeGap, and bridge
  // across all-missing runs of any length — the series was still elevated
  // at the last sample before the gap and at the first one after it, and
  // the gap itself carries no evidence the level came back down.
  const std::size_t gap_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(tslp::kMergeGap.count() / series.interval.count()));
  const auto all_missing = [&v](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      if (!std::isnan(v[i])) return false;
    }
    return true;
  };
  out.raw_episode_count = raw.size();
  const std::vector<Episode> merged =
      tslp::sanitize_episodes(std::move(raw), gap_samples, all_missing);

  // Duration filter (ceil: see min_episode_samples).
  const std::size_t min_samples = tslp::min_episode_samples(opts.min_duration, series.interval);
  for (const auto& e : merged) {
    if (e.samples() >= min_samples) out.episodes.push_back(e);
  }
  tslp::check_episode_invariants(out.episodes);

  // Statistical significance: each surviving episode against a baseline
  // sample drawn from the non-elevated segments (capped for cost).
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
  return out;
}

void weekday_weekend_peaks(const RttSeries& s, double baseline, double& weekday,
                           double& weekend) {
  std::vector<double> wd, we;
  for (std::size_t i = 0; i < s.ms.size(); ++i) {
    const double v = s.ms[i];
    if (std::isnan(v)) continue;
    const CalendarTime c = to_calendar(s.time_of(i));
    (c.is_weekend ? we : wd).push_back(v);
  }
  const double wdp = stats::quantile(wd, 0.95);
  const double wep = stats::quantile(we, 0.95);
  weekday = std::isnan(wdp) ? 0.0 : std::max(0.0, wdp - baseline);
  weekend = std::isnan(wep) ? 0.0 : std::max(0.0, wep - baseline);
}

tslp::LinkReport classify(const tslp::LinkSeries& link, const tslp::ClassifierOptions& opts) {
  LevelShiftOptions near_opts = opts.level_shift;
  near_opts.threshold_ms = opts.near_threshold_ms;
  const tslp::CongestionClassifier classifier(opts);
  tslp::LinkReport report =
      classifier.classify_with_shifts(link, detect_legacy(link.far_rtt, opts.level_shift),
                                      detect_legacy(link.near_rtt, near_opts));
  // classify_with_shifts fills the waveform only for links with far-side
  // episodes; redo its split the scalar way.  (Qualified: argument-dependent
  // lookup would also find tslp::weekday_weekend_peaks.)
  if (report.far_shifts.any()) {
    oracle::weekday_weekend_peaks(link.far_rtt, report.far_shifts.baseline_ms,
                                  report.waveform.weekday_peak_ms,
                                  report.waveform.weekend_peak_ms);
  }
  return report;
}

}  // namespace ixp::oracle
