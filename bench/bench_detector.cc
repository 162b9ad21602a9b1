// Detector ablations (§5.2 design choices):
//   1. rank-based CUSUM vs plain (parametric) CUSUM under heavy-tailed
//      ICMP noise -- why the paper uses ranks;
//   2. the 30-minute minimum shift duration vs false positives from short
//      blips;
//   3. probing cadence (the paper's 5-minute rounds vs coarser ones) vs
//      detection of short congestion events.
// Each cell reports detection precision/recall against injected ground
// truth over many synthetic link-series.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "tslp/level_shift.h"
#include "util/rng.h"

namespace {

using namespace ixp;

// Builds a far-RTT series with `days` days; congested days get a plateau of
// `magnitude` for `width_hours`.  Heavy-tailed outliers model ICMP slow
// paths.
tslp::RttSeries make_series(int days, double magnitude, double width_hours, Duration interval,
                            double outlier_rate, bool congested, std::uint64_t seed) {
  Rng rng(seed);
  tslp::RttSeries s;
  s.interval = interval;
  const int spd = static_cast<int>(kDay.count() / interval.count());
  for (int d = 0; d < days; ++d) {
    for (int i = 0; i < spd; ++i) {
      const double hour = 24.0 * i / spd;
      double v = 2.0 + 0.3 * std::fabs(rng.normal());
      if (congested && hour >= 13.0 && hour < 13.0 + width_hours) v += magnitude;
      if (rng.chance(outlier_rate)) v += rng.pareto(1.5, 30.0);  // slow ICMP
      s.ms.push_back(v);
    }
  }
  return s;
}

struct PrecisionRecall {
  int tp = 0, fp = 0, fn = 0;
  double precision() const { return tp + fp ? static_cast<double>(tp) / (tp + fp) : 1.0; }
  double recall() const { return tp + fn ? static_cast<double>(tp) / (tp + fn) : 1.0; }
};

PrecisionRecall evaluate(const tslp::LevelShiftOptions& opt, Duration interval, double magnitude,
                         double width_hours, double outlier_rate, int trials) {
  PrecisionRecall pr;
  tslp::LevelShiftDetector det(opt);
  for (int t = 0; t < trials; ++t) {
    const bool congested = (t % 2) == 0;
    const auto s = make_series(10, magnitude, width_hours, interval, outlier_rate,
                               congested, 1000 + static_cast<std::uint64_t>(t));
    const bool flagged = det.detect(s).any();
    if (congested && flagged) ++pr.tp;
    if (congested && !flagged) ++pr.fn;
    if (!congested && flagged) ++pr.fp;
  }
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ixp;
  const bool fast =
      bench::parse_fast_flag(argc, argv, "bench_detector", "level-shift detector ablations");
  const int trials = fast ? 10 : 30;
  std::cout << "bench_detector: level-shift detector ablations (" << trials
            << " series per cell)\n";

  std::cout << "\n[1] rank-based vs plain CUSUM under heavy-tailed ICMP outliers\n";
  std::cout << strformat("%-14s | %-22s | %-22s\n", "outlier rate", "rank precision/recall",
                         "plain precision/recall");
  for (const double rate : {0.0, 0.05, 0.15, 0.25}) {
    tslp::LevelShiftOptions rank_opt;
    tslp::LevelShiftOptions plain_opt;
    plain_opt.cusum.use_ranks = false;
    const auto r = evaluate(rank_opt, kMinute * 5, 12.0, 5.0, rate, trials);
    const auto p = evaluate(plain_opt, kMinute * 5, 12.0, 5.0, rate, trials);
    std::cout << strformat("%-14.2f | %8.2f / %-11.2f | %8.2f / %-11.2f\n", rate, r.precision(),
                           r.recall(), p.precision(), p.recall());
  }

  std::cout << "\n[2] minimum shift duration (paper: 30 min) vs 35-minute blips\n";
  std::cout << "(the CUSUM's own minimum segment already suppresses anything under 30 min;\n"
               " this knob controls how much longer an elevation must persist)\n";
  std::cout << strformat("%-16s | %-10s\n", "min duration", "flagged blip-only series");
  for (const Duration min_dur : {kMinute * 5, kMinute * 30, kMinute * 60, kMinute * 120}) {
    tslp::LevelShiftOptions opt;
    opt.min_duration = min_dur;
    tslp::LevelShiftDetector det(opt);
    int flagged = 0;
    for (int t = 0; t < trials; ++t) {
      // Clean series plus four 35-minute 30 ms blips per day (7 samples
      // each; enough elevated mass that the quiet-window fast path does
      // not skip the day outright).
      auto s = make_series(10, 0.0, 0.0, kMinute * 5, 0.0, false, 2000 + t);
      const int spd = 288;
      for (int d = 0; d < 10; ++d) {
        for (const int start : {72, 120, 168, 216}) {
          for (int i = 0; i < 7; ++i) s.ms[static_cast<std::size_t>(d * spd + start + i)] = 32.0;
        }
      }
      flagged += det.detect(s).any() ? 1 : 0;
    }
    std::cout << strformat("%-16s | %d/%d\n", format_duration(min_dur).c_str(), flagged, trials);
  }

  std::cout << "\n[3] probing cadence vs short-event recall (2 h events, 15 ms)\n";
  std::cout << strformat("%-12s | %-10s %-10s\n", "cadence", "recall", "precision");
  for (const Duration cadence : {kMinute * 5, kMinute * 15, kMinute * 30, kMinute * 60}) {
    tslp::LevelShiftOptions opt;
    const auto pr = evaluate(opt, cadence, 15.0, 2.0, 0.01, trials);
    std::cout << strformat("%-12s | %-10.2f %-10.2f\n", format_duration(cadence).c_str(),
                           pr.recall(), pr.precision());
  }

  std::cout << "\n[4] threshold sweep on a 10 ms link (the Table 1 mechanism)\n";
  std::cout << strformat("%-12s | %-10s\n", "threshold", "flagged");
  for (const double threshold : {5.0, 10.0, 15.0, 20.0}) {
    tslp::LevelShiftOptions opt;
    opt.threshold_ms = threshold;
    tslp::LevelShiftDetector det(opt);
    int flagged = 0;
    for (int t = 0; t < trials; ++t) {
      const auto s = make_series(10, 10.7, 6.0, kMinute * 5, 0.01, true, 3000 + t);
      flagged += det.detect(s).any() ? 1 : 0;
    }
    std::cout << strformat("%-12.0f | %d/%d\n", threshold, flagged, trials);
  }
  return 0;
}
