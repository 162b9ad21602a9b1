#include "analysis/selftest.h"

#include <cmath>
#include <ostream>

#include "stats/changepoint.h"
#include "stats/periodicity.h"
#include "tslp/classifier.h"
#include "tslp/level_shift.h"
#include "tslp/loss_analysis.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ixp::analysis {

namespace {

using tslp::Episode;
using tslp::LevelShiftDetector;
using tslp::LevelShiftResult;
using tslp::RttSeries;

// Absolute tolerance for recorded doubles.  The fixtures are deterministic
// (seeded bootstrap streams), so this only has to absorb harmless
// compiler-level FP variation, not algorithmic drift.
constexpr double kTol = 1e-6;

// Diurnal congestion fixture: `days` days of `base_ms` RTT with a plateau
// of `magnitude_ms` between `start_hour` and `start_hour + width_hours`,
// plus one-sided noise.  Mirrors the generator the gtest suite uses, with
// its own seeds so the corpus is independent of the tests.
RttSeries diurnal_series(int days, double base_ms, double magnitude_ms, double start_hour,
                         double width_hours, double noise_ms, std::uint64_t seed,
                         Duration interval = kMinute * 5) {
  Rng rng(seed);
  RttSeries s;
  s.start = TimePoint{};
  s.interval = interval;
  const auto n = static_cast<std::size_t>((kDay.count() * days) / interval.count());
  for (std::size_t i = 0; i < n; ++i) {
    const double hour = std::fmod(to_hours(s.time_of(i).since_epoch()), 24.0);
    const bool in_window = hour >= start_hour && hour < start_hour + width_hours;
    const double level = base_ms + (in_window ? magnitude_ms : 0.0);
    s.ms.push_back(level + noise_ms * std::fabs(rng.normal()));
  }
  return s;
}

void record_episodes(GoldenRecord& rec, const LevelShiftResult& res, Duration interval) {
  std::vector<double> begins, ends, magnitudes, p_values;
  for (const auto& e : res.episodes) {
    begins.push_back(static_cast<double>(e.begin));
    ends.push_back(static_cast<double>(e.end));
    magnitudes.push_back(e.magnitude_ms);
    p_values.push_back(e.p_value);
  }
  rec.set("baseline_ms", res.baseline_ms, kTol);
  rec.set("episode_count", static_cast<double>(res.episodes.size()));
  rec.set("episode_begin", begins);
  rec.set("episode_end", ends);
  rec.set("episode_magnitude_ms", magnitudes, kTol);
  rec.set("episode_p_value", p_values, kTol);
  rec.set("average_magnitude_ms", res.average_magnitude(), kTol);
  rec.set("average_duration_hours", to_hours(res.average_duration(interval)), kTol);
  rec.set("average_period_hours", to_hours(res.average_period(interval)), kTol);
}

// Level shifts on a textbook diurnal link: one 6-hour plateau per day.
GoldenRecord case_level_shift_diurnal() {
  const auto s = diurnal_series(10, 2.0, 20.0, 12.0, 6.0, 0.3, 101);
  GoldenRecord rec;
  record_episodes(rec, LevelShiftDetector().detect(s), s.interval);
  return rec;
}

// The sanitization step on hand-built raw episodes, including the nested
// and overlapping shapes that used to shrink the merged span.
GoldenRecord case_level_shift_merge() {
  std::vector<Episode> raw;
  raw.push_back({100, 300, 10.0});
  raw.push_back({150, 250, 50.0});  // nested: contributes no new samples
  raw.push_back({290, 320, 25.0});  // overlaps the tail
  raw.push_back({330, 360, 40.0});  // separated by a small gap
  raw.push_back({500, 520, 5.0});   // distinct episode
  const auto merged = tslp::sanitize_episodes(std::move(raw), 12);
  GoldenRecord rec;
  std::vector<double> begins, ends, magnitudes;
  for (const auto& e : merged) {
    begins.push_back(static_cast<double>(e.begin));
    ends.push_back(static_cast<double>(e.end));
    magnitudes.push_back(e.magnitude_ms);
  }
  rec.set("merged_count", static_cast<double>(merged.size()));
  rec.set("merged_begin", begins);
  rec.set("merged_end", ends);
  rec.set("merged_magnitude_ms", magnitudes, kTol);
  return rec;
}

// Raw change-point detection on a three-level staircase with seeded noise,
// through the detector's own entry and segment builder: the level before
// and after change point k are segments k and k + 1.
GoldenRecord case_changepoint_staircase() {
  Rng rng(202);
  std::vector<double> v;
  for (int i = 0; i < 600; ++i) {
    const double level = i < 200 ? 10.0 : (i < 400 ? 25.0 : 14.0);
    v.push_back(level + 0.5 * rng.normal());
  }
  stats::ChangePointScratch scratch;
  const auto& cps = stats::detect_change_point_indices(v, {}, scratch);
  const auto segs = stats::to_segments(v, cps);
  GoldenRecord rec;
  std::vector<double> index, before, after;
  for (std::size_t k = 0; k < cps.size(); ++k) {
    index.push_back(static_cast<double>(cps[k]));
    before.push_back(segs[k].level);
    after.push_back(segs[k + 1].level);
  }
  rec.set("change_point_count", static_cast<double>(cps.size()));
  rec.set("change_point_index", index);
  rec.set("level_before", before, kTol);
  rec.set("level_after", after, kTol);
  return rec;
}

void record_diurnal(GoldenRecord& rec, const stats::DiurnalScore& score) {
  rec.set("acf_day", score.acf_day, kTol);
  rec.set("elevated_day_frac", score.elevated_day_frac, kTol);
  rec.set("elevated_days", score.elevated_days);
  rec.set("recurring", score.recurring ? 1.0 : 0.0);
}

// diurnal_score at the paper's 5-minute cadence (288 samples/day exactly).
GoldenRecord case_diurnal_score() {
  const auto s = diurnal_series(12, 2.0, 15.0, 11.0, 5.0, 0.4, 303);
  const std::size_t spd = tslp::samples_per_day(s.interval);
  GoldenRecord rec;
  rec.set("samples_per_day", static_cast<double>(spd));
  record_diurnal(rec, stats::diurnal_score(s.ms, spd));
  return rec;
}

// The same analysis at a 7-minute cadence, which does not divide 24 h:
// 205.71 rounds to 206 (truncation used to slice days at 205).
GoldenRecord case_diurnal_nondivisor_cadence() {
  const auto s = diurnal_series(12, 2.0, 15.0, 11.0, 5.0, 0.4, 404, kMinute * 7);
  const std::size_t spd = tslp::samples_per_day(s.interval);
  GoldenRecord rec;
  rec.set("samples_per_day", static_cast<double>(spd));
  record_diurnal(rec, stats::diurnal_score(s.ms, spd));
  return rec;
}

// Loss batches correlated against detected episodes (the Fig 2b/3b logic).
GoldenRecord case_loss_correlation() {
  const auto s = diurnal_series(10, 2.0, 20.0, 12.0, 6.0, 0.3, 505);
  const auto shifts = LevelShiftDetector().detect(s);
  tslp::LossSeries loss;
  for (std::size_t i = 0; i < s.ms.size(); i += 12) {
    bool inside = false;
    for (const auto& e : shifts.episodes) {
      if (i >= e.begin && i < e.end) inside = true;
    }
    tslp::LossBatch b;
    b.at = s.time_of(i);
    b.sent = 100;
    b.lost = inside ? 18 : 1;
    loss.batches.push_back(b);
  }
  const auto corr = tslp::correlate_loss(loss, s, shifts);
  GoldenRecord rec;
  rec.set("batches_in", static_cast<double>(corr.batches_in));
  rec.set("batches_out", static_cast<double>(corr.batches_out));
  rec.set("loss_in_episodes", corr.loss_in_episodes, kTol);
  rec.set("loss_outside", corr.loss_outside, kTol);
  rec.set("correlation", corr.correlation, kTol);
  rec.set("average_loss", corr.average_loss(), kTol);
  return rec;
}

// End-to-end classification of a congested link, pinning the waveform
// numbers (A_w, dt_UD, period) that feed the paper's case-study tables.
GoldenRecord case_classifier_report() {
  tslp::LinkSeries link;
  link.key = "selftest";
  link.far_rtt = diurnal_series(14, 2.0, 18.0, 12.0, 6.0, 0.3, 606);
  link.near_rtt = diurnal_series(14, 1.0, 0.0, 0.0, 0.0, 0.2, 607);
  const auto rep = tslp::CongestionClassifier().classify(link);
  GoldenRecord rec;
  rec.set("verdict", static_cast<double>(rep.verdict));
  rec.set("persistence", static_cast<double>(rep.persistence));
  rec.set("near_clean", rep.near_clean ? 1.0 : 0.0);
  rec.set("a_w_ms", rep.waveform.a_w_ms, kTol);
  rec.set("dt_ud_hours", to_hours(rep.waveform.dt_ud), kTol);
  rec.set("period_hours", to_hours(rep.waveform.period), kTol);
  rec.set("weekday_peak_ms", rep.waveform.weekday_peak_ms, kTol);
  rec.set("weekend_peak_ms", rep.waveform.weekend_peak_ms, kTol);
  record_diurnal(rec, rep.diurnal);
  return rec;
}

}  // namespace

const std::vector<SelftestCase>& selftest_cases() {
  static const std::vector<SelftestCase> cases = {
      {"level_shift_diurnal", "level-shift episodes on a diurnal fixture",
       &case_level_shift_diurnal},
      {"level_shift_merge", "episode sanitization incl. nested/overlapping merges",
       &case_level_shift_merge},
      {"changepoint_staircase", "bootstrap CUSUM change points on a staircase",
       &case_changepoint_staircase},
      {"diurnal_score", "diurnal scoring at the paper's 5-minute cadence",
       &case_diurnal_score},
      {"diurnal_nondivisor_cadence", "diurnal scoring at a cadence that does not divide 24h",
       &case_diurnal_nondivisor_cadence},
      {"loss_correlation", "loss-rate correlation against detected episodes",
       &case_loss_correlation},
      {"classifier_report", "end-to-end congestion classification waveform",
       &case_classifier_report},
  };
  return cases;
}

int run_selftest(std::ostream& os, const std::string& golden_dir, bool update,
                 const std::string& only) {
  int failures = 0;
  int ran = 0;
  for (const auto& c : selftest_cases()) {
    if (!only.empty() && c.name != only) continue;
    ++ran;
    const std::string path = golden_dir + "/" + c.name + ".golden";
    const GoldenRecord actual = c.run();
    if (update) {
      if (actual.save(path)) {
        os << "selftest: wrote " << path << "\n";
      } else {
        os << "selftest: FAILED to write " << path << "\n";
        ++failures;
      }
      continue;
    }
    const auto expected = GoldenRecord::load(path);
    if (!expected) {
      os << "selftest: " << c.name << " ... FAIL (cannot read " << path
         << "; regenerate with `afixp selftest --update-golden`)\n";
      ++failures;
      continue;
    }
    const auto mismatches = GoldenRecord::diff(*expected, actual);
    if (mismatches.empty()) {
      os << "selftest: " << c.name << " ... OK (" << c.description << ")\n";
      continue;
    }
    ++failures;
    os << "selftest: " << c.name << " ... FAIL (" << c.description << ")\n";
    for (const auto& m : mismatches) os << "  " << m << "\n";
  }
  if (ran == 0) {
    os << "selftest: no case named '" << only << "'\n";
    return 1;
  }
  if (!update) {
    os << strformat("selftest: %d/%d cases OK\n", ran - failures, ran);
  }
  return failures;
}

}  // namespace ixp::analysis
