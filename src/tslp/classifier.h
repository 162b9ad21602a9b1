// Congestion classification of a monitored interdomain link (§5.2/§6).
//
// The paper's decision procedure:
//   * level shifts >= threshold on the far side           -> "potentially
//     congested";
//   * plus a recurring diurnal pattern                    -> candidate;
//   * plus a clean near side (no level shifts there)      -> "congested";
//     a diurnal far side with an ambiguous near side      -> inconclusive,
//     tagged for further analysis;
//   * congestion that is later mitigated (the pattern disappears well
//     before the campaign ends) is *transient*, otherwise *sustained*.
//
// The classifier also computes the waveform characteristics reported in
// the case studies: A_w (average shift magnitude), dt_UD (average up-down
// duration), periodicity, and weekday/weekend amplitude split.
#pragma once

#include <string>

#include "stats/periodicity.h"
#include "tslp/level_shift.h"
#include "tslp/series.h"

namespace ixp::tslp {

/// Probing rounds per day at the given cadence, rounded to nearest and
/// never zero.  Truncating instead (the old behaviour) skewed the diurnal
/// day slicing for cadences that do not divide 24 h, and returned 0 for
/// cadences above one day, which disabled the diurnal test entirely.
std::size_t samples_per_day(Duration interval);

/// The waveform's weekday/weekend split: p95 of the finite samples of `s`
/// on weekdays and on weekend days (calendar of util/time.h, times before
/// the epoch counted as day 0), each minus `baseline` and floored at 0; 0
/// for a side with no finite sample.
void weekday_weekend_peaks(const RttSeries& s, double baseline, double& weekday,
                           double& weekend);

enum class Verdict {
  kNotCongested,
  kPotentiallyCongested,  ///< far-side shifts, no recurring diurnal pattern
  kInconclusive,          ///< far diurnal but near side unclear
  kCongested,             ///< far diurnal + clean near side
};

enum class Persistence {
  kNone,
  kTransient,  ///< pattern disappeared before the campaign end
  kSustained,  ///< pattern continued to the end of the measurements
};

struct WaveformStats {
  double a_w_ms = 0.0;            ///< average level-shift magnitude
  Duration dt_ud{};               ///< average up-to-down duration
  Duration period{};              ///< average spacing of episode starts
  double weekday_peak_ms = 0.0;   ///< p95 far RTT above baseline, weekdays
  double weekend_peak_ms = 0.0;   ///< p95 far RTT above baseline, weekends
};

struct ClassifierOptions {
  LevelShiftOptions level_shift;
  /// Near side is "clean" when it has no episode at this (stricter)
  /// threshold.
  double near_threshold_ms = 5.0;
};

/// Pattern must be absent for this long before the campaign end to call
/// the congestion transient.
inline constexpr Duration kSustainMargin = kDay * 14;

struct LinkReport {
  std::string key;
  Verdict verdict = Verdict::kNotCongested;
  Persistence persistence = Persistence::kNone;
  LevelShiftResult far_shifts;
  LevelShiftResult near_shifts;
  stats::DiurnalScore diurnal;
  WaveformStats waveform;
  bool near_clean = true;
  /// Every far episode's onset coincides with a responder-identity change:
  /// the level shifts are explained by a forwarding change, and any
  /// congestion verdict was downgraded by crosscheck_reroute().
  bool reroute_suspect = false;

  [[nodiscard]] bool potentially_congested() const {
    return verdict != Verdict::kNotCongested;
  }
  [[nodiscard]] bool congested() const { return verdict == Verdict::kCongested; }
  [[nodiscard]] bool has_diurnal_pattern() const { return diurnal.recurring; }
};

/// Reroute-vs-congestion discrimination: cross-checks the report's far
/// level-shift episodes against the rounds where the TSLP driver re-learned
/// the hop distance because the responder identity changed
/// (LinkSeries::responder_changes).  When the link has episodes and every
/// one of them begins within `tolerance_rounds` of such a change, the RTT
/// level shift is explained by the path moving under the monitor, not by a
/// queue: the report is flagged `reroute_suspect` and a kCongested /
/// kInconclusive verdict is downgraded to kPotentiallyCongested.  Returns
/// true when the flag was applied.  A link with even one unexplained
/// episode keeps its verdict — partial reroutes must not launder real
/// congestion.
bool crosscheck_reroute(LinkReport& report,
                        const std::vector<std::size_t>& responder_changes,
                        std::size_t tolerance_rounds = 6);

class CongestionClassifier {
 public:
  explicit CongestionClassifier(ClassifierOptions opts = {});

  [[nodiscard]] LinkReport classify(const LinkSeries& link) const;

  /// The classification tail given already-computed level-shift results:
  /// verdict ladder, diurnality, waveform, persistence.  classify() is
  /// detect + this; campaigns running the *online* detector call it
  /// directly with the finalized per-side results so detection never runs
  /// twice.  `link` still provides the far series for diurnality and the
  /// waveform peaks.
  [[nodiscard]] LinkReport classify_with_shifts(const LinkSeries& link, LevelShiftResult far,
                                                LevelShiftResult near) const;

  [[nodiscard]] const ClassifierOptions& options() const { return opts_; }

 private:
  ClassifierOptions opts_;
};

}  // namespace ixp::tslp
