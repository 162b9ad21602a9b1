// Periodicity analysis: autocorrelation and diurnal-pattern scoring.
//
// The paper labels a link "congested" only when the far-side RTT level
// shifts recur with a *diurnal* pattern.  DiurnalScore quantifies that:
// the autocorrelation of the (NaN-tolerant, mean-removed) series at the
// one-day lag, plus the fraction of days containing an elevated period.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ixp::stats {

/// Autocorrelation at a single lag; NaN pairs are skipped.  Returns NaN if
/// fewer than 8 valid pairs exist or the series has no variance.
double autocorrelation(std::span<const double> v, std::size_t lag);

/// Autocorrelation for lags 0..max_lag inclusive.
std::vector<double> acf(std::span<const double> v, std::size_t max_lag);

struct DiurnalScore {
  double acf_day = 0.0;        ///< autocorrelation at the 1-day lag
  double elevated_day_frac = 0.0;  ///< fraction of days with an elevated period
  int elevated_days = 0;       ///< absolute number of such days
  int days_with_data = 0;      ///< days dense enough to judge at all
  bool recurring = false;      ///< final verdict given the constants below
};

inline constexpr double kDiurnalAcfThreshold = 0.2;  ///< minimum day-lag autocorrelation
/// A day counts as elevated if its p90 exceeds its p10 by this much.
inline constexpr double kDiurnalElevationMs = 5.0;
inline constexpr double kDiurnalMinDayFrac = 0.25;  ///< fraction of days that must recur
inline constexpr int kDiurnalMinDays = 3;           ///< and at least this many days
/// A day with less than this fraction of finite samples is too sparse to
/// judge: it joins neither the elevated count nor its denominator, so
/// outage/rate-limit gaps cannot dilute the recurrence fraction.
inline constexpr double kDiurnalMinDayCoverage = 0.25;

/// Scores how diurnal the series is.  `v` is sampled uniformly, one entry
/// per probing round (`samples_per_day` of them per day), possibly
/// containing NaN gaps.
DiurnalScore diurnal_score(std::span<const double> v, std::size_t samples_per_day);

}  // namespace ixp::stats
