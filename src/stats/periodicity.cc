#include "stats/periodicity.h"

#include <cmath>
#include <limits>

#include "stats/descriptive.h"

namespace ixp::stats {

double autocorrelation(std::span<const double> v, std::size_t lag) {
  if (lag >= v.size()) return std::numeric_limits<double>::quiet_NaN();
  const double m = mean(v);
  if (std::isnan(m)) return std::numeric_limits<double>::quiet_NaN();
  double num = 0, den = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) continue;
    const double d = v[i] - m;
    den += d * d;
    if (i + lag < v.size() && std::isfinite(v[i + lag])) {
      num += d * (v[i + lag] - m);
      ++pairs;
    }
  }
  if (pairs < 8 || den <= 0) return std::numeric_limits<double>::quiet_NaN();
  return num / den;
}

std::vector<double> acf(std::span<const double> v, std::size_t max_lag) {
  std::vector<double> out;
  out.reserve(max_lag + 1);
  for (std::size_t lag = 0; lag <= max_lag; ++lag) out.push_back(autocorrelation(v, lag));
  return out;
}

DiurnalScore diurnal_score(std::span<const double> v, std::size_t spd) {
  DiurnalScore score;
  if (spd == 0 || v.size() < 2 * spd) return score;

  const double a = autocorrelation(v, spd);
  score.acf_day = std::isnan(a) ? 0.0 : a;

  const std::size_t days = v.size() / spd;
  int elevated = 0;
  int days_with_data = 0;
  const auto min_day_samples =
      static_cast<std::size_t>(static_cast<double>(spd) * kDiurnalMinDayCoverage);
  for (std::size_t d = 0; d < days; ++d) {
    auto day = v.subspan(d * spd, spd);
    if (finite_count(day) < min_day_samples) continue;  // too sparse to judge
    ++days_with_data;
    const double p90 = quantile(day, 0.90);
    const double p10 = quantile(day, 0.10);
    if (p90 - p10 >= kDiurnalElevationMs) ++elevated;
  }
  score.elevated_days = elevated;
  score.days_with_data = days_with_data;
  score.elevated_day_frac = days_with_data > 0 ? static_cast<double>(elevated) / days_with_data : 0.0;
  score.recurring = score.acf_day >= kDiurnalAcfThreshold &&
                    score.elevated_day_frac >= kDiurnalMinDayFrac && elevated >= kDiurnalMinDays;
  return score;
}

}  // namespace ixp::stats
