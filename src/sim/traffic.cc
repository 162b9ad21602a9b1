#include "sim/traffic.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ixp::sim {
namespace {
constexpr double kPi = 3.14159265358979323846;

// Raised-cosine bump: 1 at the centre, 0 at +/- half_width, smooth edges.
// Hours wrap around midnight.
double bump(double hour, double centre, double half_width) {
  double d = std::fabs(hour - centre);
  if (d > 12.0) d = 24.0 - d;
  if (d >= half_width) return 0.0;
  return 0.5 * (1.0 + std::cos(kPi * d / half_width));
}
}  // namespace

double DiurnalProfile::bps(TimePoint t) const {
  const CalendarTime c = to_calendar(t);
  const double scale = c.is_weekend ? cfg_.weekend_scale : cfg_.weekday_scale;
  double load = cfg_.base_bps + cfg_.peak_bps * bump(c.hour_of_day, cfg_.peak_hour, cfg_.peak_half_width_hours);
  if (cfg_.midnight_dip_frac > 0) {
    load *= 1.0 - cfg_.midnight_dip_frac * bump(c.hour_of_day, 0.0, cfg_.midnight_dip_half_width_hours);
  }
  return scale * load;
}

double DiurnalProfile::max_bps() const {
  // With any negative parameter the simple peak formula below is no longer
  // an upper bound; report "unknown" rather than a wrong bound.
  if (cfg_.base_bps < 0 || cfg_.peak_bps < 0 || cfg_.weekday_scale < 0 ||
      cfg_.weekend_scale < 0 || cfg_.midnight_dip_frac < 0) {
    return std::numeric_limits<double>::infinity();
  }
  // bump() is in [0, 1] and the midnight dip only reduces load.
  return std::max(cfg_.weekday_scale, cfg_.weekend_scale) * (cfg_.base_bps + cfg_.peak_bps);
}

double PiecewiseProfile::bps(TimePoint t) const {
  for (const auto& piece : pieces_) {
    if (t < piece.until) return piece.profile->bps(t);
  }
  return tail_ ? tail_->bps(t) : 0.0;
}

double PiecewiseProfile::max_bps() const {
  double bound = tail_ ? tail_->max_bps() : 0.0;
  for (const auto& piece : pieces_) bound = std::max(bound, piece.profile->max_bps());
  return bound;
}

JitteredProfile::JitteredProfile(TrafficProfilePtr base, double relative_amplitude, std::uint64_t phase_seed)
    : base_(std::move(base)), amplitude_(relative_amplitude) {
  // Derive three deterministic phases from the seed.
  std::uint64_t x = phase_seed * 0x9e3779b97f4a7c15ULL + 1;
  for (double& ph : phase_) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    ph = 2.0 * kPi * static_cast<double>(x >> 11) * 0x1.0p-53;
  }
}

double JitteredProfile::bps(TimePoint t) const {
  const double base = base_->bps(t);
  const double h = to_hours(t.since_epoch());
  // Periods of ~37 min, ~13 min, and ~3.1 h: incommensurate with each other
  // and with the 24 h diurnal cycle, so the wiggle never phase-locks.
  const double n = std::sin(2 * kPi * h / 0.6180339887 + phase_[0]) * 0.5 +
                   std::sin(2 * kPi * h / 0.2236067977 + phase_[1]) * 0.3 +
                   std::sin(2 * kPi * h / 3.1415926536 + phase_[2]) * 0.2;
  return base * (1.0 + amplitude_ * n);
}

double JitteredProfile::max_bps() const {
  const double base_max = base_->max_bps();
  if (base_max < 0) return std::numeric_limits<double>::infinity();
  // |n| <= 0.5 + 0.3 + 0.2 = 1.
  return base_max * (1.0 + std::fabs(amplitude_));
}

}  // namespace ixp::sim
