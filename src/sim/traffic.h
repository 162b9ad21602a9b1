// Cross-traffic demand models.
//
// A TrafficProfile maps simulated time to offered load in bits/second on a
// link direction.  Profiles are deterministic functions of time so that a
// campaign replays exactly; short-timescale randomness enters the system
// through router jitter and probe-drop draws instead.
//
// DiurnalProfile reproduces the shapes the paper observes: load that ramps
// through the day, peaks in business or evening hours, differs between
// weekdays and weekends, and optionally dips around midnight (the
// GIXA-KNET signature).  PiecewiseProfile splices profiles at timeline
// boundaries (phase changes such as the 28/04/2016 NETPAGE port upgrade).
#pragma once

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "util/time.h"

namespace ixp::sim {

class TrafficProfile {
 public:
  virtual ~TrafficProfile() = default;
  /// Offered load in bits per second at time t.
  [[nodiscard]] virtual double bps(TimePoint t) const = 0;
  /// Upper bound on bps(t) over all t; +infinity when no bound is known.
  /// Need not be tight.  FluidQueue uses it to prove a link can never
  /// congest, which lets it skip integrating an empty backlog entirely.
  [[nodiscard]] virtual double max_bps() const {
    return std::numeric_limits<double>::infinity();
  }
};

using TrafficProfilePtr = std::shared_ptr<const TrafficProfile>;

/// Constant offered load.
class ConstantProfile final : public TrafficProfile {
 public:
  explicit ConstantProfile(double bps) : bps_(bps) {}
  [[nodiscard]] double bps(TimePoint) const override { return bps_; }
  [[nodiscard]] double max_bps() const override { return bps_; }

 private:
  double bps_;
};

/// Smooth diurnal demand with weekday/weekend scaling.
///
/// The daily shape is a raised-cosine bump centred on `peak_hour` with
/// half-width `peak_half_width_hours`, on top of `base_bps`:
///   load(t) = scale(day) * (base + peak * bump(hour))
/// where scale(day) is weekday_scale or weekend_scale.
class DiurnalProfile final : public TrafficProfile {
 public:
  struct Config {
    double base_bps = 10e6;
    double peak_bps = 90e6;             ///< added on top of base at the peak
    double peak_hour = 14.0;            ///< centre of the busy period
    double peak_half_width_hours = 6.0; ///< bump reaches zero this far out
    double weekday_scale = 1.0;
    double weekend_scale = 1.0;
    double midnight_dip_frac = 0.0;     ///< 0..1 multiplier removed near 0h
    double midnight_dip_half_width_hours = 1.5;
  };

  explicit DiurnalProfile(Config cfg) : cfg_(cfg) {}
  [[nodiscard]] double bps(TimePoint t) const override;
  [[nodiscard]] double max_bps() const override;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  Config cfg_;
};

/// Splices profiles at absolute campaign times.  Segment i applies from
/// boundary i-1 (inclusive) to boundary i (exclusive); the last segment
/// extends to infinity.
class PiecewiseProfile final : public TrafficProfile {
 public:
  struct Piece {
    TimePoint until;  ///< exclusive upper bound for this piece
    TrafficProfilePtr profile;
  };

  /// `pieces` must be sorted by `until`; `tail` covers everything after.
  PiecewiseProfile(std::vector<Piece> pieces, TrafficProfilePtr tail)
      : pieces_(std::move(pieces)), tail_(std::move(tail)) {}

  [[nodiscard]] double bps(TimePoint t) const override;
  [[nodiscard]] double max_bps() const override;

 private:
  std::vector<Piece> pieces_;
  TrafficProfilePtr tail_;
};

/// Deterministic pseudo-noise on top of another profile: a sum of
/// incommensurate sinusoids, so the load wiggles realistically while
/// remaining a pure function of time.
class JitteredProfile final : public TrafficProfile {
 public:
  JitteredProfile(TrafficProfilePtr base, double relative_amplitude, std::uint64_t phase_seed);
  [[nodiscard]] double bps(TimePoint t) const override;
  [[nodiscard]] double max_bps() const override;

 private:
  TrafficProfilePtr base_;
  double amplitude_;
  double phase_[3];
};

}  // namespace ixp::sim
