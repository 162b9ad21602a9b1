// Fluid drop-tail queue.
//
// Background cross-traffic is modelled as a fluid whose arrival rate is the
// link's TrafficProfile; the queue backlog evolves as
//     dq/dt = lambda(t) - C       (clamped to [0, buffer])
// which is exactly the mechanism TSLP exploits: when the offered load
// exceeds capacity, the backlog -- and therefore the queueing delay seen by
// probe packets -- rises until the buffer is full.  The steady full-buffer
// delay (buffer_bytes * 8 / C) is the level-shift magnitude A_w the paper
// measures, and the loss rate under saturation is (lambda - C) / lambda.
//
// The backlog is advanced lazily: each query integrates the profile from
// the last update time using sub-steps small enough to track the diurnal
// curve.  Every probe hop the walk crosses also books the probe's own
// bytes (enqueue); their contribution is negligible against the fluid.
#pragma once

#include <cstdint>

#include "sim/traffic.h"
#include "util/time.h"

namespace ixp::sim {

class FluidQueue {
 public:
  struct Config {
    double capacity_bps = 100e6;
    double buffer_bytes = 350e3;
    TrafficProfilePtr cross_traffic;  ///< may be null (empty link)
    Duration max_step = kMinute;      ///< integration sub-step bound
    double base_loss = 0.0;           ///< floor loss probability (bit errors,
                                      ///< microbursts the fluid misses)
  };

  explicit FluidQueue(Config cfg) : cfg_(std::move(cfg)) { refresh_headroom(); }

  /// Advances the fluid state to `t` and returns the backlog in bytes.
  double backlog_bytes(TimePoint t);

  /// Queueing delay a packet arriving at `t` experiences (excludes its own
  /// transmission time).
  Duration queuing_delay(TimePoint t);

  /// Transmission time for a packet of `size_bytes` at line rate.
  [[nodiscard]] Duration transmission_delay(std::uint32_t size_bytes) const;

  /// Probability that a packet arriving at `t` is dropped: zero unless the
  /// buffer is (nearly) full, in which case the fluid overflow fraction.
  double drop_probability(TimePoint t);

  /// Adds a packet's bytes to the backlog; the probe walk calls it at every
  /// hop.  Returns false if the buffer cannot absorb it (tail drop).
  bool enqueue(TimePoint t, std::uint32_t size_bytes);

  /// Offered cross-traffic load at `t` in bps (0 when no profile is set).
  [[nodiscard]] double offered_bps(TimePoint t) const;

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Replaces the cross-traffic profile (timeline events).  The backlog is
  /// first advanced to `t` under the old profile.
  void set_cross_traffic(TimePoint t, TrafficProfilePtr profile);

  /// Changes capacity (link upgrade).  Backlog carries over, clamped to the
  /// (possibly new) buffer.
  void set_capacity(TimePoint t, double capacity_bps, double buffer_bytes);

  /// Always-on observability counters (a single add per event, no registry
  /// dependency on this hot path; the analysis layer scrapes them into its
  /// obs::Registry at segment boundaries -- see src/obs/metrics.h).
  struct Stats {
    std::uint64_t headroom_skips = 0;     ///< advance() calls short-circuited
                                          ///< by the never_congests_ drain
                                          ///< proof
    std::uint64_t integration_steps = 0;  ///< fluid sub-steps actually run
    std::uint64_t tail_drops = 0;         ///< enqueue() rejections
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void advance(TimePoint t);
  void refresh_headroom();

  Config cfg_;
  Stats stats_;
  TimePoint last_{};
  double backlog_ = 0.0;  ///< bytes
  /// True when the profile's max_bps() bound proves lambda(t) can never
  /// exceed capacity.  Then a backlog the bound load drains within the
  /// first integration sub-step (an empty one always) reaches exactly 0.0
  /// there and stays there, so advance() can jump the clock without
  /// evaluating the profile -- bit-identical state at a fraction of the
  /// cost.  Recomputed whenever profile or capacity change.
  bool never_congests_ = false;
  /// max_bps() widened by the same 1e-9 relative slack never_congests_
  /// demands: the largest lambda bps() can return, rounding included.
  double load_bound_bps_ = 0.0;
};

}  // namespace ixp::sim
