// TSLP measurement driver.
//
// Implements the paper's measurement loop (§4): every 5 minutes, send
// TTL-limited probes that expire at the near and the far end of every
// monitored interdomain link, for the whole campaign.  Hop distances are
// learned once by traceroute (and re-learned if a target stops answering,
// since routes move during a year).  Output is one LinkSeries per link.
//
// Loss-rate measurement (run on links flagged as repeatedly congested)
// probes both ends at one packet/second and aggregates every batch of 100
// probes into a loss fraction, as in §4.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "prober/prober.h"
#include "tslp/series.h"

namespace ixp::sim {
class FaultInjector;
}  // namespace ixp::sim

namespace ixp::prober {

/// A link to be monitored, as produced by border mapping.
struct MonitorTarget {
  std::string key;
  net::Ipv4Address near_ip;
  net::Ipv4Address far_ip;
  std::uint32_t near_asn = 0;
  std::uint32_t far_asn = 0;
  bool at_ixp = false;
};

/// Hop limit of the traceroutes that learn each target's far distance.
inline constexpr int kTslpMaxTtl = 32;

struct TslpConfig {
  Duration round_interval = kMinute * 5;  ///< paper cadence
  /// Invoked at the start of every round with the round's time; campaign
  /// drivers hook world-timeline application here.
  std::function<void(TimePoint)> pre_round;
  /// Every N rounds, send one record-route probe per target (the paper's
  /// path-symmetry campaign; Table 2 reports the totals).  0 disables.
  int rr_every_rounds = 0;
  /// Optional fault injector (not owned).  Gates whole rounds during VP
  /// outages and individual probes during loss bursts; see sim/faults.h.
  sim::FaultInjector* faults = nullptr;
};

class TslpDriver {
 public:
  TslpDriver(Prober& prober, TslpConfig cfg = {});

  /// Runs rounds from `start` to `end` (exclusive); returns one series per
  /// target.  `on_round`, if set, is called after each round with the round
  /// index (for progress reporting in long campaigns).
  std::vector<tslp::LinkSeries> run(const std::vector<MonitorTarget>& targets, TimePoint start,
                                    TimePoint end,
                                    const std::function<void(std::size_t)>& on_round = {});

  /// Successful record-route measurements accumulated across run() calls.
  [[nodiscard]] std::uint64_t record_routes() const { return record_routes_; }
  /// Of those, measurements whose stamps mirrored (symmetric paths).
  [[nodiscard]] std::uint64_t record_routes_symmetric() const { return rr_symmetric_; }
  /// Hop-distance re-learns triggered by consecutive losses.
  [[nodiscard]] std::uint64_t loss_relearns() const { return loss_relearns_; }
  /// Re-learns triggered by a responder-address change (stale path): the
  /// probe was answered, but by the wrong router — the route moved under
  /// the monitor, so the configured TTL no longer lands on this link.
  [[nodiscard]] std::uint64_t stale_relearns() const { return stale_relearns_; }
  /// Round probes (near or far) that were sent but never answered.  Fault
  /// suppressions are not counted: those probes were never on the wire.
  [[nodiscard]] std::uint64_t probes_lost() const { return probes_lost_; }

 private:
  Prober* prober_;
  TslpConfig cfg_;
  std::uint64_t record_routes_ = 0;
  std::uint64_t rr_symmetric_ = 0;
  std::uint64_t loss_relearns_ = 0;
  std::uint64_t stale_relearns_ = 0;
  std::uint64_t probes_lost_ = 0;
};

struct LossConfig {
  int batch_size = 100;  ///< loss computed per 100 probes
  /// Gap between consecutive batches.  The paper probes continuously
  /// (gap = 0); campaigns that only need the loss *timeseries shape* can
  /// subsample with a positive gap.
  Duration batch_gap = Duration(0);
};

/// Measures loss toward one target from `start` to `end`.
tslp::LossSeries measure_loss(Prober& prober, net::Ipv4Address target, TimePoint start,
                              TimePoint end, const LossConfig& cfg = {});

}  // namespace ixp::prober
