#include "prober/tslp_driver.h"

#include <cmath>

#include "sim/faults.h"

namespace ixp::prober {
namespace {

/// Re-traceroute a target after this many consecutive losses (routes
/// change over a year-long campaign).
constexpr int kRelearnAfterLosses = 12;
/// Loss probes go out at 1 packet per second (paper rate).
constexpr Duration kLossProbeInterval = kSecond;

struct TargetState {
  MonitorTarget target;
  int far_ttl = 0;          ///< hop distance of the far address; 0 = unknown
  int consecutive_losses = 0;
  /// Consecutive *answered* near probes whose responder belongs to the
  /// wrong router: the path under the monitor changed length, so the
  /// near probe now expires somewhere else.
  int near_mismatches = 0;
  /// Router owning near_ip, which near probes are expected to expire at.
  sim::NodeId near_owner = sim::kInvalidNode;
  /// Routes of the far and near probes, resolved on first use and again
  /// whenever the TTL changes or a node on the route changes its routes.
  sim::WalkPlan far_plan;
  sim::WalkPlan near_plan;
};

}  // namespace

TslpDriver::TslpDriver(Prober& prober, TslpConfig cfg) : prober_(&prober), cfg_(cfg) {}

std::vector<tslp::LinkSeries> TslpDriver::run(const std::vector<MonitorTarget>& targets,
                                              TimePoint start, TimePoint end,
                                              const std::function<void(std::size_t)>& on_round) {
  auto& sim = prober_->network().simulator();
  sim.advance_to(start);

  std::vector<TargetState> state;
  state.reserve(targets.size());
  std::vector<tslp::LinkSeries> out;
  out.reserve(targets.size());
  for (const auto& t : targets) {
    TargetState s;
    s.target = t;
    s.near_owner = prober_->network().find_owner(t.near_ip);
    if (const auto d = prober_->hop_distance(t.far_ip, kTslpMaxTtl)) s.far_ttl = *d;
    state.push_back(std::move(s));

    tslp::LinkSeries ls;
    ls.key = t.key;
    ls.near_ip = t.near_ip;
    ls.far_ip = t.far_ip;
    ls.near_asn = t.near_asn;
    ls.far_asn = t.far_asn;
    ls.at_ixp = t.at_ixp;
    ls.near_rtt.start = start;
    ls.near_rtt.interval = cfg_.round_interval;
    ls.far_rtt.start = start;
    ls.far_rtt.interval = cfg_.round_interval;
    out.push_back(std::move(ls));
  }

  auto relearn = [this](TargetState& s) {
    s.consecutive_losses = 0;
    s.near_mismatches = 0;
    if (const auto d = prober_->hop_distance(s.target.far_ip, kTslpMaxTtl)) {
      s.far_ttl = *d;
    } else {
      s.far_ttl = 0;  // target gone (link removed / member left)
    }
  };

  const std::int64_t rounds = (end - start).count() / cfg_.round_interval.count();
  for (std::int64_t r = 0; r < rounds; ++r) {
    const TimePoint at = start + cfg_.round_interval * r;
    sim.advance_to(at);
    if (cfg_.pre_round) cfg_.pre_round(at);
    sim::FaultInjector* fi = cfg_.faults;

    // VP outage: the monitor itself is dark, so the whole round is skipped.
    // No loss bookkeeping — the network is fine, the monitor is not, and a
    // hop-distance relearn fired from here would "succeed" and reset state
    // that is in fact untouched.
    if (fi != nullptr && fi->vp_down(at)) {
      fi->note_outage_round();
      for (std::size_t i = 0; i < state.size(); ++i) {
        if (state[i].far_ttl >= 2) fi->note_suppressed(2);
        out[i].near_rtt.ms.push_back(tslp::kMissing);
        out[i].far_rtt.ms.push_back(tslp::kMissing);
      }
      if (on_round) on_round(static_cast<std::size_t>(r));
      continue;
    }

    for (std::size_t i = 0; i < state.size(); ++i) {
      TargetState& s = state[i];
      tslp::LinkSeries& ls = out[i];
      double near_ms = tslp::kMissing;
      double far_ms = tslp::kMissing;
      bool far_stale = false;
      bool near_answered = false;
      bool near_mismatch = false;
      if (s.far_ttl >= 2) {
        if (fi != nullptr && fi->lose_probe(at)) {
          fi->note_suppressed(1);
        } else {
          ProbeOptions fo;
          fo.ttl = static_cast<std::uint8_t>(s.far_ttl);
          const ProbeOutcome far = prober_->probe(s.target.far_ip, fo, s.far_plan);
          if (!far.answered) ++probes_lost_;
          if (far.answered) {
            // A response from a different address means the path moved and
            // the configured TTL now expires at some other router: the
            // sample belongs to a different link and must not be recorded.
            if (far.responder == s.target.far_ip) {
              far_ms = to_ms(far.rtt);
            } else {
              far_stale = true;
            }
          }
        }

        if (fi != nullptr && fi->lose_probe(at)) {
          fi->note_suppressed(1);
        } else {
          ProbeOptions no;
          no.ttl = static_cast<std::uint8_t>(s.far_ttl - 1);
          const ProbeOutcome near = prober_->probe(s.target.far_ip, no, s.near_plan);
          if (!near.answered) ++probes_lost_;
          if (near.answered) {
            near_answered = true;
            // The near probe normally expires at the near router but on a
            // *different* interface than near_ip (the host-facing one), so
            // compare routers, not addresses.
            if (s.near_owner != sim::kInvalidNode && near.responder_node == s.near_owner) {
              near_ms = to_ms(near.rtt);
            } else {
              near_mismatch = true;
            }
          }
        }
      }

      if (far_stale) {
        // Stale path detected from the far side: relearn immediately, as
        // the real driver re-triggers bdrmap for the affected link.  The
        // round index is recorded on the series so the classifier can
        // cross-check level-shift onsets against forwarding changes.
        ++stale_relearns_;
        ls.responder_changes.push_back(ls.far_rtt.ms.size());
        relearn(s);
      } else if (std::isnan(far_ms)) {
        if (++s.consecutive_losses >= kRelearnAfterLosses) {
          // Route may have moved; re-learn the hop distance.  Dead targets
          // (far_ttl 0: member gone or link down) re-poll through the same
          // path so they recover when the link returns, but only live
          // targets count as loss-forced re-learns.
          if (s.far_ttl >= 2) ++loss_relearns_;
          relearn(s);
        }
      } else {
        s.consecutive_losses = 0;
      }
      if (near_answered) {
        if (near_mismatch) {
          // The far side can keep answering (echo replies reach the target
          // at any sufficient TTL) while the near probe expires at the
          // wrong router — detect that drift too, with the same patience
          // as the loss path.
          if (++s.near_mismatches >= kRelearnAfterLosses) {
            ++stale_relearns_;
            ls.responder_changes.push_back(ls.far_rtt.ms.size());
            relearn(s);
          }
        } else {
          s.near_mismatches = 0;
        }
      }
      ls.near_rtt.ms.push_back(near_ms);
      ls.far_rtt.ms.push_back(far_ms);

      // Periodic record-route measurement on this link.
      if (cfg_.rr_every_rounds > 0 && r % cfg_.rr_every_rounds == 0 && s.far_ttl >= 2) {
        const auto sym = prober_->record_route_symmetric(s.target.far_ip);
        if (sym.has_value()) {
          ++record_routes_;
          if (*sym) ++rr_symmetric_;
        }
      }
    }
    if (on_round) on_round(static_cast<std::size_t>(r));
  }
  return out;
}

tslp::LossSeries measure_loss(Prober& prober, net::Ipv4Address target, TimePoint start,
                              TimePoint end, const LossConfig& cfg) {
  auto& sim = prober.network().simulator();
  tslp::LossSeries out;
  out.target = target;
  TimePoint t = start;
  while (t < end) {
    tslp::LossBatch batch;
    batch.at = t;
    for (int i = 0; i < cfg.batch_size; ++i) {
      const TimePoint pt = t + kLossProbeInterval * i;
      if (pt >= end) break;
      sim.advance_to(pt);
      ++batch.sent;
      const ProbeOutcome r = prober.probe(target);
      if (!r.answered) ++batch.lost;
    }
    if (batch.sent > 0) out.batches.push_back(batch);
    t += kLossProbeInterval * cfg.batch_size + cfg.batch_gap;
  }
  return out;
}

}  // namespace ixp::prober
