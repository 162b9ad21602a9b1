// Duplex links: a pair of independently-queued simplex directions.
//
// Each direction owns a FluidQueue (capacity, buffer, cross-traffic) plus a
// propagation delay.  Links can be taken down/up and re-provisioned at
// runtime; the topology timeline uses this for the events the paper
// documents (transit shut-off, port upgrade, member disconnection).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "sim/queue.h"
#include "util/time.h"

namespace ixp::sim {

using NodeId = int;
inline constexpr NodeId kInvalidNode = -1;

struct LinkConfig {
  double capacity_bps = 1e9;
  double buffer_bytes = 1e6;
  Duration prop_delay = milliseconds(0.2);
  TrafficProfilePtr cross_ab;  ///< cross traffic A -> B (may be null)
  TrafficProfilePtr cross_ba;  ///< cross traffic B -> A (may be null)
  double base_loss = 0.0;      ///< floor loss probability per direction
};

class DuplexLink {
 public:
  DuplexLink(NodeId a, NodeId b, const LinkConfig& cfg)
      : a_(a),
        b_(b),
        prop_delay_(cfg.prop_delay),
        ab_(FluidQueue::Config{cfg.capacity_bps, cfg.buffer_bytes, cfg.cross_ab, kMinute,
                               cfg.base_loss}),
        ba_(FluidQueue::Config{cfg.capacity_bps, cfg.buffer_bytes, cfg.cross_ba, kMinute,
                               cfg.base_loss}) {}

  [[nodiscard]] NodeId node_a() const { return a_; }
  [[nodiscard]] NodeId node_b() const { return b_; }
  [[nodiscard]] NodeId other(NodeId n) const { return n == a_ ? b_ : a_; }
  [[nodiscard]] Duration prop_delay() const { return prop_delay_; }

  /// Extra one-way delay for the direction leaving `from` (route changes
  /// inside the neighbor network that affect only one direction; keeps the
  /// reverse path clean).  Takes effect immediately: timeline reroutes
  /// apply it between probing rounds.
  void set_extra_delay_from(NodeId from, Duration d) { (from == a_ ? extra_ab_ : extra_ba_) = d; }

  [[nodiscard]] Duration extra_delay_from(NodeId from) const {
    return from == a_ ? extra_ab_ : extra_ba_;
  }

  /// Queue for the direction leaving node `from`.
  FluidQueue& queue_from(NodeId from) { return from == a_ ? ab_ : ba_; }
  [[nodiscard]] const FluidQueue& queue_from(NodeId from) const {
    return from == a_ ? ab_ : ba_;
  }
  [[nodiscard]] const FluidQueue& queue_ab() const { return ab_; }
  [[nodiscard]] const FluidQueue& queue_ba() const { return ba_; }

  [[nodiscard]] bool is_up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Interface index this link occupies on each endpoint (set by Network).
  void set_ifindex(NodeId n, int ifindex) { (n == a_ ? ifindex_a_ : ifindex_b_) = ifindex; }
  [[nodiscard]] int ifindex_at(NodeId n) const { return n == a_ ? ifindex_a_ : ifindex_b_; }

  /// Re-provisions both directions (e.g., 10 Mbps -> 1 Gbps upgrade).
  void upgrade(TimePoint t, double capacity_bps, double buffer_bytes) {
    ab_.set_capacity(t, capacity_bps, buffer_bytes);
    ba_.set_capacity(t, capacity_bps, buffer_bytes);
  }

  void set_cross_traffic(TimePoint t, TrafficProfilePtr ab, TrafficProfilePtr ba) {
    ab_.set_cross_traffic(t, std::move(ab));
    ba_.set_cross_traffic(t, std::move(ba));
  }

 private:
  NodeId a_;
  NodeId b_;
  Duration prop_delay_;
  FluidQueue ab_;
  FluidQueue ba_;
  bool up_ = true;
  Duration extra_ab_{};
  Duration extra_ba_{};
  int ifindex_a_ = -1;
  int ifindex_b_ = -1;
};

}  // namespace ixp::sim
