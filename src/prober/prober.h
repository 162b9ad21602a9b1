// scamper-lite: the active-measurement engine.
//
// A Prober is attached to a vantage-point host inside the simulated
// network and offers the scamper primitives the paper's methodology uses:
//   * ping        -- ICMP echo with caller-controlled TTL and packet size
//   * traceroute  -- TTL sweep with per-hop retries
//   * record-route probes -- for the path-symmetry check (RR method [24,28])
// plus a token-bucket rate limiter pinned at the paper's ethical probing
// rate (small packets, 100 packets/second).
//
// Each probe's route is resolved into a walk plan and executed analytically
// at the current simulated instant (sim::Network::probe), which makes
// year-long campaigns feasible.  Callers that probe the same route over and
// over (the TSLP loop) hold the plan themselves, so the route is resolved
// again only when it changes.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "sim/network.h"

namespace ixp::prober {

struct ProbeOptions {
  std::uint8_t ttl = 64;
  bool record_route = false;
  std::uint32_t size_bytes = 64;   ///< paper: small probe packets
};

struct ProbeOutcome {
  bool answered = false;
  net::Ipv4Address responder;
  sim::NodeId responder_node = sim::kInvalidNode;  ///< node that sent the reply
  net::IcmpType reply_type = net::IcmpType::kEchoReply;
  Duration rtt{};
  std::uint16_t ip_id = 0;  ///< responder's IP-ID stamp (alias resolution)
  std::vector<net::Ipv4Address> record_route;
};

struct TraceHop {
  int ttl = 0;
  net::Ipv4Address addr;  ///< unset when the hop did not answer
  Duration rtt{};
};

class Prober {
 public:
  /// `vp_host` must be a sim::Host.  `pps_limit` throttles probe emission
  /// in simulated time (0 disables).
  Prober(sim::Network& net, sim::NodeId vp_host, double pps_limit = 100.0);

  /// Single probe toward `dst`.
  ProbeOutcome probe(net::Ipv4Address dst, const ProbeOptions& opts = {});

  /// The same probe over a caller-held walk plan: `plan` is resolved again
  /// only when it was resolved for another probe or a node on its route
  /// changed its routes, so repeated probes of one route skip the routing
  /// walk.
  ProbeOutcome probe(net::Ipv4Address dst, const ProbeOptions& opts, sim::WalkPlan& plan);

  /// Classic traceroute: increasing TTL until `dst` answers, max_ttl is
  /// reached, or `stop_after_silent` consecutive hops stay dark (scamper's
  /// gap limit -- keeps sweeps over unresponsive space cheap).
  std::vector<TraceHop> traceroute(net::Ipv4Address dst, int max_ttl = 32, int attempts = 2,
                                   int stop_after_silent = 3);

  /// Hop distance at which `addr` responds (its TTL from the VP), or
  /// nullopt if it never answers within max_ttl.
  std::optional<int> hop_distance(net::Ipv4Address addr, int max_ttl = 32);

  /// Path-symmetry check via the record-route option: probes `dst` with RR
  /// and reports whether the forward stamps are mirrored on the return
  /// (true = route symmetric as far as the RR slots can see).
  std::optional<bool> record_route_symmetric(net::Ipv4Address dst);

  /// Doubletree-style traceroute for large sweeps (Donnet et al.; scamper
  /// implements the same idea for bdrmap's prefix sweeps): hops already in
  /// `stop_set` end the trace early -- the path from there toward the
  /// destination's vicinity was explored by an earlier trace.  Newly seen
  /// responding hops are added to the stop set.  Near-end hops are always
  /// probed (the border inference needs them fresh).
  std::vector<TraceHop> traceroute_doubletree(net::Ipv4Address dst,
                                              std::set<net::Ipv4Address>& stop_set,
                                              int max_ttl = 32, int attempts = 2,
                                              int always_probe_first = 2);

  [[nodiscard]] net::Ipv4Address source_address() const { return src_; }
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::uint64_t replies_received() const { return replies_; }

  sim::Network& network() { return *net_; }
  [[nodiscard]] sim::NodeId host_id() const { return host_; }

 private:
  ProbeOutcome send(net::Ipv4Address dst, const ProbeOptions& opts, sim::WalkPlan* plan);
  void rate_limit();

  sim::Network* net_;
  sim::NodeId host_;
  net::Ipv4Address src_;
  std::uint16_t ident_;
  std::uint16_t next_seq_ = 1;
  double pps_limit_;
  TimePoint next_slot_{};
  std::uint64_t probes_sent_ = 0;
  std::uint64_t replies_ = 0;
};

}  // namespace ixp::prober
