// The simulated network: nodes, links, and probe transport.
//
// A probe is split into route resolution and timing execution.
// resolve_plan() walks the topology once (FIBs, L2 tables, interface
// ownership, TTL) and records the route as a WalkPlan: the forward
// crossings, how the forward leg ends, and the reverse crossings.
// probe(plan, pkt) then executes those crossings through cross_link() at
// the clock's current instant, reading everything that varies over time
// live: link up/down, queue state and delay steps, forward_delay,
// icmp_disabled, rr_filtered, the ICMP rate limit, IP-ID and ICMP
// generation delay.  Year-long TSLP campaigns keep one plan per probed
// route and resolve it again only when it goes stale; one-off probes
// (traceroute, bdrmap, record-route) resolve into one reused scratch plan.
//
// This walk is the only transport.  A packet-level event engine that drives
// the same nodes and cross_link() from outside lives in tests/oracle/; the
// test suite holds it to the walk bit for bit.
//
// Invalidation: every node carries a route_version() that Router::add_route
// and clear_fib, L2Switch::learn and forget, and Node::add_interface bump.
// A plan records the version of each node whose routing state decided it
// and stays valid while every one still matches (plan_current(): one
// compare per node).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/clock.h"
#include "sim/node.h"
#include "util/rng.h"

namespace ixp::sim {

/// Maximum hops a walk will take before declaring a loop.  Well above any
/// real path length (probes start with ttl <= 64; replies also start at
/// 64), so reverse-path TTL expiry is observable before the walk budget
/// runs out.
inline constexpr int kWalkBudget = 255;

/// Time a host takes to answer an echo request addressed to it.
inline constexpr Duration kHostReplyDelay = std::chrono::microseconds(50);

/// Size of every ICMP reply (IP + ICMP + quoted header), echo replies
/// included: a reply books these bytes into each queue it crosses.
inline constexpr std::uint32_t kIcmpReplyBytes = 56;

/// Result of a probe.
struct ProbeResult {
  bool answered = false;
  net::Ipv4Address responder;      ///< source of the reply
  NodeId responder_node = kInvalidNode;  ///< node that sent the reply
  net::IcmpType reply_type = net::IcmpType::kTimeExceeded;
  Duration rtt{};
  std::uint16_t ip_id = 0;         ///< IP-ID the responder stamped
  std::vector<net::Ipv4Address> record_route;  ///< stamps accumulated
  bool forward_dropped = false;
  bool reverse_dropped = false;
};

/// How the forward leg of a resolved walk ends.
enum class WalkEnd : std::uint8_t {
  kDropped,       ///< unroutable, unknown L2 port, or walk budget spent
  kEchoRouter,    ///< a router owns dst: echo reply, subject to ICMP gating
  kEchoHost,      ///< a host owns dst: echo reply after the host's delay
  kTimeExceeded,  ///< TTL expires at a router
};

/// One link crossing of a resolved walk.
struct PlanCrossing {
  DuplexLink* link = nullptr;
  NodeId from = kInvalidNode;         ///< sending node: picks the queue direction
  const Router* delay_at = nullptr;   ///< router whose forward_delay precedes the crossing
  const Router* rr_gate = nullptr;    ///< router that drops the packet first if rr_filtered
};

/// A probe's route, resolved once by Network::resolve_plan() and executed
/// any number of times by Network::probe(plan, pkt).  Holds raw pointers
/// into the network that resolved it, so it must not outlive that network.
struct WalkPlan {
  // The probe the plan was resolved for.
  NodeId from = kInvalidNode;
  net::Ipv4Address src;
  net::Ipv4Address dst;
  std::uint8_t ttl = 0;
  bool record_route = false;

  std::vector<PlanCrossing> forward;
  const Router* end_rr_gate = nullptr;  ///< checked on arrival at the responder
  WalkEnd end = WalkEnd::kDropped;
  Router* responder = nullptr;          ///< set for kEchoRouter and kTimeExceeded
  NodeId responder_node = kInvalidNode;
  net::Ipv4Address reply_src;
  std::vector<PlanCrossing> reverse;
  bool reverse_arrives = false;         ///< the reply reaches `src` after `reverse`
  /// Stamps an answered record-route probe returns (forward then reverse,
  /// capped at the option's nine slots).
  std::vector<net::Ipv4Address> stamps;
  /// Every node whose routing state decided the route (each sender, and
  /// where each leg stopped), with its route_version() then.  Empty for a
  /// one-off probe's plan, which is never reused.
  std::vector<std::pair<const Node*, std::uint64_t>> consulted;
};

class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- Construction -------------------------------------------------------

  NodeId add_node(std::unique_ptr<Node> node);
  Router& add_router(const std::string& name, RouterConfig cfg);
  Host& add_host(const std::string& name);
  L2Switch& add_switch(const std::string& name);

  /// Connects two nodes; both sides get an interface with the given
  /// addresses (0 for L2 ports).  Returns the link id.
  int connect(NodeId a, net::Ipv4Address addr_a, NodeId b, net::Ipv4Address addr_b,
              const LinkConfig& cfg, const net::Ipv4Prefix& subnet);

  [[nodiscard]] Node& node(NodeId id) { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] DuplexLink& link(int id) { return *links_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const DuplexLink& link(int id) const { return *links_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Node owning `addr`, or kInvalidNode.
  [[nodiscard]] NodeId find_owner(net::Ipv4Address addr) const;

  Simulator& simulator() { return sim_; }
  Rng& rng() { return rng_; }
  void seed(std::uint64_t s) { rng_ = Rng(s); }

  // ---- Probe transport -----------------------------------------------------

  /// Resolves the route `pkt` takes from node `from` into `plan` (reusing
  /// its buffers): forward crossings until delivery, TTL expiry or a drop,
  /// then the reply's crossings back to pkt.src.  Reads routing state only;
  /// no time passes and no RNG is drawn.
  void resolve_plan(NodeId from, const net::Packet& pkt, WalkPlan& plan);

  /// True when `plan` was resolved for this probe and no node it consulted
  /// has changed its routes since.
  [[nodiscard]] bool plan_current(const WalkPlan& plan, NodeId from,
                                  const net::Packet& pkt) const;

  /// Executes a plan current for `pkt` at the simulator's current instant:
  /// each crossing through cross_link(), ICMP generation at the responder,
  /// the reply's crossings back.  Drops are decided with this network's RNG
  /// against each queue's drop probability.
  ProbeResult probe(const WalkPlan& plan, const net::Packet& pkt);

  /// One-off probe: resolves into a reused scratch plan and executes it.
  ProbeResult probe(NodeId from, const net::Packet& pkt);

  /// One link traversal, starting at `t`: decides drops, advances `t` past
  /// the queue and the link, and books `size_bytes` into the backlog.
  /// Returns false when the packet is dropped (the drop is already counted
  /// in packets_dropped).
  bool cross_link(DuplexLink& l, NodeId from, std::uint32_t size_bytes, TimePoint& t);

  // ---- Statistics -----------------------------------------------------------

  std::uint64_t packets_dropped = 0;
  std::uint64_t icmp_generated = 0;
  std::uint64_t hops_walked = 0;  ///< link crossings
  std::uint64_t plans_resolved = 0;  ///< plans resolved, one-off probes included

  /// Sum of FluidQueue::Stats over every queue (both directions of every
  /// link).  Scraped into the observability registry at campaign end.
  [[nodiscard]] FluidQueue::Stats queue_stats() const;

 private:
  /// Where a packet goes from `at` toward `dst` given FIBs; nullopt if
  /// unroutable.
  struct HopDecision {
    int ifindex = -1;
    net::Ipv4Address next_hop;
  };
  std::optional<HopDecision> route_at(NodeId at, net::Ipv4Address dst) const;

  /// Where one resolved leg stopped.
  enum class LegStop : std::uint8_t { kDropped, kArrived, kTtlExpired };
  struct LegEnd {
    LegStop stop = LegStop::kDropped;
    NodeId node = kInvalidNode;        ///< where the leg stopped (unset: walk budget spent)
    net::Ipv4Address in_addr;          ///< receiving interface at `node`
    const Router* rr_gate = nullptr;   ///< RR-filter check due at `node`
  };

  /// The one routing walk, serving both legs: from `start` toward `dst`,
  /// appending crossings to `out` and stamps to `plan.stamps`, until the
  /// packet arrives at an owner of `dst`, expires at a router, or is
  /// dropped.  A reply (`reply`) is checked for arrival at `start` too and
  /// charges no forwarding latency there.
  LegEnd resolve_leg(WalkPlan& plan, std::vector<PlanCrossing>& out, NodeId start,
                     net::Ipv4Address dst, std::uint8_t ttl, bool reply);

  /// resolve_plan() without recording route versions (the one-off probe's
  /// plan is never reused).  Returns the nodes where the forward and the
  /// reverse leg stopped.
  std::pair<NodeId, NodeId> resolve(NodeId from, const net::Packet& pkt, WalkPlan& plan);

  WalkPlan scratch_plan_;  ///< reused by the one-off probe()
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<DuplexLink>> links_;
  std::unordered_map<net::Ipv4Address, NodeId> addr_owner_;
  Simulator sim_;
  Rng rng_{0xabcdef12345ULL};
};

}  // namespace ixp::sim
