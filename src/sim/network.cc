#include "sim/network.h"

#include <cassert>


namespace ixp::sim {

NodeId Network::add_node(std::unique_ptr<Node> node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node->set_id(id);
  nodes_.push_back(std::move(node));
  return id;
}

Router& Network::add_router(const std::string& name, RouterConfig cfg) {
  auto router = std::make_unique<Router>(name, std::move(cfg), rng_.fork());
  Router& ref = *router;
  add_node(std::move(router));
  return ref;
}

Host& Network::add_host(const std::string& name) {
  auto host = std::make_unique<Host>(name);
  Host& ref = *host;
  add_node(std::move(host));
  return ref;
}

L2Switch& Network::add_switch(const std::string& name) {
  auto sw = std::make_unique<L2Switch>(name);
  L2Switch& ref = *sw;
  add_node(std::move(sw));
  return ref;
}

int Network::connect(NodeId a, net::Ipv4Address addr_a, NodeId b, net::Ipv4Address addr_b,
                     const LinkConfig& cfg, const net::Ipv4Prefix& subnet) {
  const int link_id = static_cast<int>(links_.size());
  links_.push_back(std::make_unique<DuplexLink>(a, b, cfg));
  DuplexLink& l = *links_.back();
  const int if_a = node(a).add_interface(Interface{addr_a, link_id, subnet});
  const int if_b = node(b).add_interface(Interface{addr_b, link_id, subnet});
  l.set_ifindex(a, if_a);
  l.set_ifindex(b, if_b);
  if (!addr_a.is_unspecified()) addr_owner_[addr_a] = a;
  if (!addr_b.is_unspecified()) addr_owner_[addr_b] = b;
  // If either endpoint is a switch fabric, teach it the far address and the
  // node behind it: the learned table is the single O(1) port resolution
  // the walk crosses a fabric with.
  if (node(a).is_switch() && !addr_b.is_unspecified()) {
    static_cast<L2Switch&>(node(a)).learn(addr_b, if_a, b);
  }
  if (node(b).is_switch() && !addr_a.is_unspecified()) {
    static_cast<L2Switch&>(node(b)).learn(addr_a, if_b, a);
  }
  return link_id;
}

NodeId Network::find_owner(net::Ipv4Address addr) const {
  const auto it = addr_owner_.find(addr);
  return it == addr_owner_.end() ? kInvalidNode : it->second;
}

std::optional<Network::HopDecision> Network::route_at(NodeId at, net::Ipv4Address dst) const {
  const Node& n = node(at);
  switch (n.kind()) {
    case NodeKind::kRouter: {
      const auto* e = static_cast<const Router&>(n).route_lookup(dst);
      if (!e) return std::nullopt;
      return HopDecision{e->ifindex, e->next_hop.is_unspecified() ? dst : e->next_hop};
    }
    case NodeKind::kHost:
      // Hosts send everything out of interface 0, toward the destination
      // itself: their one link is point to point.
      if (n.interfaces().empty()) return std::nullopt;
      return HopDecision{0, dst};
    case NodeKind::kSwitch:
      break;  // switches forward at L2, not by FIB
  }
  return std::nullopt;
}

bool Network::cross_link(DuplexLink& l, NodeId from, std::uint32_t size_bytes, TimePoint& t) {
  if (!l.is_up()) {
    ++packets_dropped;
    return false;
  }
  FluidQueue& q = l.queue_from(from);
  const double p_drop = q.drop_probability(t);
  if (p_drop > 0 && rng_.chance(p_drop)) {
    ++packets_dropped;
    return false;
  }
  const Duration delay = q.queuing_delay(t) + q.transmission_delay(size_bytes) +
                         l.prop_delay() + l.extra_delay_from(from);
  if (!q.enqueue(t, size_bytes) && q.offered_bps(t) <= q.config().capacity_bps) {
    // Buffer full but not overflowing: a genuine tail drop.  (Under fluid
    // overflow the backlog is pinned at the buffer so every enqueue fails;
    // admission there is already decided by the drop_probability draw above
    // -- the probe merely displaces fluid that was dropped anyway.)
    ++packets_dropped;
    return false;
  }
  t += delay;
  ++hops_walked;
  return true;
}

Network::LegEnd Network::resolve_leg(WalkPlan& plan, std::vector<PlanCrossing>& out,
                                     NodeId start, net::Ipv4Address dst, std::uint8_t ttl,
                                     bool reply) {
  NodeId cur = start;
  net::Ipv4Address in_addr;
  net::Ipv4Address l2_next_hop;  // the last router's IP next hop: a fabric's port key
  for (int budget = 0; budget < kWalkBudget; ++budget) {
    const Node& n = node(cur);
    const bool at_start = cur == start;
    const Router* router = n.is_router() ? static_cast<const Router*>(&n) : nullptr;
    // A probe (not its reply) carrying the RR option dies at any
    // RR-filtering router it reaches; the flag itself is read at execution.
    const Router* rr_gate = !reply && !at_start && plan.record_route ? router : nullptr;
    // A probe is checked for delivery where it arrives, a reply also where
    // it is generated (the responder may own the probe's source).  L2
    // fabrics carry probes without looking at the IP header.
    if ((reply || (!at_start && !n.is_switch())) && n.owns_address(dst)) {
      return {LegStop::kArrived, cur, in_addr, rr_gate};
    }
    int out_if = -1;
    if (n.is_switch()) {
      // L2 transit: the port was resolved into the learned table at
      // connect() time; the frame keeps its next-hop key and its TTL.
      const L2Port* port = static_cast<const L2Switch&>(n).lookup(
          l2_next_hop.is_unspecified() ? dst : l2_next_hop);
      if (port == nullptr) return {LegStop::kDropped, cur, {}, nullptr};
      out_if = port->ifindex;
    } else {
      if (router != nullptr && !at_start) {
        if (ttl <= 1) return {LegStop::kTtlExpired, cur, in_addr, rr_gate};
        ttl -= 1;
      }
      const auto hop = route_at(cur, dst);
      if (!hop || hop->ifindex < 0 || hop->ifindex >= static_cast<int>(n.interfaces().size())) {
        return {LegStop::kDropped, cur, {}, nullptr};
      }
      out_if = hop->ifindex;
      if (router != nullptr && plan.record_route &&
          plan.stamps.size() < static_cast<std::size_t>(net::kMaxRecordRouteSlots)) {
        plan.stamps.push_back(n.interfaces()[static_cast<std::size_t>(out_if)].addr);
      }
      l2_next_hop = hop->next_hop;
    }
    DuplexLink& l = link(n.interfaces()[static_cast<std::size_t>(out_if)].link_id);
    // Every router a probe leaves charges its forwarding latency; the reply
    // is generated, not forwarded, where it starts.
    out.push_back({&l, cur, reply && at_start ? nullptr : router, rr_gate});
    cur = l.other(cur);
    // The receiving interface's address, however the hop was reached: a TTL
    // expiry at a router across the L2 fabric reports the peer's fabric
    // address, not 0.0.0.0.
    in_addr = node(cur).interfaces()[static_cast<std::size_t>(l.ifindex_at(cur))].addr;
  }
  return {};
}

std::pair<NodeId, NodeId> Network::resolve(NodeId from, const net::Packet& pkt, WalkPlan& plan) {
  ++plans_resolved;
  plan.from = from;
  plan.src = pkt.src;
  plan.dst = pkt.dst;
  plan.ttl = pkt.ttl;
  plan.record_route = pkt.record_route;
  plan.forward.clear();
  plan.reverse.clear();
  plan.consulted.clear();
  plan.stamps = pkt.route_stamps;
  plan.end_rr_gate = nullptr;
  plan.end = WalkEnd::kDropped;
  plan.responder = nullptr;
  plan.responder_node = kInvalidNode;
  plan.reply_src = {};
  plan.reverse_arrives = false;

  const LegEnd fwd = resolve_leg(plan, plan.forward, from, pkt.dst, pkt.ttl, /*reply=*/false);
  if (fwd.stop == LegStop::kDropped) return {fwd.node, kInvalidNode};
  Node& n = node(fwd.node);
  if (fwd.stop == LegStop::kArrived) {
    plan.end = n.is_router() ? WalkEnd::kEchoRouter : WalkEnd::kEchoHost;
    plan.reply_src = pkt.dst;
  } else {
    plan.end = WalkEnd::kTimeExceeded;
    plan.reply_src = fwd.in_addr;
  }
  plan.end_rr_gate = fwd.rr_gate;
  if (n.is_router()) plan.responder = static_cast<Router*>(&n);
  plan.responder_node = fwd.node;
  const LegEnd rev = resolve_leg(plan, plan.reverse, fwd.node, pkt.src, /*ttl=*/64,
                                 /*reply=*/true);
  plan.reverse_arrives = rev.stop == LegStop::kArrived;
  return {fwd.node, rev.node};
}

void Network::resolve_plan(NodeId from, const net::Packet& pkt, WalkPlan& plan) {
  const auto [fwd_stop, rev_stop] = resolve(from, pkt, plan);
  // The nodes whose routing state decided the route: every sender, and
  // where each leg stopped.
  auto consult = [this, &plan](NodeId id) {
    if (id == kInvalidNode) return;
    const Node* n = &node(id);
    for (const auto& [seen, version] : plan.consulted) {
      if (seen == n) return;
    }
    plan.consulted.emplace_back(n, n->route_version());
  };
  for (const auto* leg : {&plan.forward, &plan.reverse}) {
    for (const PlanCrossing& c : *leg) consult(c.from);
  }
  consult(fwd_stop);
  consult(rev_stop);
}

bool Network::plan_current(const WalkPlan& plan, NodeId from, const net::Packet& pkt) const {
  if (plan.from != from || plan.dst != pkt.dst || plan.src != pkt.src || plan.ttl != pkt.ttl ||
      plan.record_route != pkt.record_route || !pkt.route_stamps.empty() ||
      plan.consulted.empty()) {
    return false;
  }
  for (const auto& [n, version] : plan.consulted) {
    if (n->route_version() != version) return false;
  }
  return true;
}

ProbeResult Network::probe(const WalkPlan& plan, const net::Packet& pkt) {
  ProbeResult res;
  TimePoint t = sim_.now();
  for (const PlanCrossing& c : plan.forward) {
    if (c.rr_gate != nullptr && c.rr_gate->config().rr_filtered) {
      res.forward_dropped = true;  // RR-filtering router discards the optioned packet
      return res;
    }
    if (c.delay_at != nullptr) t += c.delay_at->config().forward_delay;
    if (!cross_link(*c.link, c.from, pkt.size_bytes, t)) {
      res.forward_dropped = true;
      return res;
    }
  }
  if (plan.end_rr_gate != nullptr && plan.end_rr_gate->config().rr_filtered) {
    res.forward_dropped = true;
    return res;
  }

  // ICMP generation at the responder.
  std::uint16_t ip_id = 0;
  switch (plan.end) {
    case WalkEnd::kDropped:
      res.forward_dropped = true;
      return res;
    case WalkEnd::kEchoHost:
      t += kHostReplyDelay;
      break;
    case WalkEnd::kEchoRouter:
    case WalkEnd::kTimeExceeded: {
      Router& r = *plan.responder;
      if (r.config().icmp_disabled || !r.icmp_rate_admit(t)) {
        res.forward_dropped = true;  // silent router or rate-limited
        return res;
      }
      ip_id = r.next_ip_id();
      t += r.icmp_generation_delay(t);
      break;
    }
  }
  ++icmp_generated;

  // The reply's crossings back to the probing host.
  for (const PlanCrossing& c : plan.reverse) {
    if (c.delay_at != nullptr) t += c.delay_at->config().forward_delay;
    if (!cross_link(*c.link, c.from, kIcmpReplyBytes, t)) {
      res.reverse_dropped = true;
      return res;
    }
  }
  if (!plan.reverse_arrives) {
    res.reverse_dropped = true;
    return res;
  }
  res.answered = true;
  res.responder = plan.reply_src;
  res.responder_node = plan.responder_node;
  res.reply_type =
      plan.end == WalkEnd::kTimeExceeded ? net::IcmpType::kTimeExceeded : net::IcmpType::kEchoReply;
  res.rtt = t - sim_.now();
  res.ip_id = ip_id;
  res.record_route = plan.stamps;
  return res;
}

ProbeResult Network::probe(NodeId from, const net::Packet& pkt) {
  resolve(from, pkt, scratch_plan_);  // never reused, so no versions recorded
  return probe(scratch_plan_, pkt);
}

FluidQueue::Stats Network::queue_stats() const {
  FluidQueue::Stats total;
  for (const auto& l : links_) {
    for (const FluidQueue* q : {&l->queue_ab(), &l->queue_ba()}) {
      total.headroom_skips += q->stats().headroom_skips;
      total.integration_steps += q->stats().integration_steps;
      total.tail_drops += q->stats().tail_drops;
    }
  }
  return total;
}

}  // namespace ixp::sim
