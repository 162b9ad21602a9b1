#include "prober/prober.h"

#include <algorithm>

#include "util/check.h"

namespace ixp::prober {

Prober::Prober(sim::Network& net, sim::NodeId vp_host, double pps_limit)
    : net_(&net), host_(vp_host), pps_limit_(pps_limit) {
  IXP_CHECK(net.node(vp_host).is_host(), "prober VP must be a Host node");
  const auto& host = static_cast<const sim::Host&>(net.node(vp_host));
  src_ = host.address();
  // Derive a stable ICMP ident from the host id (multiple probers on the
  // same network keep distinct ident spaces).
  ident_ = static_cast<std::uint16_t>(0x8000u | (static_cast<unsigned>(vp_host) & 0x7fff));
}

void Prober::rate_limit() {
  if (pps_limit_ <= 0) return;
  const TimePoint now = net_->simulator().now();
  if (next_slot_ < now) next_slot_ = now;
  // Advance the simulated clock to the probe's emission slot.  Nothing runs
  // in between, so this is just bookkeeping that keeps the emission rate
  // honest.
  net_->simulator().advance_to(next_slot_);
  next_slot_ += seconds(1.0 / pps_limit_);
}

ProbeOutcome Prober::probe(net::Ipv4Address dst, const ProbeOptions& opts) {
  return send(dst, opts, nullptr);
}

ProbeOutcome Prober::probe(net::Ipv4Address dst, const ProbeOptions& opts, sim::WalkPlan& plan) {
  return send(dst, opts, &plan);
}

ProbeOutcome Prober::send(net::Ipv4Address dst, const ProbeOptions& opts, sim::WalkPlan* plan) {
  rate_limit();
  net::Packet pkt;
  pkt.src = src_;
  pkt.dst = dst;
  pkt.ttl = opts.ttl;
  pkt.record_route = opts.record_route;
  pkt.size_bytes = std::max<std::uint32_t>(opts.size_bytes, 28);
  pkt.ident = ident_;
  pkt.seq = next_seq_++;
  pkt.sent_at = net_->simulator().now();
  ++probes_sent_;
  if (plan != nullptr && !net_->plan_current(*plan, host_, pkt)) {
    net_->resolve_plan(host_, pkt, *plan);
  }
  sim::ProbeResult r = plan != nullptr ? net_->probe(*plan, pkt) : net_->probe(host_, pkt);
  ProbeOutcome out;
  out.answered = r.answered;
  out.responder = r.responder;
  out.responder_node = r.responder_node;
  out.reply_type = r.reply_type;
  out.rtt = r.rtt;
  out.ip_id = r.ip_id;
  out.record_route = std::move(r.record_route);
  if (out.answered) ++replies_;
  return out;
}

std::vector<TraceHop> Prober::traceroute(net::Ipv4Address dst, int max_ttl, int attempts,
                                         int stop_after_silent) {
  std::vector<TraceHop> hops;
  int silent = 0;
  for (int ttl = 1; ttl <= max_ttl; ++ttl) {
    ProbeOptions o;
    o.ttl = static_cast<std::uint8_t>(ttl);
    TraceHop hop;
    hop.ttl = ttl;
    for (int a = 0; a < attempts; ++a) {
      const ProbeOutcome r = probe(dst, o);
      if (r.answered) {
        hop.addr = r.responder;
        hop.rtt = r.rtt;
        break;
      }
    }
    hops.push_back(hop);
    if (hop.addr == dst) break;
    if (hop.addr.is_unspecified()) {
      if (++silent >= stop_after_silent) break;
    } else {
      silent = 0;
    }
  }
  return hops;
}

std::optional<int> Prober::hop_distance(net::Ipv4Address addr, int max_ttl) {
  const auto hops = traceroute(addr, max_ttl, 2);
  for (const auto& h : hops) {
    if (h.addr == addr) return h.ttl;
  }
  return std::nullopt;
}

std::optional<bool> Prober::record_route_symmetric(net::Ipv4Address dst) {
  ProbeOptions o;
  o.record_route = true;
  const ProbeOutcome r = probe(dst, o);
  if (!r.answered) return std::nullopt;
  // Forward stamps are the egress interfaces of routers from the VP toward
  // dst.  On a symmetric route the reply re-traverses the same routers, so
  // every stamped address must sit on a router that is also on the forward
  // path.  With our 9-slot RR and short IXP paths, a sufficient practical
  // check (and the one scamper's RR analysis effectively performs on these
  // topologies) is: the stamps up to the responder must include the egress
  // toward dst, and the stamp list must not contain duplicates out of
  // order.  We compare the forward half against the mirrored return half
  // when both fit in the option.
  const auto& s = r.record_route;
  if (s.empty()) return std::nullopt;
  // Locate the responder (or dst) in the stamp list: stamps before it are
  // the forward path, after it the return path.
  std::size_t pivot = s.size();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == dst || s[i] == r.responder) {
      pivot = i;
      break;
    }
  }
  if (pivot == s.size()) {
    // Responder did not stamp (option full before arrival): undecidable.
    return std::nullopt;
  }
  const std::size_t fwd_len = pivot;
  const std::size_t ret_len = s.size() - pivot - 1;
  const std::size_t n = std::min(fwd_len, ret_len);
  // Mirror test: i-th return router should be the (fwd_len-1-i)-th forward
  // router.  Interface addresses differ per direction, so compare at the
  // router granularity via the owner node.
  for (std::size_t i = 0; i < n; ++i) {
    const auto fwd_owner = net_->find_owner(s[fwd_len - 1 - i]);
    const auto ret_owner = net_->find_owner(s[pivot + 1 + i]);
    if (fwd_owner == sim::kInvalidNode || ret_owner == sim::kInvalidNode) return std::nullopt;
    if (fwd_owner != ret_owner) return false;
  }
  return true;
}

std::vector<TraceHop> Prober::traceroute_doubletree(net::Ipv4Address dst,
                                                    std::set<net::Ipv4Address>& stop_set,
                                                    int max_ttl, int attempts,
                                                    int always_probe_first) {
  std::vector<TraceHop> hops;
  int silent = 0;
  for (int ttl = 1; ttl <= max_ttl; ++ttl) {
    ProbeOptions o;
    o.ttl = static_cast<std::uint8_t>(ttl);
    TraceHop hop;
    hop.ttl = ttl;
    for (int a = 0; a < attempts; ++a) {
      const ProbeOutcome r = probe(dst, o);
      if (r.answered) {
        hop.addr = r.responder;
        hop.rtt = r.rtt;
        break;
      }
    }
    hops.push_back(hop);
    if (hop.addr.is_unspecified()) {
      if (hops.back().ttl > 0 && hop.addr == dst) break;
      if (++silent >= 3) break;
      continue;
    }
    silent = 0;
    // Every responding hop (including the destination) joins the stop set;
    // the stop check applies beyond the always-probed prefix of the path.
    const bool fresh = stop_set.insert(hop.addr).second;
    if (hop.addr == dst) break;
    if (ttl > always_probe_first && !fresh) break;
  }
  return hops;
}

}  // namespace ixp::prober
