#include "oracle/packet_engine.h"

#include <algorithm>
#include <utility>

#include "tslp/series.h"
#include "util/check.h"
#include "util/strings.h"

namespace ixp::oracle {

namespace {
/// How long probe() waits for the reply.
constexpr Duration kReplyTimeout = std::chrono::seconds(3);
}  // namespace

// ---------------------------------------------------------------------------
// EventLoop

void EventLoop::schedule_at(TimePoint at, Action action) {
  if (at < now_) {
    // A past-time event is a causality violation: some caller computed an
    // arrival behind the clock.  Fail loudly when the paranoid layer is
    // on; clamp in release so the event fires immediately.
    IXP_CHECK(at >= now_,
              strformat("schedule_at into the past: at=%lld ns, now=%lld ns, delta=%lld ns",
                        static_cast<long long>(at.ns()), static_cast<long long>(now_.ns()),
                        static_cast<long long>((now_ - at).count())));
    at = now_;
  }
  heap_.push_back(Entry{at, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::run_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  now_ = e.at;
  ++executed_;
  e.action();
}

void EventLoop::run_until(TimePoint until) {
  while (!heap_.empty() && heap_.front().at <= until) run_next();
  now_ = std::max(now_, until);
}

void EventLoop::run() {
  while (!heap_.empty()) run_next();
}

void EventLoop::clear() {
  heap_.clear();
  now_ = TimePoint{};
  next_seq_ = 0;
  executed_ = 0;
}

// ---------------------------------------------------------------------------
// PacketEngine

void PacketEngine::send(sim::NodeId host, net::Packet pkt) {
  const net::Ipv4Address next_hop = pkt.dst;
  transmit(host, 0, std::move(pkt), next_hop);
}

void PacketEngine::transmit(sim::NodeId from, int ifindex, net::Packet pkt,
                            net::Ipv4Address next_hop) {
  const sim::Node& sender = net_->node(from);
  if (ifindex < 0 || ifindex >= static_cast<int>(sender.interfaces().size())) return;
  sim::DuplexLink& l = net_->link(sender.interfaces()[static_cast<std::size_t>(ifindex)].link_id);
  TimePoint t = loop_.now();
  if (!net_->cross_link(l, from, pkt.size_bytes, t)) return;  // drop already counted
  const sim::NodeId peer = l.other(from);
  const int peer_if = l.ifindex_at(peer);
  loop_.schedule_at(t, [this, peer, peer_if, next_hop, pkt = std::move(pkt)]() mutable {
    receive(peer, std::move(pkt), peer_if, next_hop);
  });
}

void PacketEngine::receive(sim::NodeId at, net::Packet pkt, int in_ifindex,
                           net::Ipv4Address next_hop) {
  sim::Node& n = net_->node(at);
  switch (n.kind()) {
    case sim::NodeKind::kRouter:
      router_receive(static_cast<sim::Router&>(n), std::move(pkt), in_ifindex);
      return;
    case sim::NodeKind::kHost:
      host_receive(static_cast<sim::Host&>(n), std::move(pkt));
      return;
    case sim::NodeKind::kSwitch:
      switch_receive(static_cast<const sim::L2Switch&>(n), std::move(pkt), next_hop);
      return;
  }
}

void PacketEngine::router_receive(sim::Router& r, net::Packet pkt, int in_ifindex) {
  // Record-route filtering drops optioned probes outright; the replies they
  // draw pass.
  if (r.config().rr_filtered && pkt.record_route && pkt.is_probe()) return;
  // Addressed to one of my interfaces: control-plane processing.
  if (r.owns_address(pkt.dst)) {
    if (pkt.is_probe()) emit_icmp(r, pkt, net::IcmpType::kEchoReply, pkt.dst);
    return;  // replies addressed to a router are consumed silently
  }
  // TTL check happens before forwarding; TIME_EXCEEDED leaves from the
  // inbound interface's address.
  if (pkt.ttl <= 1) {
    if (pkt.is_probe()) {
      emit_icmp(r, pkt, net::IcmpType::kTimeExceeded,
                r.interfaces()[static_cast<std::size_t>(in_ifindex)].addr);
    }
    return;
  }
  pkt.ttl -= 1;
  loop_.schedule(r.config().forward_delay, [this, &r, pkt = std::move(pkt)]() mutable {
    forward(r, std::move(pkt));
  });
}

void PacketEngine::forward(sim::Router& r, net::Packet pkt) {
  const sim::FibEntry* entry = r.route_lookup(pkt.dst);
  if (entry == nullptr || entry->ifindex < 0 ||
      entry->ifindex >= static_cast<int>(r.interfaces().size())) {
    return;
  }
  if (pkt.record_route &&
      pkt.route_stamps.size() < static_cast<std::size_t>(net::kMaxRecordRouteSlots)) {
    pkt.route_stamps.push_back(r.interfaces()[static_cast<std::size_t>(entry->ifindex)].addr);
  }
  const net::Ipv4Address next_hop =
      entry->next_hop.is_unspecified() ? pkt.dst : entry->next_hop;
  transmit(r.id(), entry->ifindex, std::move(pkt), next_hop);
}

void PacketEngine::emit_icmp(sim::Router& r, const net::Packet& cause, net::IcmpType type,
                             net::Ipv4Address from) {
  const TimePoint t = loop_.now();
  if (r.config().icmp_disabled || !r.icmp_rate_admit(t)) return;
  net::Packet reply;
  reply.src = from;
  reply.dst = cause.src;
  reply.ttl = 64;
  reply.icmp_type = type;
  reply.ip_id = r.next_ip_id();
  reply.size_bytes = sim::kIcmpReplyBytes;
  reply.sent_at = cause.sent_at;
  if (type == net::IcmpType::kEchoReply) {
    reply.ident = cause.ident;
    reply.seq = cause.seq;
  } else {
    reply.quoted_ident = cause.ident;
    reply.quoted_seq = cause.seq;
  }
  // Echo replies keep the record-route option accumulated so far, and
  // TIME_EXCEEDED quotes it; routers on the return path keep stamping.
  reply.record_route = cause.record_route;
  reply.route_stamps = cause.route_stamps;
  ++net_->icmp_generated;
  // The reply is generated, not forwarded: no forwarding delay here.
  loop_.schedule(r.icmp_generation_delay(t), [this, &r, reply = std::move(reply)]() mutable {
    forward(r, std::move(reply));
  });
}

void PacketEngine::host_receive(sim::Host& h, net::Packet pkt) {
  if (!h.owns_address(pkt.dst)) {
    send(h.id(), std::move(pkt));
    return;
  }
  if (const auto it = rx_.find(h.id()); it != rx_.end() && it->second) {
    it->second(pkt, loop_.now());
  }
  if (!pkt.is_probe()) return;
  net::Packet reply;
  reply.src = pkt.dst;
  reply.dst = pkt.src;
  reply.ttl = 64;
  reply.icmp_type = net::IcmpType::kEchoReply;
  reply.ident = pkt.ident;
  reply.seq = pkt.seq;
  reply.size_bytes = sim::kIcmpReplyBytes;
  reply.sent_at = pkt.sent_at;
  reply.record_route = pkt.record_route;
  reply.route_stamps = std::move(pkt.route_stamps);
  ++net_->icmp_generated;
  const sim::NodeId self = h.id();
  loop_.schedule(sim::kHostReplyDelay, [this, self, reply = std::move(reply)]() mutable {
    send(self, std::move(reply));
  });
}

void PacketEngine::switch_receive(const sim::L2Switch& sw, net::Packet pkt,
                                  net::Ipv4Address next_hop) {
  const sim::L2Port* port = sw.lookup(next_hop);
  if (port == nullptr) return;
  transmit(sw.id(), port->ifindex, std::move(pkt), next_hop);
}

sim::ProbeResult PacketEngine::probe(sim::NodeId from, const net::Packet& pkt) {
  const TimePoint start = net_->simulator().now();
  loop_.clear();
  loop_.run_until(start);
  sim::ProbeResult res;
  RxCallback outer = std::move(rx_[from]);
  rx_[from] = [&](const net::Packet& reply, TimePoint at) {
    const bool echo = reply.icmp_type == net::IcmpType::kEchoReply;
    if ((echo ? reply.ident : reply.quoted_ident) != pkt.ident ||
        (echo ? reply.seq : reply.quoted_seq) != pkt.seq) {
      return;
    }
    res.answered = true;
    res.responder = reply.src;
    res.responder_node = net_->find_owner(reply.src);
    res.reply_type = reply.icmp_type;
    res.rtt = at - start;
    res.ip_id = reply.ip_id;
    res.record_route = reply.route_stamps;
  };
  send(from, pkt);
  loop_.run_until(start + kReplyTimeout);
  rx_[from] = std::move(outer);
  return res;
}

std::vector<double> replay_far_rounds(prober::Prober& tracer, net::Ipv4Address far_ip,
                                      TimePoint start, TimePoint end, Duration round,
                                      int max_ttl) {
  sim::Network& net = tracer.network();
  net.simulator().advance_to(start);
  const int far_ttl = tracer.hop_distance(far_ip, max_ttl).value_or(0);
  PacketEngine engine(net);
  std::vector<double> far;
  const std::int64_t rounds = (end - start).count() / round.count();
  for (std::int64_t r = 0; r < rounds; ++r) {
    net.simulator().advance_to(start + round * r);
    double ms = tslp::kMissing;
    for (const int ttl : {far_ttl, far_ttl - 1}) {
      if (far_ttl < 2) break;
      net::Packet pkt;
      pkt.src = tracer.source_address();
      pkt.dst = far_ip;
      pkt.ttl = static_cast<std::uint8_t>(ttl);
      const sim::ProbeResult res = engine.probe(tracer.host_id(), pkt);
      if (ttl == far_ttl && res.answered && res.responder == far_ip) ms = to_ms(res.rtt);
    }
    far.push_back(ms);
  }
  return far;
}

}  // namespace ixp::oracle
