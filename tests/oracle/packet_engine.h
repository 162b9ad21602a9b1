// Packet-level event engine: the reference transport for the probe walk.
//
// sim::Network::probe executes a probe analytically: the route is resolved
// once and its crossings are replayed at one instant.  This engine moves
// the same probe as packets instead.  Every link crossing, forwarding delay
// and ICMP generation is an event on a heap, and each node reacts to what
// reaches it (NodeKind dispatch over the public Router/Host/L2Switch API).
// It drives the network from outside: the same nodes, queues and RNG
// streams, and the same Network::cross_link for every link traversal.  The
// suites in tests/test_sim.cc and tests/test_prober.cc hold it to the walk
// bit for bit on twin-built worlds.
//
// Its semantics are the walk's, which the goldens pin: an L2 fabric adds no
// latency, a host answers an echo after sim::kHostReplyDelay with a
// sim::kIcmpReplyBytes reply, and record-route filtering drops probes,
// never their replies.  A host forwards a packet it does not own out of
// interface 0, as the walk does.  The network's counters move as the walk
// moves them: link drops (counted by cross_link), hops and generated ICMP.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "prober/prober.h"
#include "sim/network.h"
#include "util/strings.h"
#include "util/time.h"

namespace ixp::oracle {

/// A single-threaded event loop over its own clock.  Events scheduled for
/// the same instant fire in scheduling order (a monotone sequence number
/// breaks ties).  The clock moves only to an event it runs or to a
/// run_until() bound past every event due by then, so no event is ever
/// overdue.
class EventLoop {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `action` at absolute time `at`.  Scheduling into the past
  /// would run an effect before its cause: under IXP_PARANOID it
  /// check-fails with the offending delta; release builds clamp to now().
  void schedule_at(TimePoint at, Action action);

  /// Schedules `action` `delay` from now.
  void schedule(Duration delay, Action action) { schedule_at(now_ + delay, std::move(action)); }

  /// Runs the events due by `until` (those at exactly `until` included),
  /// then moves the clock to `until` if it is not already past it.
  void run_until(TimePoint until);

  /// Runs until the queue is empty.
  void run();

  /// Discards all pending events and resets the clock, sequence counter and
  /// executed-event count: a cleared loop behaves like a fresh one.
  void clear();

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t scheduled() const { return next_seq_; }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Pops the earliest entry, moves the clock to it and runs it.  The entry
  /// is moved out of the heap (a std::priority_queue only exposes a const
  /// top()).
  void run_next();

  std::vector<Entry> heap_;  ///< binary heap ordered by Later
  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// Moves packets through a sim::Network hop by hop on an EventLoop.
class PacketEngine {
 public:
  /// Receives every packet delivered to a host, with its arrival time.
  using RxCallback = std::function<void(const net::Packet&, TimePoint)>;

  explicit PacketEngine(sim::Network& net) : net_(&net) {}

  [[nodiscard]] EventLoop& loop() { return loop_; }

  /// Host `host` emits `pkt` at the loop's now, out of interface 0 toward
  /// the destination itself.
  void send(sim::NodeId host, net::Packet pkt);

  void set_rx_callback(sim::NodeId host, RxCallback cb) { rx_[host] = std::move(cb); }

  /// One probe as packets, the counterpart of sim::Network::probe(from,
  /// pkt): the loop is cleared and restarts at the network clock's now
  /// (the instant the walk executes at), `pkt` leaves host `from`, and
  /// events run for three seconds.  The reply matching pkt's ident and seq
  /// is the result; the drop flags stay false (a lost probe is just
  /// unanswered).
  sim::ProbeResult probe(sim::NodeId from, const net::Packet& pkt);

 private:
  /// One link crossing from `from` out of `ifindex` starting now, and the
  /// peer's receive scheduled at the arrival instant.  `next_hop` picks the
  /// L2 port on a switch fabric.
  void transmit(sim::NodeId from, int ifindex, net::Packet pkt, net::Ipv4Address next_hop);
  /// Node `at` reacts to `pkt` arriving on `in_ifindex`; `next_hop` is the
  /// sender's IP next hop, the port key if `at` is a switch.
  void receive(sim::NodeId at, net::Packet pkt, int in_ifindex, net::Ipv4Address next_hop);
  void router_receive(sim::Router& r, net::Packet pkt, int in_ifindex);
  void host_receive(sim::Host& h, net::Packet pkt);
  void switch_receive(const sim::L2Switch& sw, net::Packet pkt, net::Ipv4Address next_hop);
  void forward(sim::Router& r, net::Packet pkt);
  void emit_icmp(sim::Router& r, const net::Packet& cause, net::IcmpType type,
                 net::Ipv4Address from);

  sim::Network* net_;
  EventLoop loop_;
  std::unordered_map<sim::NodeId, RxCallback> rx_;
};

/// The first field in which a walked probe (a sim::ProbeResult or a
/// prober::ProbeOutcome) differs from the oracle's, as "field: walk vs
/// packets"; empty when answered, responder, responder node, reply type,
/// RTT in ns, IP-ID and stamps all agree exactly.
template <class Walked>
std::string mismatch(const Walked& walk, const sim::ProbeResult& packets) {
  const auto differ = [](const char* field, long long a, long long b) {
    return strformat("%s: %lld vs %lld", field, a, b);
  };
  const auto stamps = [](const std::vector<net::Ipv4Address>& route) {
    std::vector<std::string> addrs;
    for (const net::Ipv4Address& a : route) addrs.push_back(a.to_string());
    return "[" + join(addrs, " ") + "]";
  };
  if (walk.answered != packets.answered) {
    return differ("answered", walk.answered, packets.answered);
  }
  if (walk.responder != packets.responder) {
    return "responder: " + walk.responder.to_string() + " vs " + packets.responder.to_string();
  }
  if (walk.responder_node != packets.responder_node) {
    return differ("responder node", walk.responder_node, packets.responder_node);
  }
  if (walk.reply_type != packets.reply_type) {
    return differ("reply type", static_cast<long long>(walk.reply_type),
                  static_cast<long long>(packets.reply_type));
  }
  if (walk.rtt != packets.rtt) return differ("rtt ns", walk.rtt.count(), packets.rtt.count());
  if (walk.ip_id != packets.ip_id) return differ("ip id", walk.ip_id, packets.ip_id);
  if (walk.record_route != packets.record_route) {
    return "stamps: " + stamps(walk.record_route) + " vs " + stamps(packets.record_route);
  }
  return {};
}

/// The far-RTT series a prober::TslpDriver run over [start, end) records for
/// the target at `far_ip`, replayed as packets on a twin world: the
/// driver's opening hop-distance traceroute (walked by `tracer`, as the
/// driver walks it), then each round's far and near probe at the round
/// instant, in the driver's order.  A far probe that goes unanswered or is
/// answered from another address is tslp::kMissing.  The driver's
/// re-learns are not replayed.
std::vector<double> replay_far_rounds(prober::Prober& tracer, net::Ipv4Address far_ip,
                                      TimePoint start, TimePoint end, Duration round,
                                      int max_ttl = 32);

}  // namespace ixp::oracle
