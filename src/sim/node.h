// Simulated nodes: routers, hosts, and L2 switch fabrics.
//
// Nodes hold the state the probe walk (sim/network.h) reads.  Routers carry
// the FIB and the knobs behind the IP behaviours TSLP depends on: TTL
// decrement, ICMP TIME_EXCEEDED generation from the *inbound* interface
// address (this is what makes the near/far ends of an interdomain link
// observable), ICMP rate limiting, a configurable slow-ICMP control-plane
// model, and IPv4 record-route stamping.
//
// The L2Switch models an IXP switching fabric: frames cross it without a
// TTL decrement and the fabric itself is invisible at the IP layer, so a
// traceroute from a member sees its own border router and then directly
// the peer's router -- exactly how IXP LANs appear in real traces.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "net/prefix_map.h"
#include "sim/link.h"
#include "util/rng.h"

namespace ixp::sim {

/// An attachment point of a node to a link.
struct Interface {
  net::Ipv4Address addr;   ///< unset (0) for pure L2 ports
  int link_id = -1;
  net::Ipv4Prefix subnet;  ///< the connected subnet
};

/// Next-hop entry installed in a router FIB.
struct FibEntry {
  int ifindex = -1;
  net::Ipv4Address next_hop;  ///< 0 means "directly connected: use dst"
};

/// Concrete node type, queryable without RTTI.  The forwarding hot path
/// dispatches on this tag instead of dynamic_cast (which dominated probe
/// profiles before the tag existed).
enum class NodeKind : std::uint8_t { kHost, kRouter, kSwitch };

class Node {
 public:
  Node(NodeKind kind, std::string name) : name_(std::move(name)), kind_(kind) {}
  virtual ~Node() = default;

  [[nodiscard]] NodeKind kind() const { return kind_; }
  [[nodiscard]] bool is_host() const { return kind_ == NodeKind::kHost; }
  [[nodiscard]] bool is_router() const { return kind_ == NodeKind::kRouter; }
  [[nodiscard]] bool is_switch() const { return kind_ == NodeKind::kSwitch; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NodeId id() const { return id_; }
  void set_id(NodeId id) { id_ = id; }

  [[nodiscard]] const std::vector<Interface>& interfaces() const { return interfaces_; }
  int add_interface(const Interface& ifc) {
    interfaces_.push_back(ifc);
    bump_route_version();
    return static_cast<int>(interfaces_.size()) - 1;
  }
  [[nodiscard]] bool owns_address(net::Ipv4Address a) const {
    for (const auto& i : interfaces_) {
      if (i.addr == a && !a.is_unspecified()) return true;
    }
    return false;
  }

  /// Bumped by every change to the state route resolution reads at this
  /// node: its interfaces, FIB or L2 table.  A sim::WalkPlan stays valid
  /// while the versions it recorded still match (sim/network.h).
  [[nodiscard]] std::uint64_t route_version() const { return route_version_; }

 protected:
  void bump_route_version() { ++route_version_; }

  std::vector<Interface> interfaces_;

 private:
  std::string name_;
  NodeId id_ = kInvalidNode;
  NodeKind kind_;
  std::uint64_t route_version_ = 0;
};

/// Router behaviour knobs.
struct RouterConfig {
  std::uint32_t owner_asn = 0;
  /// Per-packet forwarding latency (lookup + switching).
  Duration forward_delay = std::chrono::microseconds(20);
  /// Base control-plane delay to generate any ICMP message.
  Duration icmp_base_delay = milliseconds(0.3);
  /// Half-normal jitter added to ICMP generation.
  Duration icmp_jitter = milliseconds(0.25);
  /// Optional control-plane load in [0,1] as a function of time; ICMP
  /// generation slows by icmp_load_extra * load(t).  Models routers whose
  /// ICMP slow path degrades at peak hours (the GIXA-KNET hypothesis).
  TrafficProfilePtr icmp_load;         ///< interpreted as relative load 0..1
  Duration icmp_load_extra = milliseconds(0);
  /// ICMP generation rate limit (messages/second); 0 disables the limit.
  double icmp_rate_limit_per_sec = 0.0;
  /// Router never generates ICMP (echo replies or errors): the silent
  /// routers that cap bdrmap's real-world neighbor recall at ~96 %.
  bool icmp_disabled = false;
  /// Router drops packets carrying the record-route option (common
  /// filtering practice; the reason Table 2 shows zero record routes for
  /// VP4 and VP6).
  bool rr_filtered = false;
};

class Router final : public Node {
 public:
  Router(std::string name, RouterConfig cfg, Rng rng)
      : Node(NodeKind::kRouter, std::move(name)), cfg_(std::move(cfg)), rng_(rng) {}

  [[nodiscard]] std::uint32_t asn() const { return cfg_.owner_asn; }
  [[nodiscard]] const RouterConfig& config() const { return cfg_; }
  RouterConfig& mutable_config() { return cfg_; }

  /// Installs/overwrites a FIB route.
  void add_route(const net::Ipv4Prefix& prefix, FibEntry entry) {
    fib_.insert(prefix, entry);
    route_cache_.clear();
    last_route_valid_ = false;
    bump_route_version();
  }
  [[nodiscard]] const net::PrefixMap<FibEntry>& fib() const { return fib_; }
  void clear_fib() {
    fib_ = net::PrefixMap<FibEntry>();
    route_cache_.clear();
    last_route_valid_ = false;
    bump_route_version();
  }

  /// Memoized longest-prefix match.  A TSLP campaign hits each router with
  /// the same handful of destinations every round, so the trie walk is paid
  /// once per (router, dst); any FIB mutation invalidates the cache.  The
  /// one-entry memo on top covers the far/near probe pairs, which query the
  /// same destination back to back.
  [[nodiscard]] const FibEntry* route_lookup(net::Ipv4Address dst) const {
    if (last_route_valid_ && dst == last_route_dst_) return last_route_;
    const auto [it, fresh] = route_cache_.try_emplace(dst, nullptr);
    if (fresh) it->second = fib_.lookup(dst);
    last_route_valid_ = true;
    last_route_dst_ = dst;
    last_route_ = it->second;
    return it->second;
  }

  /// ICMP generation delay at time t (deterministic given the RNG stream).
  Duration icmp_generation_delay(TimePoint t);

  /// Token-bucket admission for ICMP generation.
  bool icmp_rate_admit(TimePoint t);

  /// Next value of the router-wide IP-ID counter (all interfaces share it,
  /// which is exactly the signal Ally-style alias resolution exploits).
  std::uint16_t next_ip_id() { return ip_id_counter_++; }

 private:
  RouterConfig cfg_;
  net::PrefixMap<FibEntry> fib_;
  /// dst -> trie entry; pointers stay valid because any mutation clears it.
  mutable std::unordered_map<net::Ipv4Address, const FibEntry*> route_cache_;
  mutable net::Ipv4Address last_route_dst_;
  mutable const FibEntry* last_route_ = nullptr;
  mutable bool last_route_valid_ = false;
  Rng rng_;
  std::uint16_t ip_id_counter_ = 1;
  // Token bucket for ICMP rate limiting.
  double icmp_tokens_ = 0.0;
  bool icmp_bucket_primed_ = false;
  TimePoint icmp_tokens_at_{};
};

/// End host: a probing vantage point or a probed endpoint.  The walk sends a
/// host's packets out of interface 0 and answers echo requests addressed to
/// it after kHostReplyDelay (sim/network.h).
class Host final : public Node {
 public:
  explicit Host(std::string name) : Node(NodeKind::kHost, std::move(name)) {}

  [[nodiscard]] net::Ipv4Address address() const {
    return interfaces_.empty() ? net::Ipv4Address() : interfaces_[0].addr;
  }
};

/// Resolved L2 port: which switch ifindex reaches an address, and the node
/// on the far side of that port.  Filled in by Network::connect(), so route
/// resolution crosses a fabric with one O(1) lookup.
struct L2Port {
  int ifindex = -1;
  NodeId peer = kInvalidNode;
};

/// IXP switching fabric: forwards by next-hop IP without touching TTL, and
/// adds no latency of its own (the crossing is the member ports' links).
class L2Switch final : public Node {
 public:
  explicit L2Switch(std::string name) : Node(NodeKind::kSwitch, std::move(name)) {}

  /// Registers which port (ifindex on the switch) reaches `addr`, and who
  /// sits behind it.
  void learn(net::Ipv4Address addr, int port_ifindex, NodeId peer = kInvalidNode) {
    table_[addr] = L2Port{port_ifindex, peer};
    last_key_valid_ = false;
    bump_route_version();
  }
  void forget(net::Ipv4Address addr) {
    table_.erase(addr);
    last_key_valid_ = false;
    bump_route_version();
  }

  /// O(1) learned-table lookup; nullptr for unknown addresses.  The
  /// one-entry memo covers consecutive frames toward the same next hop
  /// (TSLP's far/near probe pairs and their replies).
  [[nodiscard]] const L2Port* lookup(net::Ipv4Address addr) const {
    if (last_key_valid_ && addr == last_key_) return last_port_;
    const auto it = table_.find(addr);
    last_key_valid_ = true;
    last_key_ = addr;
    last_port_ = it == table_.end() ? nullptr : &it->second;
    return last_port_;
  }

 private:
  std::unordered_map<net::Ipv4Address, L2Port> table_;
  mutable net::Ipv4Address last_key_;
  mutable const L2Port* last_port_ = nullptr;
  mutable bool last_key_valid_ = false;
};

}  // namespace ixp::sim
