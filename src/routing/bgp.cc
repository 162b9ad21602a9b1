#include "routing/bgp.h"

#include <algorithm>
#include <queue>


namespace ixp::routing {
namespace {

// Priority entry for the deterministic Dijkstra-like relaxations: shorter
// paths first, then lower learned-from ASN.
struct Cand {
  std::uint16_t len;
  Asn from_asn;
  std::size_t idx;
  std::size_t from_idx;
  bool operator>(const Cand& o) const {
    if (len != o.len) return len > o.len;
    if (from_asn != o.from_asn) return from_asn > o.from_asn;
    return idx > o.idx;
  }
};

using CandQueue = std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>>;

}  // namespace

Bgp::Bgp(const topo::Topology& topology) : topo_(&topology) {
  for (const auto& [asn, info] : topology.ases()) {
    (void)info;
    asns_.push_back(asn);
  }
  std::sort(asns_.begin(), asns_.end());
  for (std::size_t i = 0; i < asns_.size(); ++i) index_[asns_[i]] = i;

  const std::size_t n = asns_.size();
  providers_.resize(n);
  customers_.resize(n);
  peers_.resize(n);
  providers_asn_.resize(n);
  customers_asn_.resize(n);
  peers_asn_.resize(n);

  for (const auto& l : topology.as_links()) {
    const auto ia = index_.find(l.a);
    const auto ib = index_.find(l.b);
    if (ia == index_.end() || ib == index_.end()) continue;
    switch (l.rel) {
      case topo::Relationship::kCustomerToProvider:
        providers_[ia->second].push_back(ib->second);
        customers_[ib->second].push_back(ia->second);
        providers_asn_[ia->second].push_back(l.b);
        customers_asn_[ib->second].push_back(l.a);
        break;
      case topo::Relationship::kPeerToPeer:
      case topo::Relationship::kSibling:  // routed as mutual peers
        peers_[ia->second].push_back(ib->second);
        peers_[ib->second].push_back(ia->second);
        peers_asn_[ia->second].push_back(l.b);
        peers_asn_[ib->second].push_back(l.a);
        break;
    }
  }
}

std::size_t Bgp::index_of(Asn a) const {
  const auto it = index_.find(a);
  return it == index_.end() ? static_cast<std::size_t>(-1) : it->second;
}

void Bgp::compute() {
  const std::size_t n = asns_.size();
  best_.assign(n, std::vector<Best>(n));
  for (std::size_t o = 0; o < n; ++o) compute_origin(o);
}

void Bgp::compute_origin(std::size_t origin) {
  auto& best = best_[origin];
  best[origin] = {RouteClass::kSelf, 0, 0};

  // Stage 1: customer routes climb the provider edges.
  CandQueue q;
  for (const std::size_t p : providers_[origin]) q.push({1, asns_[origin], p, origin});
  while (!q.empty()) {
    const Cand c = q.top();
    q.pop();
    Best& b = best[c.idx];
    if (b.cls != RouteClass::kNone) continue;  // already settled (shorter or equal-better)
    b = {RouteClass::kCustomer, c.len, c.from_asn};
    for (const std::size_t p : providers_[c.idx]) {
      q.push({static_cast<std::uint16_t>(c.len + 1), asns_[c.idx], p, c.idx});
    }
  }

  // Stage 2: one hop across peer links from any customer/self route.
  std::vector<Best> peer_best(best.size());
  for (std::size_t u = 0; u < best.size(); ++u) {
    if (best[u].cls != RouteClass::kSelf && best[u].cls != RouteClass::kCustomer) continue;
    for (const std::size_t v : peers_[u]) {
      if (best[v].cls != RouteClass::kNone) continue;  // customer route wins
      const std::uint16_t len = static_cast<std::uint16_t>(best[u].path_len + 1);
      Best cand{RouteClass::kPeer, len, asns_[u]};
      Best& cur = peer_best[v];
      if (cur.cls == RouteClass::kNone || cand.path_len < cur.path_len ||
          (cand.path_len == cur.path_len && cand.learned_from < cur.learned_from)) {
        cur = cand;
      }
    }
  }
  for (std::size_t v = 0; v < best.size(); ++v) {
    if (peer_best[v].cls != RouteClass::kNone) best[v] = peer_best[v];
  }

  // Stage 3: provider routes descend the customer edges from every routed AS.
  CandQueue q3;
  for (std::size_t u = 0; u < best.size(); ++u) {
    if (best[u].cls == RouteClass::kNone) continue;
    for (const std::size_t v : customers_[u]) {
      if (best[v].cls != RouteClass::kNone) continue;
      q3.push({static_cast<std::uint16_t>(best[u].path_len + 1), asns_[u], v, u});
    }
  }
  while (!q3.empty()) {
    const Cand c = q3.top();
    q3.pop();
    Best& b = best[c.idx];
    if (b.cls != RouteClass::kNone) continue;
    b = {RouteClass::kProvider, c.len, c.from_asn};
    for (const std::size_t v : customers_[c.idx]) {
      if (best[v].cls == RouteClass::kNone) {
        q3.push({static_cast<std::uint16_t>(c.len + 1), asns_[c.idx], v, c.idx});
      }
    }
  }
}

Asn Bgp::next_hop(Asn from, Asn origin) const {
  const std::size_t f = index_of(from), o = index_of(origin);
  if (f >= asns_.size() || o >= asns_.size() || f == o) return 0;
  const Best& b = best_[o][f];
  return b.cls == RouteClass::kNone ? 0 : b.learned_from;
}

RouteClass Bgp::route_class(Asn from, Asn origin) const {
  const std::size_t f = index_of(from), o = index_of(origin);
  if (f >= asns_.size() || o >= asns_.size()) return RouteClass::kNone;
  return best_[o][f].cls;
}

std::vector<Asn> Bgp::as_path(Asn from, Asn origin) const {
  std::vector<Asn> path;
  const std::size_t o = index_of(origin);
  if (o >= asns_.size()) return path;
  Asn cur = from;
  for (std::size_t guard = 0; guard <= asns_.size(); ++guard) {
    path.push_back(cur);
    if (cur == origin) return path;
    const std::size_t c = index_of(cur);
    if (c >= asns_.size()) break;
    const Best& b = best_[o][c];
    if (b.cls == RouteClass::kNone || b.cls == RouteClass::kSelf) break;
    cur = b.learned_from;
  }
  return {};  // unreachable or loop guard tripped
}

const std::vector<Asn>& Bgp::providers(Asn a) const {
  static const std::vector<Asn> kEmpty;
  const std::size_t i = index_of(a);
  return i >= asns_.size() ? kEmpty : providers_asn_[i];
}

const std::vector<Asn>& Bgp::customers(Asn a) const {
  static const std::vector<Asn> kEmpty;
  const std::size_t i = index_of(a);
  return i >= asns_.size() ? kEmpty : customers_asn_[i];
}

const std::vector<Asn>& Bgp::peers(Asn a) const {
  static const std::vector<Asn> kEmpty;
  const std::size_t i = index_of(a);
  return i >= asns_.size() ? kEmpty : peers_asn_[i];
}

std::vector<RibEntry> Bgp::rib_dump(Asn collector) const {
  std::vector<RibEntry> out;
  for (const auto& ann : topo_->announcements()) {
    auto path = as_path(collector, ann.asn);
    if (path.empty()) continue;
    out.push_back({ann.prefix, std::move(path)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Router-level FIB installation

namespace {

struct Egress {
  sim::NodeId router = sim::kInvalidNode;
  int ifindex = -1;
  net::Ipv4Address next_hop;
};

// Locates every usable adjacency from AS x to AS y: point-to-point links
// and shared IXP LANs with both ports up.  Multiple adjacencies give the
// FIB installer per-prefix path diversity (parallel interdomain links are
// only discoverable by bdrmap if some prefix actually exits over them).
std::vector<Egress> find_egresses(const topo::Topology& topology, Asn x, Asn y) {
  // Dedicated point-to-point interconnects come before LAN adjacencies:
  // when an AS has both (e.g. a transit contract over a private link plus
  // a public peering port), the private link carries the routed traffic.
  std::vector<Egress> direct;
  std::vector<Egress> lan;
  auto& net = const_cast<topo::Topology&>(topology).net();
  for (const sim::NodeId rid : topology.routers_of(x)) {
    const sim::Node& r = net.node(rid);
    for (std::size_t i = 0; i < r.interfaces().size(); ++i) {
      const auto& ifc = r.interfaces()[i];
      if (ifc.link_id < 0) continue;
      sim::DuplexLink& link = net.link(ifc.link_id);
      if (!link.is_up()) continue;
      const sim::NodeId peer = link.other(rid);
      if (topology.router_owner(peer) == y) {
        const int pif = link.ifindex_at(peer);
        const auto& paddr = net.node(peer).interfaces()[static_cast<std::size_t>(pif)].addr;
        direct.push_back(Egress{rid, static_cast<int>(i), paddr});
        continue;
      }
      // Shared IXP LAN: find y-owned routers with a live port on the same
      // fabric node.
      if (net.node(peer).is_switch()) {
        for (const sim::NodeId yr : topology.routers_of(y)) {
          const sim::Node& yn = net.node(yr);
          for (std::size_t j = 0; j < yn.interfaces().size(); ++j) {
            const auto& yifc = yn.interfaces()[j];
            if (yifc.link_id < 0) continue;
            sim::DuplexLink& ylink = net.link(yifc.link_id);
            if (!ylink.is_up() || ylink.other(yr) != peer) continue;
            lan.push_back(Egress{rid, static_cast<int>(i), yifc.addr});
          }
        }
      }
    }
  }
  direct.insert(direct.end(), lan.begin(), lan.end());
  return direct;
}

// Intra-AS next hop from router `from` toward router `to` (BFS over links
// whose both endpoints belong to the AS).
std::optional<Egress> intra_as_hop(const topo::Topology& topology, Asn x, sim::NodeId from,
                                   sim::NodeId to) {
  if (from == to) return std::nullopt;
  auto& net = const_cast<topo::Topology&>(topology).net();
  // BFS backwards from `to`, remembering the first hop out of `from`.
  std::unordered_map<sim::NodeId, std::pair<int, net::Ipv4Address>> via;  // node -> (ifindex, nh)
  std::queue<sim::NodeId> q;
  q.push(to);
  std::unordered_map<sim::NodeId, bool> seen;
  seen[to] = true;
  while (!q.empty()) {
    const sim::NodeId cur = q.front();
    q.pop();
    const sim::Node& n = net.node(cur);
    for (const auto& ifc : n.interfaces()) {
      if (ifc.link_id < 0) continue;
      sim::DuplexLink& link = net.link(ifc.link_id);
      if (!link.is_up()) continue;
      const sim::NodeId peer = link.other(cur);
      if (topology.router_owner(peer) != x || seen.count(peer)) continue;
      seen[peer] = true;
      // From `peer`, the next hop toward `to` is across this link into cur.
      const int pif = link.ifindex_at(peer);
      via[peer] = {pif, ifc.addr};
      if (peer == from) {
        return Egress{from, pif, ifc.addr};
      }
      q.push(peer);
    }
  }
  return std::nullopt;
}

void install_at(sim::Network& net, sim::NodeId router, const net::Ipv4Prefix& prefix,
                int ifindex, net::Ipv4Address nh) {
  auto& r = static_cast<sim::Router&>(net.node(router));
  r.add_route(prefix, sim::FibEntry{ifindex, nh});
}

}  // namespace

void Bgp::install_fibs(topo::Topology& topology) const {
  auto& net = topology.net();
  const net::Ipv4Prefix kDefault(net::Ipv4Address(0), 0);

  // Pass 1: reset and install connected subnets on every router.
  for (const auto& [asn, routers] : [&] {
        std::vector<std::pair<Asn, std::vector<sim::NodeId>>> v;
        for (const auto& a : asns_) v.emplace_back(a, topology.routers_of(a));
        return v;
      }()) {
    (void)asn;
    for (const sim::NodeId rid : routers) {
      if (!net.node(rid).is_router()) continue;
      auto* r = static_cast<sim::Router*>(&net.node(rid));
      r->clear_fib();
      for (std::size_t i = 0; i < r->interfaces().size(); ++i) {
        const auto& ifc = r->interfaces()[i];
        if (ifc.subnet.length() > 0) {
          r->add_route(ifc.subnet, sim::FibEntry{static_cast<int>(i), net::Ipv4Address()});
        }
      }
    }
  }

  // Pass 2: per-AS routes.
  for (std::size_t xi = 0; xi < asns_.size(); ++xi) {
    const Asn x = asns_[xi];
    const auto& routers = topology.routers_of(x);
    if (routers.empty()) continue;
    const bool tier1 = providers_[xi].empty();

    // Cache of AS-level egress resolutions for this source AS.
    std::unordered_map<Asn, std::vector<Egress>> egress_cache;
    auto egresses_to = [&](Asn y) -> const std::vector<Egress>& {
      auto it = egress_cache.find(y);
      if (it == egress_cache.end()) {
        it = egress_cache.emplace(y, find_egresses(topology, x, y)).first;
      }
      return it->second;
    };
    // Deterministic round-robin spreading over parallel adjacencies: the
    // k-th prefix learned from a neighbor exits over its k-th adjacency, so
    // every parallel link carries some prefix and stays discoverable.
    std::unordered_map<Asn, std::size_t> rotation;
    auto pick = [&rotation](const std::vector<Egress>& v, Asn learned_from) -> const Egress& {
      return v[rotation[learned_from]++ % v.size()];
    };

    auto install_via = [&](const net::Ipv4Prefix& prefix, const Egress& eg) {
      install_at(net, eg.router, prefix, eg.ifindex, eg.next_hop);
      for (const sim::NodeId rid : routers) {
        if (rid == eg.router) continue;
        if (auto hop = intra_as_hop(topology, x, rid, eg.router)) {
          install_at(net, rid, prefix, hop->ifindex, hop->next_hop);
        }
      }
    };

    // Own prefixes: route every router toward the originating router.
    for (const auto& ann : topo_->announcements()) {
      if (ann.asn != x) continue;
      for (const sim::NodeId rid : routers) {
        if (rid == ann.router) continue;
        if (auto hop = intra_as_hop(topology, x, rid, ann.router)) {
          install_at(net, rid, ann.prefix, hop->ifindex, hop->next_hop);
        }
      }
    }

    // Learned routes.
    for (const auto& ann : topo_->announcements()) {
      if (ann.asn == x) continue;
      const std::size_t oi = index_of(ann.asn);
      if (oi >= asns_.size()) continue;
      const Best& b = best_[oi][xi];
      if (b.cls == RouteClass::kNone) continue;
      const bool explicit_route =
          b.cls == RouteClass::kCustomer || b.cls == RouteClass::kPeer || tier1;
      if (!explicit_route) continue;  // covered by the default route below
      const auto& egs = egresses_to(b.learned_from);
      if (!egs.empty()) install_via(ann.prefix, pick(egs, b.learned_from));
    }

    // Default route toward the preferred (lowest-ASN reachable) provider.
    if (!tier1) {
      for (const Asn p : [&] {
            auto v = providers_asn_[xi];
            std::sort(v.begin(), v.end());
            return v;
          }()) {
        const auto& egs = egresses_to(p);
        if (!egs.empty()) {
          install_via(kDefault, egs.front());
          break;
        }
      }
    }
  }
}

}  // namespace ixp::routing
