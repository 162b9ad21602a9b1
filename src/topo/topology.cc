#include "topo/topology.h"

#include <stdexcept>

#include "util/strings.h"

namespace ixp::topo {

// ---------------------------------------------------------------------------
// AddressAllocator

net::Ipv4Prefix AddressAllocator::next_as_block() {
  // AfriNIC-style pool: /22 blocks carved sequentially from 41.0.0.0/8 and
  // then 102.0.0.0/8 (synthetic allocations; see DESIGN.md).
  constexpr std::uint32_t kBlocksPer8 = 1u << 14;  // /22s inside a /8
  const std::uint32_t idx = as_block_index_++;
  const std::uint32_t base = (idx < kBlocksPer8) ? (41u << 24) : (102u << 24);
  const std::uint32_t within = idx % kBlocksPer8;
  return net::Ipv4Prefix(net::Ipv4Address(base + (within << 10)), 22);
}

net::Ipv4Prefix AddressAllocator::next_ptp_subnet() {
  // /30s carved from 154.64.0.0/10.
  const std::uint32_t idx = ptp_index_++;
  return net::Ipv4Prefix(net::Ipv4Address((154u << 24) | (64u << 16) | (idx << 2)), 30);
}

net::Ipv4Address AddressAllocator::next_lan_address(const net::Ipv4Prefix& lan) {
  auto& next = lan_next_[lan];
  ++next;  // skip the network address; first assignment is .1
  if (next >= lan.size() - 1) throw std::runtime_error("IXP LAN exhausted: " + lan.to_string());
  return lan.at(next);
}

// ---------------------------------------------------------------------------
// Topology

AsInfo& Topology::add_as(AsInfo info) {
  const Asn asn = info.asn;
  auto [it, inserted] = ases_.emplace(asn, std::move(info));
  if (!inserted) throw std::runtime_error(strformat("duplicate AS%u", asn));
  return it->second;
}

const AsInfo* Topology::find_as(Asn asn) const {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? nullptr : &it->second;
}

AsInfo* Topology::find_as(Asn asn) {
  const auto it = ases_.find(asn);
  return it == ases_.end() ? nullptr : &it->second;
}

IxpInfo& Topology::add_ixp(IxpInfo info) {
  ixps_.emplace_back(info.name, std::move(info));
  return ixps_.back().second;
}

const IxpInfo* Topology::find_ixp(const std::string& name) const {
  for (const auto& [n, info] : ixps_) {
    if (n == name) return &info;
  }
  return nullptr;
}

sim::NodeId Topology::add_router(Asn asn, const std::string& tag, sim::RouterConfig cfg) {
  cfg.owner_asn = asn;
  const AsInfo* info = find_as(asn);
  const std::string name = (info ? info->name : strformat("AS%u", asn)) + "." + tag;
  sim::Router& r = net_.add_router(name, std::move(cfg));
  as_routers_[asn].push_back(r.id());
  router_owner_[r.id()] = asn;
  return r.id();
}

sim::NodeId Topology::add_host(Asn asn, const std::string& tag, net::Ipv4Address addr,
                               sim::NodeId router, const net::Ipv4Prefix& subnet) {
  const AsInfo* info = find_as(asn);
  const std::string name = (info ? info->name : strformat("AS%u", asn)) + ".host." + tag;
  sim::Host& h = net_.add_host(name);
  // LAN between host and its gateway: generous capacity so the access hop
  // never masks interdomain queueing.
  sim::LinkConfig lan;
  lan.capacity_bps = 10e9;
  lan.buffer_bytes = 4e6;
  lan.prop_delay = milliseconds(0.05);
  // Gateway side uses the subnet's first address.
  const net::Ipv4Address gw = subnet.at(1) == addr ? subnet.at(2) : subnet.at(1);
  net_.connect(h.id(), addr, router, gw, lan, subnet);
  router_owner_[h.id()] = asn;
  return h.id();
}

void Topology::announce(Asn asn, const net::Ipv4Prefix& prefix, sim::NodeId router) {
  announcements_.push_back({prefix, asn, router});
  if (AsInfo* info = find_as(asn)) info->prefixes.push_back(prefix);
}

void Topology::add_as_relationship(Asn a, Asn b, Relationship rel) {
  as_links_.push_back({a, b, rel});
}

sim::NodeId Topology::ixp_fabric(const std::string& ixp_name) {
  const auto it = fabric_.find(ixp_name);
  if (it != fabric_.end()) return it->second;
  sim::L2Switch& sw = net_.add_switch(ixp_name + ".fabric");
  fabric_[ixp_name] = sw.id();
  return sw.id();
}

int Topology::attach_to_ixp(sim::NodeId router, const std::string& ixp_name, const PortConfig& port,
                            net::Ipv4Address* lan_addr_out) {
  const IxpInfo* ixp = find_ixp(ixp_name);
  if (!ixp) throw std::runtime_error("unknown IXP " + ixp_name);
  const sim::NodeId fab = ixp_fabric(ixp_name);
  const net::Ipv4Address lan_addr = alloc_.next_lan_address(ixp->peering_prefix);

  sim::LinkConfig cfg;
  cfg.capacity_bps = port.capacity_bps;
  cfg.buffer_bytes = port.buffer_bytes;
  cfg.prop_delay = port.prop_delay;
  cfg.cross_ab = port.egress_cross;   // router -> fabric
  cfg.cross_ba = port.ingress_cross;  // fabric -> router
  cfg.base_loss = port.base_loss;
  const int link_id =
      net_.connect(router, lan_addr, fab, net::Ipv4Address(), cfg, ixp->peering_prefix);

  if (lan_addr_out) *lan_addr_out = lan_addr;
  lan_members_[ixp_name].emplace_back(router, lan_addr);
  lan_addr_[router][ixp_name] = lan_addr;
  port_link_[router][ixp_name] = link_id;
  return link_id;
}

int Topology::connect_routers(sim::NodeId a, sim::NodeId b, const sim::LinkConfig& cfg) {
  const net::Ipv4Prefix subnet = alloc_.next_ptp_subnet();
  infra_delegations_.emplace_back(subnet, router_owner(a));
  return net_.connect(a, subnet.at(1), b, subnet.at(2), cfg, subnet);
}

std::vector<InterdomainLinkTruth> Topology::interdomain_links_of(Asn vp_asn) const {
  std::vector<InterdomainLinkTruth> out;
  const auto rit = as_routers_.find(vp_asn);
  if (rit == as_routers_.end()) return out;

  for (const sim::NodeId rid : rit->second) {
    const sim::Node& r = net_.node(rid);
    for (const auto& ifc : r.interfaces()) {
      if (ifc.link_id < 0) continue;
      const auto& link = const_cast<sim::Network&>(net_).link(ifc.link_id);
      if (!link.is_up()) continue;
      const sim::NodeId peer = link.other(rid);
      const auto oit = router_owner_.find(peer);
      if (oit != router_owner_.end() && oit->second != vp_asn) {
        // Direct point-to-point interdomain link.
        InterdomainLinkTruth t;
        t.near_ip = ifc.addr;
        const int pif = link.ifindex_at(peer);
        t.far_ip = net_.node(peer).interfaces()[static_cast<std::size_t>(pif)].addr;
        t.near_asn = vp_asn;
        t.far_asn = oit->second;
        t.link_id = ifc.link_id;
        if (const IxpInfo* ixp = ixp_containing(t.near_ip)) {
          t.at_ixp = true;
          t.ixp_name = ixp->name;
        }
        out.push_back(t);
        continue;
      }
      // Link into an IXP fabric: every *other* member of that LAN is an
      // IP-level adjacency of this router.
      for (const auto& [ixp_name, members] : lan_members_) {
        const auto fit = fabric_.find(ixp_name);
        if (fit == fabric_.end() || fit->second != peer) continue;
        const auto my_lan = lan_addr_.find(rid);
        if (my_lan == lan_addr_.end()) continue;
        const auto my_addr = my_lan->second.find(ixp_name);
        if (my_addr == my_lan->second.end()) continue;
        for (const auto& [member, member_addr] : members) {
          if (member == rid) continue;
          const auto mo = router_owner_.find(member);
          if (mo == router_owner_.end() || mo->second == vp_asn) continue;
          // Skip members whose port is down (they left the IXP).
          const auto pl = port_link_.find(member);
          if (pl != port_link_.end()) {
            const auto plink = pl->second.find(ixp_name);
            if (plink != pl->second.end() &&
                !const_cast<sim::Network&>(net_).link(plink->second).is_up()) {
              continue;
            }
          }
          InterdomainLinkTruth t;
          t.near_ip = my_addr->second;
          t.far_ip = member_addr;
          t.near_asn = vp_asn;
          t.far_asn = mo->second;
          t.link_id = (pl != port_link_.end()) ? pl->second.at(ixp_name) : -1;
          t.at_ixp = true;
          t.ixp_name = ixp_name;
          out.push_back(t);
        }
      }
    }
  }
  return out;
}

std::vector<std::pair<net::Ipv4Address, Asn>> Topology::lan_participants(
    const std::string& ixp) const {
  std::vector<std::pair<net::Ipv4Address, Asn>> out;
  const auto it = lan_members_.find(ixp);
  if (it == lan_members_.end()) return out;
  for (const auto& [router, addr] : it->second) {
    const auto pl = port_link_.find(router);
    if (pl != port_link_.end()) {
      const auto plink = pl->second.find(ixp);
      if (plink != pl->second.end() &&
          !const_cast<sim::Network&>(net_).link(plink->second).is_up()) {
        continue;
      }
    }
    const auto oit = router_owner_.find(router);
    if (oit != router_owner_.end()) out.emplace_back(addr, oit->second);
  }
  return out;
}

Asn Topology::owner_asn(net::Ipv4Address addr) const {
  const sim::NodeId node = net_.find_owner(addr);
  if (node != sim::kInvalidNode) {
    const auto it = router_owner_.find(node);
    if (it != router_owner_.end()) return it->second;
  }
  // Fall back to originated prefixes (longest match wins).
  Asn best = 0;
  int best_len = -1;
  for (const auto& a : announcements_) {
    if (a.prefix.contains(addr) && a.prefix.length() > best_len) {
      best = a.asn;
      best_len = a.prefix.length();
    }
  }
  return best;
}

const IxpInfo* Topology::ixp_containing(net::Ipv4Address addr) const {
  for (const auto& [name, info] : ixps_) {
    if (info.peering_prefix.contains(addr) || info.management_prefix.contains(addr)) return &info;
  }
  return nullptr;
}

const std::vector<sim::NodeId>& Topology::routers_of(Asn asn) const {
  static const std::vector<sim::NodeId> kEmpty;
  const auto it = as_routers_.find(asn);
  return it == as_routers_.end() ? kEmpty : it->second;
}

Asn Topology::router_owner(sim::NodeId node) const {
  const auto it = router_owner_.find(node);
  return it == router_owner_.end() ? 0 : it->second;
}

std::optional<net::Ipv4Address> Topology::lan_address_of(sim::NodeId router,
                                                         const std::string& ixp) const {
  const auto it = lan_addr_.find(router);
  if (it == lan_addr_.end()) return std::nullopt;
  const auto jt = it->second.find(ixp);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

}  // namespace ixp::topo
