#include "bdrmap/bdrmap.h"

#include "bdrmap/alias.h"

#include <algorithm>


namespace ixp::bdrmap {

namespace {

constexpr int kMaxTtl = 32;   ///< hop limit of the prefix-sweep traces
constexpr int kAttempts = 2;  ///< probes per hop before it counts as silent

}  // namespace

Bdrmap::Bdrmap(prober::Prober& prober, const registry::PublicData& data, Asn vp_asn,
               BdrmapOptions opts)
    : prober_(&prober), data_(&data), vp_asn_(vp_asn), opts_(opts) {
  origin_map_ = data.origin_map();
  // Join delegation org-ids to ASNs via the AS-org file (lowest ASN per
  // organisation; sibling resolution happens through the VP sibling list).
  std::map<std::string, Asn> org_to_asn;
  for (const auto& rec : data.as_orgs) {
    auto [it, inserted] = org_to_asn.emplace(rec.org_id, rec.asn);
    if (!inserted && rec.asn < it->second) it->second = rec.asn;
  }
  for (const auto& d : data.delegations) {
    const auto it = org_to_asn.find(d.org_id);
    if (it == org_to_asn.end()) continue;
    delegation_map_.insert(d.prefix, it->second);
    if (d.prefix.length() >= 30) infra_map_.insert(d.prefix, true);
  }
  for (const auto& p : data.ixp_participants) participant_asn_[p.lan_ip] = p.asn;
}

Asn Bdrmap::resolve_owner(net::Ipv4Address a) const {
  if (const Asn* asn = origin_map_.lookup(a)) return *asn;
  if (const Asn* asn = delegation_map_.lookup(a)) return *asn;
  return 0;
}

bool Bdrmap::is_vp_network(Asn asn) const {
  if (asn == vp_asn_) return true;
  return std::binary_search(data_->vp_siblings.begin(), data_->vp_siblings.end(), asn);
}

void Bdrmap::process_trace(const std::vector<prober::TraceHop>& hops, Asn target_origin,
                           BdrmapResult& out) {
  // Classify every hop: owner ASN (0 = unknown) and IXP LAN membership.
  struct HopInfo {
    net::Ipv4Address addr;
    Asn owner = 0;
    bool lan = false;
    bool infra = false;  ///< inside an assigned point-to-point delegation
  };
  std::vector<HopInfo> info;
  info.reserve(hops.size());
  for (const auto& h : hops) {
    HopInfo hi;
    hi.addr = h.addr;
    if (!h.addr.is_unspecified()) {
      if (data_->ixp_for(h.addr) != nullptr) {
        hi.lan = true;
      } else {
        hi.owner = resolve_owner(h.addr);
        // Infrastructure test: covered by a /30 or /31 delegation record.
        hi.infra = infra_map_.lookup(h.addr) != nullptr;
      }
    }
    info.push_back(hi);
  }

  // First known owner at or after index k that is neither the VP network
  // nor an IXP LAN; falls back to the traced prefix's origin AS.
  auto owner_beyond = [&](std::size_t k) -> Asn {
    for (std::size_t j = k; j < info.size(); ++j) {
      if (info[j].owner != 0 && !is_vp_network(info[j].owner) && !info[j].lan) {
        return info[j].owner;
      }
    }
    return target_origin;
  };

  for (std::size_t j = 1; j < info.size(); ++j) {
    const HopInfo& prev = info[j - 1];
    const HopInfo& cur = info[j];
    if (cur.addr.is_unspecified()) continue;
    // The border must depart from a hop inside the VP network.
    const bool prev_in_vp = prev.owner != 0 && is_vp_network(prev.owner);
    if (!prev_in_vp) continue;

    Asn far_asn = 0;
    if (cur.lan) {
      // Rule (a): IXP peering LAN address -- PCH's participant mapping
      // names the member directly; otherwise the far router belongs to the
      // network the path enters next.
      const auto pit = participant_asn_.find(cur.addr);
      far_asn = pit != participant_asn_.end() ? pit->second : owner_beyond(j + 1);
    } else if (cur.owner != 0 && !is_vp_network(cur.owner)) {
      // Rule (b): address resolves to a foreign AS.
      far_asn = cur.owner;
    } else if (cur.owner != 0 && is_vp_network(cur.owner) && cur.infra) {
      // Rule (c): interdomain link numbered from the VP's space; the far
      // interface answers with a VP-delegated /30 address but the path
      // continues into a foreign network.
      const Asn beyond = owner_beyond(j + 1);
      if (beyond != 0 && !is_vp_network(beyond)) far_asn = beyond;
    }
    if (far_asn == 0 || is_vp_network(far_asn)) continue;

    InferredLink link;
    link.near_ip = prev.addr;
    link.far_ip = cur.addr;
    link.far_asn = far_asn;
    if (const auto* ixp = data_->ixp_for(cur.addr)) {
      link.at_ixp = true;
      link.ixp_name = ixp->name;
    } else if (const auto* ixp2 = data_->ixp_for(prev.addr)) {
      link.at_ixp = true;
      link.ixp_name = ixp2->name;
    }
    // Deduplicate on (near, far).
    const bool dup = std::any_of(out.links.begin(), out.links.end(), [&](const InferredLink& l) {
      return l.near_ip == link.near_ip && l.far_ip == link.far_ip;
    });
    if (!dup) out.links.push_back(link);
    out.neighbors.insert(far_asn);
    ++out.traces_with_border;
    break;  // only the first border on the path belongs to the VP network
  }
}

BdrmapResult Bdrmap::run() {
  BdrmapResult out;

  // Relationship inference feeding the peer/transit split.
  routing::AsRank asrank;
  for (const auto& p : data_->bgp_paths) asrank.add_path(p);
  asrank.infer();

  // Trace toward every routed prefix not originated by the VP network.
  // The doubletree stop set only suppresses hops beyond the first two --
  // the border always lies within the first hops from the VP, and those
  // are probed fresh every time.
  std::set<net::Ipv4Address> stop_set;
  for (const auto& [prefix, origin] : data_->prefix_origins) {
    if (is_vp_network(origin)) continue;
    const net::Ipv4Address target = prefix.at(1);
    const auto hops =
        opts_.doubletree
            ? prober_->traceroute_doubletree(target, stop_set, kMaxTtl, kAttempts)
            : prober_->traceroute(target, kMaxTtl, kAttempts);
    ++out.traces_run;
    process_trace(hops, origin, out);
  }

  // Sweep every address in the IXP peering LANs for silent adjacencies
  // (members that announce little): bdrmap probes a target list dense
  // enough to see all LAN adjacencies, and this models that.
  for (const auto& e : data_->ixp_directory) {
    for (std::uint64_t i = 1; i + 1 < e.peering_prefix.size(); ++i) {
      const net::Ipv4Address a = e.peering_prefix.at(i);
      const auto r = prober_->probe(a);
      if (!r.answered) continue;
      const auto hops = prober_->traceroute(a, 8, 1);
      ++out.traces_run;
      process_trace(hops, 0, out);
    }
  }

  // Alias resolution: group the far addresses into routers.
  if (opts_.resolve_aliases) {
    std::vector<net::Ipv4Address> far;
    far.reserve(out.links.size());
    for (const auto& l : out.links) far.push_back(l.far_ip);
    AliasResolver resolver(*prober_);
    out.aliases = resolver.resolve(far);
    out.inferred_routers = out.aliases.sets().size();
  }

  // Peer/transit classification per neighbor.
  for (const auto& l : out.links) {
    const auto rel = asrank.relationship(vp_asn_, l.far_asn);
    const bool provider = rel == routing::InferredRel::kCustomerToProvider;
    if (!provider && l.at_ixp) out.peers.insert(l.far_asn);
    if (rel == routing::InferredRel::kPeerToPeer) out.peers.insert(l.far_asn);
  }
  // Mark per-link peer flag.
  for (auto& l : out.links) l.far_is_peer = out.peers.count(l.far_asn) > 0;
  return out;
}

BdrmapScore score(const BdrmapResult& result,
                  const std::vector<topo::InterdomainLinkTruth>& truth) {
  BdrmapScore s;
  std::set<Asn> true_neighbors;
  std::set<net::Ipv4Address> true_far_ips;
  for (const auto& t : truth) {
    true_neighbors.insert(t.far_asn);
    true_far_ips.insert(t.far_ip);
  }
  s.true_neighbors = true_neighbors.size();
  s.true_links = true_far_ips.size();
  for (const Asn n : result.neighbors) {
    if (true_neighbors.count(n)) {
      ++s.found_neighbors;
    } else {
      ++s.false_neighbors;
    }
  }
  std::set<net::Ipv4Address> seen;
  for (const auto& l : result.links) {
    if (true_far_ips.count(l.far_ip) && seen.insert(l.far_ip).second) ++s.found_links;
  }
  return s;
}

}  // namespace ixp::bdrmap
