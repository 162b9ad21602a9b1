#include "registry/registry.h"

#include <algorithm>
#include <set>

#include "routing/bgp.h"
#include "util/strings.h"

namespace ixp::registry {

net::PrefixMap<Asn> PublicData::origin_map() const {
  net::PrefixMap<Asn> m;
  for (const auto& [prefix, asn] : prefix_origins) m.insert(prefix, asn);
  return m;
}

const IxpDirectoryEntry* PublicData::ixp_for(net::Ipv4Address a) const {
  for (const auto& e : ixp_directory) {
    if (e.peering_prefix.contains(a) || e.management_prefix.contains(a)) return &e;
  }
  return nullptr;
}

PublicData harvest(const topo::Topology& topology, const routing::Bgp& bgp, Asn vp_asn,
                   const std::vector<Asn>& collectors) {
  PublicData out;

  for (const auto& [asn, info] : topology.ases()) {
    const std::string org = info.org.empty() ? ("ORG-AS" + strformat("%u", asn)) : info.org;
    out.as_orgs.push_back({asn, org});
    for (const auto& p : info.prefixes) out.delegations.push_back({p, org});
  }
  std::sort(out.as_orgs.begin(), out.as_orgs.end(),
            [](const AsOrgRecord& a, const AsOrgRecord& b) { return a.asn < b.asn; });

  // Infrastructure (point-to-point) delegations.
  for (const auto& [prefix, asn] : topology.infra_delegations()) {
    const topo::AsInfo* info = topology.find_as(asn);
    const std::string org = info && !info->org.empty() ? info->org : ("ORG-AS" + strformat("%u", asn));
    out.delegations.push_back({prefix, org});
  }

  // IXP directory (PeeringDB/PCH role) and participant mappings.
  for (const auto& [name, info] : topology.ixps()) {
    out.ixp_directory.push_back({info.name, info.peering_prefix, info.management_prefix});
    for (const auto& [addr, asn] : topology.lan_participants(name)) {
      out.ixp_participants.push_back({addr, asn});
    }
  }

  // Prefix origins: union of RIB dumps from each collector.
  std::set<std::pair<net::Ipv4Prefix, Asn>> origins;
  for (const Asn c : collectors) {
    for (const auto& e : bgp.rib_dump(c)) {
      if (e.as_path.empty()) continue;
      origins.insert({e.prefix, e.as_path.back()});
      out.bgp_paths.push_back(e.as_path);
    }
  }
  out.prefix_origins.assign(origins.begin(), origins.end());

  // Sibling list: ASes sharing the VP AS's organisation.
  const topo::AsInfo* vp = topology.find_as(vp_asn);
  if (vp && !vp->org.empty()) {
    for (const auto& [asn, info] : topology.ases()) {
      if (asn != vp_asn && info.org == vp->org) out.vp_siblings.push_back(asn);
    }
  }
  std::sort(out.vp_siblings.begin(), out.vp_siblings.end());
  return out;
}

}  // namespace ixp::registry
