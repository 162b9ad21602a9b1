// Internet-registry data substrate.
//
// bdrmap's inputs are the datasets published by the registries and
// databases the paper lists: RIR delegation files, the PeeringDB/PCH IXP
// prefix directory, CAIDA's AS-to-organisation mapping, and a per-VP
// sibling list.  harvest() builds those records in memory from the
// simulated topology (exactly the information a registry would hold), and
// bdrmap-lite reads only that PublicData bundle, never the topology
// object, preserving the paper's inference-from-public-data structure.
#pragma once

#include <string>
#include <vector>

#include "net/prefix_map.h"
#include "routing/bgp.h"
#include "topo/topology.h"

namespace ixp::registry {

using topo::Asn;

// Each record keeps the columns of its dataset that bdrmap-lite reads.

/// One line of an RIR extended delegation file.
struct DelegationRecord {
  net::Ipv4Prefix prefix;
  std::string org_id;
};

/// One IXP directory entry (PeeringDB/PCH style).
struct IxpDirectoryEntry {
  std::string name;
  net::Ipv4Prefix peering_prefix;
  net::Ipv4Prefix management_prefix;
};

/// One line of PCH's LAN-address-to-ASN mapping for an IXP.
struct IxpParticipant {
  net::Ipv4Address lan_ip;
  Asn asn = 0;
};

/// AS-to-organisation record.
struct AsOrgRecord {
  Asn asn = 0;
  std::string org_id;
};

/// The bundle of public datasets a bdrmap run consumes.
struct PublicData {
  std::vector<DelegationRecord> delegations;
  std::vector<IxpDirectoryEntry> ixp_directory;
  std::vector<AsOrgRecord> as_orgs;
  /// prefix -> origin ASN, built from BGP dumps (RouteViews/RIS role).
  std::vector<std::pair<net::Ipv4Prefix, Asn>> prefix_origins;
  /// Sibling ASes of the VP's AS (semi-manual list in the paper).
  std::vector<Asn> vp_siblings;
  /// Raw AS paths from the collectors (AS-rank-lite input).
  std::vector<std::vector<Asn>> bgp_paths;
  /// PCH-style (LAN address, ASN) participant records.
  std::vector<IxpParticipant> ixp_participants;

  /// Longest-prefix-match view over prefix_origins.
  [[nodiscard]] net::PrefixMap<Asn> origin_map() const;
  /// True if the address is inside any IXP peering/management prefix.
  [[nodiscard]] const IxpDirectoryEntry* ixp_for(net::Ipv4Address a) const;
};

/// Builds every public dataset from the topology and a BGP view.
PublicData harvest(const topo::Topology& topology, const routing::Bgp& bgp, Asn vp_asn,
                   const std::vector<Asn>& collectors);

}  // namespace ixp::registry
