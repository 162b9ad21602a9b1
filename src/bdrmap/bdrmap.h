// bdrmap-lite: inference of the borders between the VP's network and its
// neighbors, from traceroutes plus public registry data only.
//
// Mirrors the structure of CAIDA's bdrmap [29]:
//   1. gather routing/addressing data (prefix->AS from BGP dumps, RIR
//      delegations, IXP prefixes, AS-org/sibling lists) -- registry module;
//   2. trace from the VP toward every routed prefix;
//   3. resolve aliases and assemble constraints (address ownership,
//      /30 point-to-point mates, IXP LAN membership);
//   4. run ownership heuristics to place the border and emit interdomain
//      links, neighbor and peer sets.
//
// The inference never touches the simulator's ground truth; score() compares
// its output against the truth afterwards (the paper's "96.2 % of neighbors
// discovered" check).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bdrmap/alias.h"
#include "prober/prober.h"
#include "registry/registry.h"
#include "routing/asrank.h"

namespace ixp::bdrmap {

using topo::Asn;

/// An inferred interdomain link of the VP network.
struct InferredLink {
  net::Ipv4Address near_ip;   ///< last VP-side hop (or /30 mate)
  net::Ipv4Address far_ip;    ///< first hop beyond the border
  Asn far_asn = 0;
  bool at_ixp = false;
  std::string ixp_name;
  bool far_is_peer = false;   ///< relationship heuristic says peer (vs transit)
};

struct BdrmapResult {
  std::vector<InferredLink> links;
  std::set<Asn> neighbors;          ///< ASes adjacent to the VP network
  std::set<Asn> peers;              ///< subset inferred as settlement-free peers
  AliasSets aliases;                ///< router groups (when resolve_aliases)
  std::size_t inferred_routers = 0; ///< alias sets among far addresses
  std::size_t traces_run = 0;
  std::size_t traces_with_border = 0;

  [[nodiscard]] std::size_t link_count() const { return links.size(); }
  [[nodiscard]] std::size_t peering_link_count() const {
    std::size_t n = 0;
    for (const auto& l : links) n += l.at_ixp ? 1 : 0;
    return n;
  }
};

struct BdrmapOptions {
  /// Run Ally-style alias resolution over the far addresses to group them
  /// into routers (bdrmap's router-ownership stage).  Costs O(pairs)
  /// probes, so campaigns leave it off and run it at snapshots only.
  bool resolve_aliases = false;
  /// Use doubletree-style stop sets for the prefix sweep (scamper's probing
  /// optimization): traces stop once they re-enter previously explored
  /// path; cuts probe cost several-fold on transit-heavy VPs.
  bool doubletree = true;
};

class Bdrmap {
 public:
  /// `data` is the public-registry bundle; `vp_asn` the hosting network.
  Bdrmap(prober::Prober& prober, const registry::PublicData& data, Asn vp_asn,
         BdrmapOptions opts = {});

  /// Runs the full border-mapping process.
  BdrmapResult run();

  /// Address ownership per public data (longest-prefix origin, then
  /// delegations); 0 when unknown.  IXP LAN addresses return 0 with
  /// `at_ixp` knowledge available via data().ixp_for().
  [[nodiscard]] Asn resolve_owner(net::Ipv4Address a) const;

  /// True if `asn` is the VP's AS or one of its listed siblings.
  [[nodiscard]] bool is_vp_network(Asn asn) const;

  [[nodiscard]] const registry::PublicData& data() const { return *data_; }

 private:
  void process_trace(const std::vector<prober::TraceHop>& hops, Asn target_origin,
                     BdrmapResult& out);

  prober::Prober* prober_;
  const registry::PublicData* data_;
  Asn vp_asn_;
  BdrmapOptions opts_;
  net::PrefixMap<Asn> origin_map_;
  net::PrefixMap<Asn> delegation_map_;
  net::PrefixMap<bool> infra_map_;
  std::map<net::Ipv4Address, Asn> participant_asn_;
};

/// Accuracy of a bdrmap run against simulator ground truth.
struct BdrmapScore {
  std::size_t true_neighbors = 0;
  std::size_t found_neighbors = 0;     ///< true neighbors we discovered
  std::size_t false_neighbors = 0;     ///< inferred neighbors that are wrong
  std::size_t true_links = 0;
  std::size_t found_links = 0;         ///< matched on far_ip
  double neighbor_recall() const {
    return true_neighbors ? static_cast<double>(found_neighbors) / true_neighbors : 1.0;
  }
  double link_recall() const {
    return true_links ? static_cast<double>(found_links) / true_links : 1.0;
  }
};

BdrmapScore score(const BdrmapResult& result,
                  const std::vector<topo::InterdomainLinkTruth>& truth);

}  // namespace ixp::bdrmap
