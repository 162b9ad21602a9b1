#include <gtest/gtest.h>

#include "analysis/scenario.h"
#include "bdrmap/bdrmap.h"
#include "registry/registry.h"

namespace ixp::bdrmap {
namespace {

using analysis::NeighborSpec;
using analysis::VpSpec;

VpSpec spec_with(int lan_members, int ptp_members) {
  VpSpec s;
  s.vp_name = "TEST";
  s.ixp.name = "TESTX";
  s.ixp.country = "GH";
  s.ixp.city = "Accra";
  s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  s.vp_asn = 30997;
  s.vp_as_name = "GIXA";
  s.vp_org = "ORG-GIXA";
  s.country = "GH";
  s.seed = 11;
  for (int i = 0; i < lan_members; ++i) {
    NeighborSpec n;
    n.name = "LANM" + std::to_string(i);
    n.asn = 65001 + static_cast<topo::Asn>(i);
    n.country = "GH";
    s.neighbors.push_back(n);
  }
  for (int i = 0; i < ptp_members; ++i) {
    NeighborSpec n;
    n.name = "PTPM" + std::to_string(i);
    n.asn = 65101 + static_cast<topo::Asn>(i);
    n.country = "GH";
    n.lan_routers = 0;
    n.ptp_links = 1;
    n.rel = NeighborSpec::Rel::kCustomerOfVp;
    s.neighbors.push_back(n);
  }
  return s;
}

struct BdrmapWorld {
  std::unique_ptr<analysis::ScenarioRuntime> rt;
  std::unique_ptr<prober::Prober> prober;
  registry::PublicData data;

  explicit BdrmapWorld(const VpSpec& spec) {
    rt = analysis::build_scenario(spec);
    prober = std::make_unique<prober::Prober>(rt->topology.net(), rt->vp_host, 0.0);
    data = registry::harvest(rt->topology, *rt->bgp, rt->vp_asn, rt->collectors);
  }
};

TEST(Bdrmap, DiscoversLanNeighbors) {
  BdrmapWorld w(spec_with(4, 0));
  Bdrmap mapper(*w.prober, w.data, 30997);
  const auto result = mapper.run();
  // 4 members + the regional transit + the tier-1 beyond it are candidate
  // neighbors; at minimum every LAN member must be found.
  for (topo::Asn asn : {65001u, 65002u, 65003u, 65004u}) {
    EXPECT_TRUE(result.neighbors.count(asn)) << "missing AS" << asn;
  }
  EXPECT_GE(result.peering_link_count(), 4u);
}

TEST(Bdrmap, DiscoversPtpNeighborsViaInfraDelegations) {
  BdrmapWorld w(spec_with(1, 3));
  Bdrmap mapper(*w.prober, w.data, 30997);
  const auto result = mapper.run();
  for (topo::Asn asn : {65101u, 65102u, 65103u}) {
    EXPECT_TRUE(result.neighbors.count(asn)) << "missing AS" << asn;
  }
}

TEST(Bdrmap, LanLinksMarkedAtIxp) {
  BdrmapWorld w(spec_with(3, 1));
  Bdrmap mapper(*w.prober, w.data, 30997);
  const auto result = mapper.run();
  int lan_links = 0, ptp_links = 0;
  for (const auto& l : result.links) {
    if (l.at_ixp) {
      ++lan_links;
      EXPECT_EQ(l.ixp_name, "TESTX");
    } else if (l.far_asn >= 65101 && l.far_asn <= 65199) {
      ++ptp_links;
    }
  }
  EXPECT_GE(lan_links, 3);
  EXPECT_GE(ptp_links, 1);
}

TEST(Bdrmap, ScoreAgainstGroundTruth) {
  BdrmapWorld w(spec_with(5, 2));
  Bdrmap mapper(*w.prober, w.data, 30997);
  const auto result = mapper.run();
  const auto truth = w.rt->topology.interdomain_links_of(30997);
  const auto s = score(result, truth);
  // The paper reports 96.2 % of neighbors discovered; our synthetic world
  // is fully probeable, so we demand at least that.
  EXPECT_GE(s.neighbor_recall(), 0.96);
  EXPECT_GE(s.link_recall(), 0.9);
}

TEST(Bdrmap, PeersAreLanMembersNotTransit) {
  BdrmapWorld w(spec_with(3, 2));
  Bdrmap mapper(*w.prober, w.data, 30997);
  const auto result = mapper.run();
  for (topo::Asn asn : {65001u, 65002u, 65003u}) {
    EXPECT_TRUE(result.peers.count(asn)) << "LAN member AS" << asn << " should be a peer";
  }
  // ptp customers are not peers.
  EXPECT_FALSE(result.peers.count(65101u));
  EXPECT_FALSE(result.peers.count(65102u));
}

TEST(Bdrmap, ResolveOwnerUsesOriginsThenDelegations) {
  BdrmapWorld w(spec_with(1, 1));
  Bdrmap mapper(*w.prober, w.data, 30997);
  // A LAN member's prefix address resolves via BGP origins.
  bool found_origin = false;
  for (const auto& [prefix, asn] : w.data.prefix_origins) {
    if (asn == 65001) {
      EXPECT_EQ(mapper.resolve_owner(prefix.at(10)), 65001u);
      found_origin = true;
    }
  }
  EXPECT_TRUE(found_origin);
}

TEST(Bdrmap, SiblingsCountAsVpNetwork) {
  auto spec = spec_with(1, 0);
  BdrmapWorld w(spec);
  // Inject a fake sibling into the public data.
  w.data.vp_siblings = {31000};
  Bdrmap mapper(*w.prober, w.data, 30997);
  EXPECT_TRUE(mapper.is_vp_network(30997));
  EXPECT_TRUE(mapper.is_vp_network(31000));
  EXPECT_FALSE(mapper.is_vp_network(65001));
}

TEST(Bdrmap, DownMemberNotDiscovered) {
  auto spec = spec_with(3, 0);
  spec.neighbors[1].join = analysis::kForever;  // never joins
  BdrmapWorld w(spec);
  Bdrmap mapper(*w.prober, w.data, 30997);
  const auto result = mapper.run();
  EXPECT_TRUE(result.neighbors.count(65001u));
  EXPECT_FALSE(result.neighbors.count(65002u));
  EXPECT_TRUE(result.neighbors.count(65003u));
}

}  // namespace
}  // namespace ixp::bdrmap
