#include <gtest/gtest.h>

#include "registry/registry.h"

namespace ixp::registry {
namespace {

topo::IxpInfo test_ixp() {
  topo::IxpInfo i;
  i.name = "TESTX";
  i.country = "GH";
  i.city = "Accra";
  i.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  i.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  return i;
}

struct World {
  topo::Topology tp;
  sim::NodeId rv, rm, rt;

  World() {
    tp.add_ixp(test_ixp());
    tp.add_as({100, "VP", "ORG-VP", "GH", topo::AsType::kIxpContent, {}});
    tp.add_as({101, "VPSIB", "ORG-VP", "GH", topo::AsType::kIxpContent, {}});
    tp.add_as({200, "MEM", "ORG-MEM", "GH", topo::AsType::kAccessIsp, {}});
    tp.add_as({300, "TR", "ORG-TR", "GB", topo::AsType::kTransit, {}});
    rv = tp.add_router(100, "r");
    rm = tp.add_router(200, "r");
    rt = tp.add_router(300, "r");
    topo::PortConfig port;
    tp.attach_to_ixp(rv, "TESTX", port);
    tp.attach_to_ixp(rm, "TESTX", port);
    sim::LinkConfig cfg;
    tp.connect_routers(rt, rv, cfg);
    tp.add_as_relationship(100, 300, topo::Relationship::kCustomerToProvider);
    tp.add_as_relationship(200, 300, topo::Relationship::kCustomerToProvider);
    tp.add_as_relationship(200, 100, topo::Relationship::kPeerToPeer);
    tp.announce(100, *net::Ipv4Prefix::parse("41.0.0.0/22"), rv);
    tp.announce(200, *net::Ipv4Prefix::parse("41.0.4.0/22"), rm);
    tp.announce(300, *net::Ipv4Prefix::parse("41.0.8.0/22"), rt);
  }
};

TEST(Registry, HarvestCollectsEverything) {
  World w;
  routing::Bgp bgp(w.tp);
  bgp.compute();
  const auto data = harvest(w.tp, bgp, 100, {300});

  EXPECT_EQ(data.ixp_directory.size(), 1u);
  EXPECT_EQ(data.ixp_directory[0].name, "TESTX");
  EXPECT_EQ(data.ixp_participants.size(), 2u);
  EXPECT_EQ(data.prefix_origins.size(), 3u);
  EXPECT_FALSE(data.bgp_paths.empty());
  // The sibling list picks up the shared organisation.
  ASSERT_EQ(data.vp_siblings.size(), 1u);
  EXPECT_EQ(data.vp_siblings[0], 101u);
  // Delegations: three AS blocks plus the ptp /30.
  EXPECT_EQ(data.delegations.size(), 4u);
}

TEST(Registry, OriginMapResolves) {
  World w;
  routing::Bgp bgp(w.tp);
  bgp.compute();
  const auto data = harvest(w.tp, bgp, 100, {300});
  const auto origins = data.origin_map();
  const auto* asn = origins.lookup(net::Ipv4Address(41, 0, 5, 1));
  ASSERT_NE(asn, nullptr);
  EXPECT_EQ(*asn, 200u);
}

TEST(Registry, IxpForLooksUpLan) {
  World w;
  routing::Bgp bgp(w.tp);
  bgp.compute();
  const auto data = harvest(w.tp, bgp, 100, {300});
  EXPECT_NE(data.ixp_for(net::Ipv4Address(196, 49, 0, 1)), nullptr);
  EXPECT_EQ(data.ixp_for(net::Ipv4Address(41, 0, 0, 1)), nullptr);
}

}  // namespace
}  // namespace ixp::registry
