#include <gtest/gtest.h>

#include "geo/geo.h"

namespace ixp::geo {
namespace {

void fill_topology(topo::Topology& tp) {
  topo::IxpInfo ixp;
  ixp.name = "GIXA";
  ixp.country = "GH";
  ixp.city = "Accra";
  ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  tp.add_ixp(ixp);
  auto& as1 = tp.add_as({30997, "GIXA", "ORG-GIXA", "GH", topo::AsType::kIxpContent, {}});
  (void)as1;
  const auto r = tp.add_router(30997, "border");
  tp.announce(30997, *net::Ipv4Prefix::parse("41.0.0.0/22"), r);
}

TEST(Geo, DatabaseLookupByPrefix) {
  topo::Topology tp;
  fill_topology(tp);
  const auto db = build_geo_database(tp);
  const auto loc = db.lookup(net::Ipv4Address(41, 0, 1, 5));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->country, "GH");
  EXPECT_EQ(loc->city, "Accra");
}

TEST(Geo, IxpPrefixMapsToIxpCity) {
  topo::Topology tp;
  fill_topology(tp);
  const auto db = build_geo_database(tp);
  const auto loc = db.lookup(net::Ipv4Address(196, 49, 0, 9));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->city, "Accra");
}

TEST(Geo, UnknownAddressHasNoLocation) {
  topo::Topology tp;
  fill_topology(tp);
  const auto db = build_geo_database(tp);
  EXPECT_FALSE(db.lookup(net::Ipv4Address(8, 8, 8, 8)).has_value());
}

TEST(Geo, RdnsRoundTrip) {
  const std::string name = make_rdns_name(net::Ipv4Address(196, 49, 0, 7), 30997, "Accra");
  EXPECT_NE(name.find("acc"), std::string::npos);
  const auto city = parse_rdns_city(name);
  ASSERT_TRUE(city.has_value());
  EXPECT_EQ(*city, "Accra");
}

TEST(Geo, RdnsUnknownCityToken) {
  EXPECT_FALSE(parse_rdns_city("core1.nowhere.example.net").has_value());
}

TEST(Geo, RdnsCaseInsensitive) {
  const auto city = parse_rdns_city("GE-0-0-1.NBO.AS30844.AFR.NET");
  ASSERT_TRUE(city.has_value());
  EXPECT_EQ(*city, "Nairobi");
}

}  // namespace
}  // namespace ixp::geo
