// geo-lite: prefix-keyed geolocation plus reverse-DNS hints.
//
// The paper cross-checks that both IPs of each inferred IXP link geolocate
// to the IXP's city, using the commercial Netacuity database [12] plus
// hints embedded in reverse DNS names [19, 34].  We reproduce both sources:
// a prefix->location database generated from the topology's registry data,
// and rDNS names of the "ge-0-0-1.accra2.GIXA.net.gh" style whose tokens a
// parser maps back to cities/IATA codes.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/prefix_map.h"
#include "topo/topology.h"

namespace ixp::geo {

struct Location {
  std::string city;
  std::string country;  ///< ISO-ish code
};

/// Netacuity-like database: longest-prefix lookup to a location.
class GeoDatabase {
 public:
  void add(const net::Ipv4Prefix& prefix, Location loc);
  [[nodiscard]] std::optional<Location> lookup(net::Ipv4Address a) const;
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  net::PrefixMap<Location> map_;
};

/// Builds the database from topology registry data (AS blocks -> the AS's
/// country capital; IXP prefixes -> the IXP's city).
GeoDatabase build_geo_database(const topo::Topology& topology);

/// Known city -> IATA-like token table for African IXP cities.
const std::vector<std::pair<std::string, std::string>>& city_tokens();

/// Produces an rDNS name for a router interface, embedding the city hint:
/// e.g. "ge-0-0-1.acc.as30997.afr.net".
std::string make_rdns_name(net::Ipv4Address addr, topo::Asn asn, const std::string& city);

/// Extracts a city hint from an rDNS name; nullopt when no token matches.
std::optional<std::string> parse_rdns_city(const std::string& rdns);

}  // namespace ixp::geo
