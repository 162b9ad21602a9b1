#include "geo/geo.h"

#include <algorithm>

#include "util/strings.h"

namespace ixp::geo {

void GeoDatabase::add(const net::Ipv4Prefix& prefix, Location loc) {
  map_.insert(prefix, std::move(loc));
}

std::optional<Location> GeoDatabase::lookup(net::Ipv4Address a) const {
  const Location* loc = map_.lookup(a);
  if (!loc) return std::nullopt;
  return *loc;
}

namespace {
// Capital-city table for the countries in our scenarios.
const std::unordered_map<std::string, std::string>& capitals() {
  static const std::unordered_map<std::string, std::string> kCapitals = {
      {"GH", "Accra"},        {"TZ", "Dar es Salaam"}, {"ZA", "Johannesburg"},
      {"GM", "Serekunda"},    {"KE", "Nairobi"},       {"RW", "Kigali"},
      {"NG", "Lagos"},        {"US", "Ashburn"},       {"GB", "London"},
      {"FR", "Paris"},        {"ZZ", "Unknown"},
  };
  return kCapitals;
}
}  // namespace

GeoDatabase build_geo_database(const topo::Topology& topology) {
  GeoDatabase db;
  for (const auto& [asn, info] : topology.ases()) {
    (void)asn;
    const auto it = capitals().find(info.country);
    const std::string city = it == capitals().end() ? "Unknown" : it->second;
    for (const auto& p : info.prefixes) db.add(p, {city, info.country});
  }
  for (const auto& [prefix, asn] : topology.infra_delegations()) {
    const topo::AsInfo* info = topology.find_as(asn);
    const std::string country = info ? info->country : "ZZ";
    const auto it = capitals().find(country);
    db.add(prefix, {it == capitals().end() ? "Unknown" : it->second, country});
  }
  for (const auto& [name, ixp] : topology.ixps()) {
    (void)name;
    db.add(ixp.peering_prefix, {ixp.city, ixp.country});
    db.add(ixp.management_prefix, {ixp.city, ixp.country});
  }
  return db;
}

const std::vector<std::pair<std::string, std::string>>& city_tokens() {
  static const std::vector<std::pair<std::string, std::string>> kTokens = {
      {"Accra", "acc"},     {"Dar es Salaam", "dar"}, {"Johannesburg", "jnb"},
      {"Serekunda", "bjl"}, {"Nairobi", "nbo"},       {"Kigali", "kgl"},
      {"Lagos", "los"},     {"London", "lhr"},        {"Paris", "cdg"},
      {"Ashburn", "iad"},
  };
  return kTokens;
}

std::string make_rdns_name(net::Ipv4Address addr, topo::Asn asn, const std::string& city) {
  std::string token = "xxx";
  for (const auto& [c, t] : city_tokens()) {
    if (c == city) {
      token = t;
      break;
    }
  }
  // Interface index octets keep names unique, as real operators do.
  const std::uint32_t v = addr.value();
  return strformat("ge-%u-%u-%u.%s.as%u.afr.net", (v >> 16) & 0xff, (v >> 8) & 0xff, v & 0xff,
                   token.c_str(), asn);
}

std::optional<std::string> parse_rdns_city(const std::string& rdns) {
  const auto labels = split(to_lower(rdns), '.');
  for (const auto& label : labels) {
    for (const auto& [city, token] : city_tokens()) {
      if (label == token) return city;
    }
  }
  return std::nullopt;
}

}  // namespace ixp::geo
