// Alias resolution: grouping interface addresses into routers.
//
// bdrmap [29] relies on alias resolution to reason about router ownership;
// we implement the two classic techniques it builds on:
//
//  * Ally-style IP-ID counter probing (Spring et al., Rocketfuel): most
//    routers stamp outgoing ICMP with a single shared, monotonically
//    increasing IP-ID counter.  Interleaved probes to two candidate
//    addresses that return interleaved, closely-spaced IDs come from the
//    same router.  Our simulated routers keep exactly such a counter.
//
//  * Common-subnet inference (APAR-style): the two ends of a /30 or /31
//    point-to-point subnet belong to *different* routers facing each
//    other, while multiple addresses inside one infrastructure subnet at
//    distance 0 of each other pair as mates.
//
// The resolver produces disjoint sets of addresses (inferred routers) and
// is scored against ground truth in the tests.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "prober/prober.h"

namespace ixp::bdrmap {

/// Ally pairs one resolve() may test.
inline constexpr std::size_t kMaxAliasPairs = 4096;

/// Union-find over addresses; the public result type of alias resolution.
class AliasSets {
 public:
  /// Declares that `a` and `b` are aliases (same router).
  void merge(net::Ipv4Address a, net::Ipv4Address b);
  /// Ensures `a` is represented (as its own router if never merged).
  void add(net::Ipv4Address a);
  /// Canonical representative of `a`'s set.
  [[nodiscard]] net::Ipv4Address find(net::Ipv4Address a) const;
  /// True if both addresses are known and inferred to be one router.
  [[nodiscard]] bool same_router(net::Ipv4Address a, net::Ipv4Address b) const;
  /// All sets with at least one member.
  [[nodiscard]] std::vector<std::vector<net::Ipv4Address>> sets() const;

 private:
  // Path-compressing find over a value map (addresses are sparse).
  net::Ipv4Address root(net::Ipv4Address a) const;
  mutable std::map<net::Ipv4Address, net::Ipv4Address> parent_;
};

class AliasResolver {
 public:
  explicit AliasResolver(prober::Prober& prober);

  /// Ally test for one candidate pair: probes a,b,a,b,... and accepts when
  /// the returned IP-ID sequence is interleaved and tight.  Unanswered
  /// probes or wild IDs reject the pair.
  [[nodiscard]] bool ally(net::Ipv4Address a, net::Ipv4Address b);

  /// Full resolution over a candidate address set: Ally across plausible
  /// pairs (bounded by kMaxAliasPairs to stay polite), then /30-mate
  /// separation (mates are never aliases).
  AliasSets resolve(const std::vector<net::Ipv4Address>& addrs);

  [[nodiscard]] std::uint64_t pairs_tested() const { return pairs_tested_; }

 private:
  prober::Prober* prober_;
  std::uint64_t pairs_tested_ = 0;
};

/// The /30 (or /31) mate of an address, if it lies in such a subnet within
/// the infrastructure pool; mates face each other across a link and are
/// therefore on different routers.
std::optional<net::Ipv4Address> ptp_mate(net::Ipv4Address a);

}  // namespace ixp::bdrmap
