#include "bdrmap/alias.h"

#include <algorithm>

namespace ixp::bdrmap {

// ---------------------------------------------------------------------------
// AliasSets

void AliasSets::add(net::Ipv4Address a) {
  parent_.emplace(a, a);
}

net::Ipv4Address AliasSets::root(net::Ipv4Address a) const {
  auto it = parent_.find(a);
  if (it == parent_.end()) return a;
  // Path compression over the value map.
  net::Ipv4Address r = a;
  while (parent_.at(r) != r) r = parent_.at(r);
  while (parent_.at(a) != r) {
    const net::Ipv4Address next = parent_.at(a);
    parent_[a] = r;
    a = next;
  }
  return r;
}

void AliasSets::merge(net::Ipv4Address a, net::Ipv4Address b) {
  add(a);
  add(b);
  const net::Ipv4Address ra = root(a);
  const net::Ipv4Address rb = root(b);
  if (ra != rb) parent_[std::max(ra, rb)] = std::min(ra, rb);
}

net::Ipv4Address AliasSets::find(net::Ipv4Address a) const { return root(a); }

bool AliasSets::same_router(net::Ipv4Address a, net::Ipv4Address b) const {
  if (!parent_.count(a) || !parent_.count(b)) return false;
  return root(a) == root(b);
}

std::vector<std::vector<net::Ipv4Address>> AliasSets::sets() const {
  std::map<net::Ipv4Address, std::vector<net::Ipv4Address>> by_root;
  for (const auto& [addr, _] : parent_) by_root[root(addr)].push_back(addr);
  std::vector<std::vector<net::Ipv4Address>> out;
  out.reserve(by_root.size());
  for (auto& [_, members] : by_root) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  return out;
}

// ---------------------------------------------------------------------------
// AliasResolver

namespace {

constexpr int kProbesPerPair = 4;        ///< interleaved probe rounds
constexpr std::uint32_t kMaxIdGap = 16;  ///< IDs further apart than this reject the pair

}  // namespace

AliasResolver::AliasResolver(prober::Prober& prober) : prober_(&prober) {}

bool AliasResolver::ally(net::Ipv4Address a, net::Ipv4Address b) {
  ++pairs_tested_;
  std::vector<std::uint16_t> ids;
  ids.reserve(static_cast<std::size_t>(kProbesPerPair) * 2);
  for (int round = 0; round < kProbesPerPair; ++round) {
    for (const net::Ipv4Address dst : {a, b}) {
      const auto r = prober_->probe(dst);
      if (!r.answered || r.responder != dst) return false;
      ids.push_back(r.ip_id);
    }
  }
  // One shared counter produces a strictly increasing, tightly spaced ID
  // sequence across the interleaved probes (allowing 16-bit wraparound).
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const std::uint16_t gap = static_cast<std::uint16_t>(ids[i] - ids[i - 1]);
    if (gap == 0 || gap > kMaxIdGap) return false;
  }
  return true;
}

AliasSets AliasResolver::resolve(const std::vector<net::Ipv4Address>& addrs) {
  AliasSets sets;
  for (const auto a : addrs) sets.add(a);

  for (std::size_t i = 0; i < addrs.size(); ++i) {
    for (std::size_t j = i + 1; j < addrs.size(); ++j) {
      if (pairs_tested_ >= kMaxAliasPairs) return sets;
      // /30 mates face each other across a link: never aliases, skip.
      const auto mate = ptp_mate(addrs[i]);
      if (mate && *mate == addrs[j]) continue;
      if (sets.same_router(addrs[i], addrs[j])) continue;  // already merged
      if (ally(addrs[i], addrs[j])) sets.merge(addrs[i], addrs[j]);
    }
  }
  return sets;
}

std::optional<net::Ipv4Address> ptp_mate(net::Ipv4Address a) {
  const std::uint32_t v = a.value();
  switch (v & 3u) {
    case 1: return net::Ipv4Address(v + 1);  // .1 <-> .2 inside a /30
    case 2: return net::Ipv4Address(v - 1);
    default: return std::nullopt;            // network / broadcast position
  }
}

}  // namespace ixp::bdrmap
