#include <gtest/gtest.h>

#include "net/ipv4.h"
#include "net/prefix_map.h"
#include "util/rng.h"

namespace ixp::net {
namespace {

// ---------------------------------------------------------------------------
// Ipv4Address

TEST(Ipv4Address, ParseAndFormatRoundTrip) {
  const auto a = Ipv4Address::parse("196.49.0.17");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "196.49.0.17");
  EXPECT_EQ(a->value(), (196u << 24) | (49u << 16) | 17u);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("196.49.0").has_value());
  EXPECT_FALSE(Ipv4Address::parse("196.49.0.256").has_value());
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
}

TEST(Ipv4Address, Ordering) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(Ipv4Address(1, 2, 3, 4), *Ipv4Address::parse("1.2.3.4"));
}

// ---------------------------------------------------------------------------
// Ipv4Prefix

TEST(Ipv4Prefix, NormalizesHostBits) {
  const Ipv4Prefix p(Ipv4Address(192, 168, 1, 200), 24);
  EXPECT_EQ(p.network().to_string(), "192.168.1.0");
}

TEST(Ipv4Prefix, Contains) {
  const auto p = Ipv4Prefix::parse("196.49.0.0/24");
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->contains(Ipv4Address(196, 49, 0, 1)));
  EXPECT_TRUE(p->contains(Ipv4Address(196, 49, 0, 255)));
  EXPECT_FALSE(p->contains(Ipv4Address(196, 49, 1, 0)));
}

TEST(Ipv4Prefix, ContainsPrefix) {
  const auto outer = Ipv4Prefix::parse("10.0.0.0/8");
  const auto inner = Ipv4Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(outer->contains(*inner));
  EXPECT_FALSE(inner->contains(*outer));
}

TEST(Ipv4Prefix, SizeAndAt) {
  const auto p = Ipv4Prefix::parse("154.64.0.4/30");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->size(), 4u);
  EXPECT_EQ(p->at(1).to_string(), "154.64.0.5");
  EXPECT_EQ(p->at(2).to_string(), "154.64.0.6");
}

TEST(Ipv4Prefix, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0/24").has_value());
}

TEST(Ipv4Prefix, ZeroLengthCoversEverything) {
  const Ipv4Prefix all(Ipv4Address(0), 0);
  EXPECT_TRUE(all.contains(Ipv4Address(255, 255, 255, 255)));
  EXPECT_TRUE(all.contains(Ipv4Address(0)));
}

// ---------------------------------------------------------------------------
// PrefixMap

TEST(PrefixMap, LongestPrefixWins) {
  PrefixMap<int> m;
  m.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 8);
  m.insert(*Ipv4Prefix::parse("10.1.0.0/16"), 16);
  m.insert(*Ipv4Prefix::parse("10.1.2.0/24"), 24);
  EXPECT_EQ(*m.lookup(Ipv4Address(10, 1, 2, 3)), 24);
  EXPECT_EQ(*m.lookup(Ipv4Address(10, 1, 9, 9)), 16);
  EXPECT_EQ(*m.lookup(Ipv4Address(10, 9, 9, 9)), 8);
  EXPECT_EQ(m.lookup(Ipv4Address(11, 0, 0, 1)), nullptr);
}

TEST(PrefixMap, DefaultRoute) {
  PrefixMap<int> m;
  m.insert(Ipv4Prefix(Ipv4Address(0), 0), -1);
  m.insert(*Ipv4Prefix::parse("41.0.0.0/8"), 41);
  EXPECT_EQ(*m.lookup(Ipv4Address(8, 8, 8, 8)), -1);
  EXPECT_EQ(*m.lookup(Ipv4Address(41, 1, 1, 1)), 41);
}

TEST(PrefixMap, InsertReplaces) {
  PrefixMap<int> m;
  m.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 1);
  m.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.lookup(Ipv4Address(10, 0, 0, 1)), 2);
}

TEST(PrefixMap, LookupExact) {
  PrefixMap<int> m;
  m.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 1);
  EXPECT_NE(m.lookup_exact(*Ipv4Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(m.lookup_exact(*Ipv4Prefix::parse("10.0.0.0/16")), nullptr);
}

TEST(PrefixMap, ForEachVisitsAll) {
  PrefixMap<int> m;
  m.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 1);
  m.insert(*Ipv4Prefix::parse("41.0.0.0/8"), 2);
  m.insert(*Ipv4Prefix::parse("196.49.0.0/24"), 3);
  int count = 0, sum = 0;
  m.for_each([&](const Ipv4Prefix&, const int& v) {
    ++count;
    sum += v;
  });
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sum, 6);
}

TEST(PrefixMap, RandomizedAgainstLinearReference) {
  // Property test: longest-prefix matching must agree with a brute-force
  // linear scan for random prefix sets and random lookups.
  ixp::Rng rng(4242);
  PrefixMap<int> m;
  std::vector<std::pair<Ipv4Prefix, int>> ref;
  for (int i = 0; i < 300; ++i) {
    const auto addr = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    const int len = static_cast<int>(rng.uniform_int(4, 30));
    const Ipv4Prefix p(addr, len);
    m.insert(p, i);
    // Linear reference keeps the latest value for duplicate prefixes.
    bool replaced = false;
    for (auto& [rp, rv] : ref) {
      if (rp == p) {
        rv = i;
        replaced = true;
      }
    }
    if (!replaced) ref.emplace_back(p, i);
  }
  for (int i = 0; i < 2000; ++i) {
    const auto a = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    const int* got = m.lookup(a);
    const std::pair<Ipv4Prefix, int>* best = nullptr;
    for (const auto& entry : ref) {
      if (!entry.first.contains(a)) continue;
      if (!best || entry.first.length() > best->first.length()) best = &entry;
    }
    if (best == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, best->second);
    }
  }
}

}  // namespace
}  // namespace ixp::net
