#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

#include "analysis/africa.h"
#include "analysis/scenario.h"
#include "prober/prober.h"
#include "prober/tslp_driver.h"
#include "bdrmap/bdrmap.h"
#include "oracle/packet_engine.h"
#include "prober/warts_lite.h"
#include "registry/registry.h"
#include "util/rng.h"

namespace ixp::prober {
namespace {

using analysis::NeighborSpec;
using analysis::VpSpec;

// A small but complete world: a VP at one IXP with three members, built by
// the real scenario builder so routing and addressing are genuine.
VpSpec tiny_spec() {
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
  s.seed = 7;
  NeighborSpec a;
  a.name = "MEMA";
  a.asn = 65001;
  a.country = "GH";
  s.neighbors.push_back(a);
  NeighborSpec b;
  b.name = "MEMB";
  b.asn = 65002;
  b.country = "GH";
  b.ptp_links = 1;
  s.neighbors.push_back(b);
  return s;
}

struct ProberWorld {
  std::unique_ptr<analysis::ScenarioRuntime> rt;
  std::unique_ptr<Prober> prober;

  ProberWorld() {
    rt = analysis::build_scenario(tiny_spec());
    prober = std::make_unique<Prober>(rt->topology.net(), rt->vp_host, 100.0);
  }

  net::Ipv4Address member_lan(const std::string& /*name*/, topo::Asn asn) {
    for (const auto& t : rt->topology.interdomain_links_of(30997)) {
      if (t.far_asn == asn && t.at_ixp) return t.far_ip;
    }
    return {};
  }

  /// The packet oracle's twin of `walked`'s last Prober::probe: the same
  /// probe packet, moved as scheduled packets through this identically
  /// built world at the instant the prober sent it.
  sim::ProbeResult oracle_probe(const ProberWorld& walked, net::Ipv4Address dst,
                                const ProbeOptions& o) {
    sim::Network& net = rt->topology.net();
    net.simulator().advance_to(walked.rt->topology.net().simulator().now());
    net::Packet pkt;
    pkt.src = prober->source_address();
    pkt.dst = dst;
    pkt.ttl = o.ttl;
    pkt.record_route = o.record_route;
    pkt.size_bytes = o.size_bytes;
    return oracle::PacketEngine(net).probe(rt->vp_host, pkt);
  }
};

TEST(Prober, PingMemberLanAddress) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  ASSERT_FALSE(target.is_unspecified());
  const auto r = w.prober->probe(target);
  ASSERT_TRUE(r.answered);
  EXPECT_EQ(r.responder, target);
  EXPECT_EQ(r.reply_type, net::IcmpType::kEchoReply);
  EXPECT_GT(to_ms(r.rtt), 0.0);
  EXPECT_LT(to_ms(r.rtt), 10.0);
}

TEST(Prober, TracerouteReachesMember) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  const auto hops = w.prober->traceroute(target);
  ASSERT_GE(hops.size(), 2u);
  EXPECT_EQ(hops.back().addr, target);
  // Hop 1 is the VP border router's host-facing interface.
  EXPECT_FALSE(hops[0].addr.is_unspecified());
}

TEST(Prober, HopDistanceConsistentWithTraceroute) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  const auto d = w.prober->hop_distance(target);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 2);  // VP router then member router
}

TEST(Prober, TtlLimitedProbesHitNearAndFar) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  ProbeOptions near;
  near.ttl = 1;
  const auto rn = w.prober->probe(target, near);
  ASSERT_TRUE(rn.answered);
  EXPECT_EQ(rn.reply_type, net::IcmpType::kTimeExceeded);

  ProbeOptions far;
  far.ttl = 2;
  const auto rf = w.prober->probe(target, far);
  ASSERT_TRUE(rf.answered);
  EXPECT_EQ(rf.responder, target);
}

TEST(Prober, EventModeAgreesWithFastPath) {
  // Twin worlds: one probes through the Prober (walk plans), the other
  // moves the same probes as scheduled packets at the same instants.
  ProberWorld w;
  ProberWorld twin;
  const auto target = w.member_lan("MEMA", 65001);
  const auto fast = w.prober->probe(target);
  ASSERT_TRUE(fast.answered);
  EXPECT_EQ(oracle::mismatch(fast, twin.oracle_probe(w, target, {})), "");

  // A held plan, resolved once and replayed, lands where the scheduled
  // packets land, TTL-limited or not, with or without record-route.
  sim::WalkPlan plan;
  for (const std::uint8_t ttl : {1, 2, 64}) {
    for (const bool rr : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "ttl " << int(ttl) << " rr " << rr);
      ProbeOptions o;
      o.ttl = ttl;
      o.record_route = rr;
      const auto held = w.prober->probe(target, o, plan);
      ASSERT_TRUE(held.answered);
      EXPECT_EQ(oracle::mismatch(held, twin.oracle_probe(w, target, o)), "");
      const auto again = w.prober->probe(target, o, plan);
      EXPECT_EQ(oracle::mismatch(again, twin.oracle_probe(w, target, o)), "");
    }
  }
}

TEST(Prober, RecordRouteSymmetryOnCleanPath) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  const auto sym = w.prober->record_route_symmetric(target);
  ASSERT_TRUE(sym.has_value());
  EXPECT_TRUE(*sym);
}

TEST(Prober, RateLimiterSpacesProbes) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  const TimePoint before = w.rt->topology.net().simulator().now();
  for (int i = 0; i < 50; ++i) w.prober->probe(target);
  const TimePoint after = w.rt->topology.net().simulator().now();
  // 50 probes at 100 pps >= 0.49 s of simulated time.
  EXPECT_GE(to_sec(after - before), 0.49);
}

TEST(Prober, CountersTrack) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  const auto before = w.prober->probes_sent();
  w.prober->probe(target);
  EXPECT_EQ(w.prober->probes_sent(), before + 1);
  EXPECT_GE(w.prober->replies_received(), 1u);
}

// ---------------------------------------------------------------------------
// TSLP driver

TEST(TslpDriver, ProducesAlignedSeries) {
  ProberWorld w;
  const auto truth = w.rt->topology.interdomain_links_of(30997);
  std::vector<MonitorTarget> targets;
  for (const auto& t : truth) {
    targets.push_back({t.far_ip.to_string(), t.near_ip, t.far_ip, t.near_asn, t.far_asn, t.at_ixp});
  }
  ASSERT_GE(targets.size(), 2u);

  TslpConfig cfg;
  cfg.round_interval = kMinute * 5;
  TslpDriver driver(*w.prober, cfg);
  const TimePoint start = w.rt->topology.net().simulator().now();
  const auto series = driver.run(targets, start, start + kHour * 2);
  ASSERT_EQ(series.size(), targets.size());
  for (const auto& ls : series) {
    EXPECT_EQ(ls.far_rtt.ms.size(), 24u);  // 2 h at 5-minute rounds
    EXPECT_EQ(ls.near_rtt.ms.size(), 24u);
    EXPECT_LT(ls.far_rtt.loss_fraction(), 0.2);
  }
}

TEST(TslpDriver, PreRoundHookFires) {
  ProberWorld w;
  const auto truth = w.rt->topology.interdomain_links_of(30997);
  std::vector<MonitorTarget> targets = {
      {"x", truth[0].near_ip, truth[0].far_ip, truth[0].near_asn, truth[0].far_asn, true}};
  int called = 0;
  TslpConfig cfg;
  cfg.pre_round = [&](TimePoint) { ++called; };
  TslpDriver driver(*w.prober, cfg);
  const TimePoint start = w.rt->topology.net().simulator().now();
  driver.run(targets, start, start + kMinute * 50);
  EXPECT_EQ(called, 10);
}

TEST(TslpDriver, DeadTargetYieldsMissing) {
  ProberWorld w;
  std::vector<MonitorTarget> targets = {
      {"ghost", net::Ipv4Address(203, 0, 113, 1), net::Ipv4Address(203, 0, 113, 2), 30997, 64999,
       false}};
  TslpDriver driver(*w.prober, {});
  const TimePoint start = w.rt->topology.net().simulator().now();
  const auto series = driver.run(targets, start, start + kHour);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].far_rtt.loss_fraction(), 1.0);
}

TEST(TslpDriver, RouteChangeRelearnsOnTheRoundItLands) {
  // At round 10 the VP router starts sending MEMA's fabric address through
  // MEMB: the far probe now expires at MEMB, so that very round must
  // record a stale-path relearn, and the relearned TTL (3) must reach MEMA
  // again.  The near probe (TTL 2) then expires at MEMB instead of the VP
  // router, so the near-side drift check relearns every 12 rounds after.
  // The held far/near plans see the FIB change through the VP router's
  // route version; a plan that missed it would keep answering from MEMA
  // and never relearn.  The rounds and counts are the ones the per-hop
  // walk produced.
  ProberWorld w;
  const auto truth = w.rt->topology.interdomain_links_of(30997);
  std::vector<MonitorTarget> targets;
  net::Ipv4Address mema, memb, vp_fabric;
  for (const auto& t : truth) {
    targets.push_back({t.far_ip.to_string(), t.near_ip, t.far_ip, t.near_asn, t.far_asn, t.at_ixp});
    if (t.at_ixp && t.far_asn == 65001) mema = t.far_ip;
    if (t.at_ixp && t.far_asn == 65002) memb = t.far_ip;
    if (t.at_ixp) vp_fabric = t.near_ip;
  }
  ASSERT_FALSE(mema.is_unspecified() || memb.is_unspecified());
  auto& vp_router = static_cast<sim::Router&>(w.rt->topology.net().node(w.rt->vp_router));
  int fabric_if = -1;
  for (std::size_t i = 0; i < vp_router.interfaces().size(); ++i) {
    if (vp_router.interfaces()[i].addr == vp_fabric) fabric_if = static_cast<int>(i);
  }
  ASSERT_GE(fabric_if, 0);

  const TimePoint start = w.rt->topology.net().simulator().now();
  TslpConfig cfg;
  cfg.round_interval = kMinute * 5;
  cfg.pre_round = [&](TimePoint at) {
    if (at == start + cfg.round_interval * 10) {
      vp_router.add_route(*net::Ipv4Prefix::parse(mema.to_string() + "/32"), {fabric_if, memb});
    }
  };
  TslpDriver driver(*w.prober, cfg);
  const auto series = driver.run(targets, start, start + cfg.round_interval * 40);
  std::size_t detoured = targets.size();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i].far_ip == mema) detoured = i;
  }
  ASSERT_LT(detoured, targets.size());
  const auto& ls = series[detoured];
  EXPECT_EQ(ls.responder_changes, (std::vector<std::size_t>{10, 22, 34}));
  EXPECT_EQ(driver.stale_relearns(), 3u);
  EXPECT_EQ(driver.loss_relearns(), 0u);
  // The relearned TTL keeps the far side measured after the move.
  EXPECT_FALSE(std::isnan(ls.far_rtt.ms[11]));
  EXPECT_FALSE(std::isnan(ls.far_rtt.ms[39]));
  EXPECT_TRUE(std::isnan(ls.far_rtt.ms[10]));
}

TEST(TslpDriver, EventModeMatchesFastPathUnderCongestion) {
  // A congested member port: the fluid queue's delay must appear the same
  // whether the driver walks its probes or the rounds are replayed as
  // scheduled packets through the oracle.
  auto spec = tiny_spec();
  analysis::CongestionSpec c;
  c.a_w_ms = 16.0;
  c.dt_ud = kHour * 8;
  c.peak_hour = 1.0;  // congested right at campaign start
  c.overload = 1.08;  // mild: queue still fills, probe drops stay rare
  c.begin = TimePoint{};
  c.end = analysis::kForever;
  spec.neighbors[0].congestion = {c};
  spec.neighbors[0].port_capacity_bps = 100e6;
  const TimePoint start(kHour);
  const TimePoint end(kHour * 3);
  const Duration round = kMinute * 10;

  auto hot_target = [](const analysis::ScenarioRuntime& rt) {
    for (const auto& t : rt.topology.interdomain_links_of(30997)) {
      if (t.far_asn == 65001) return MonitorTarget{"hot", t.near_ip, t.far_ip, t.near_asn,
                                                   t.far_asn, t.at_ixp};
    }
    return MonitorTarget{};
  };

  auto rt = analysis::build_scenario(spec);
  Prober prober(rt->topology.net(), rt->vp_host, 0.0);
  TslpConfig cfg;
  cfg.round_interval = round;
  TslpDriver driver(prober, cfg);
  const auto fast = driver.run({hot_target(*rt)}, start, end);
  ASSERT_EQ(fast.size(), 1u);

  // The replay sends the driver's probes in the driver's order.  The
  // driver re-learns nothing here (a re-learn would add traceroutes the
  // replay does not send), so both sides draw the same random numbers and
  // the series agree bit for bit, drops included.
  EXPECT_EQ(driver.loss_relearns() + driver.stale_relearns(), 0u);
  auto twin = analysis::build_scenario(spec);
  Prober tracer(twin->topology.net(), twin->vp_host, 0.0);
  const auto slow =
      oracle::replay_far_rounds(tracer, hot_target(*twin).far_ip, start, end, round, kTslpMaxTtl);
  ASSERT_EQ(fast[0].far_rtt.ms.size(), slow.size());
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast[0].far_rtt.ms[i]),
              std::bit_cast<std::uint64_t>(slow[i]))
        << "round " << i;
  }
  // Both must clearly show the standing queue.
  EXPECT_GT(*std::max_element(fast[0].far_rtt.ms.begin(), fast[0].far_rtt.ms.end()), 14.0);
}

TEST(Prober, DoubletreeStopsOnKnownHops) {
  ProberWorld w;
  const auto ta = w.member_lan("MEMA", 65001);
  const auto tb = w.member_lan("MEMB", 65002);
  std::set<net::Ipv4Address> stop_set;
  const auto first = w.prober->traceroute_doubletree(ta, stop_set, 32, 2, /*always=*/1);
  EXPECT_EQ(first.back().addr, ta);
  // The second trace shares hop 1 (the VP border); with always_probe_first
  // = 1 it still completes because hop 1 is exempt, and the stop set keeps
  // growing.
  const auto second = w.prober->traceroute_doubletree(tb, stop_set, 32, 2, /*always=*/1);
  EXPECT_EQ(second.back().addr, tb);
  EXPECT_TRUE(stop_set.count(ta));
  EXPECT_TRUE(stop_set.count(tb));
  // A repeat trace to the same destination now stops at the destination
  // hop by the stop set... unless it IS the destination (which terminates
  // anyway).  Use a deep target: the regional transit behind the border.
}

TEST(Bdrmap2, DoubletreeCutsProbeCostWithoutChangingInference) {
  auto spec = tiny_spec();
  auto run = [&](bool doubletree) {
    auto rt = analysis::build_scenario(spec);
    Prober prober(rt->topology.net(), rt->vp_host, 0.0);
    const auto data =
        registry::harvest(rt->topology, *rt->bgp, rt->vp_asn, rt->collectors);
    bdrmap::BdrmapOptions opts;
    opts.doubletree = doubletree;
    bdrmap::Bdrmap mapper(prober, data, rt->vp_asn, opts);
    auto result = mapper.run();
    return std::make_pair(std::move(result), prober.probes_sent());
  };
  const auto [with, probes_with] = run(true);
  const auto [without, probes_without] = run(false);
  EXPECT_EQ(with.neighbors, without.neighbors);
  EXPECT_EQ(with.link_count(), without.link_count());
  EXPECT_LT(probes_with, probes_without);
}

// ---------------------------------------------------------------------------
// Loss measurement

TEST(Loss, CleanLinkHasNoLoss) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  const TimePoint start = w.rt->topology.net().simulator().now();
  LossConfig cfg;
  cfg.batch_size = 50;
  const auto loss = measure_loss(*w.prober, target, start, start + kSecond * 200, cfg);
  ASSERT_GE(loss.batches.size(), 3u);
  EXPECT_DOUBLE_EQ(loss.average_loss(), 0.0);
}

TEST(Loss, SaturatedLinkLosesAtOverflowRate) {
  // Saturate MEMA's port: overload 1.25 means ~20% of arrivals overflow,
  // and probe loss must track that rate (each probe crosses the congested
  // direction once).
  auto spec = tiny_spec();
  analysis::CongestionSpec c;
  c.a_w_ms = 12.0;
  c.dt_ud = kHour * 20;
  c.peak_hour = 2.0;
  c.overload = 1.25;
  c.begin = TimePoint{};
  c.end = analysis::kForever;
  spec.neighbors[0].congestion = {c};
  spec.neighbors[0].port_capacity_bps = 100e6;
  auto rt = analysis::build_scenario(spec);
  Prober prober(rt->topology.net(), rt->vp_host, 0.0);
  net::Ipv4Address target;
  for (const auto& t : rt->topology.interdomain_links_of(30997)) {
    if (t.far_asn == 65001) target = t.far_ip;
  }
  rt->topology.net().simulator().advance_to(TimePoint(kHour * 2));
  LossConfig cfg;
  cfg.batch_size = 200;
  const auto loss = measure_loss(prober, target, TimePoint(kHour * 2),
                                 TimePoint(kHour * 2 + kSecond * 600), cfg);
  // Expected drop probability at full buffer: (1.25 - 1) / 1.25 = 0.2 per
  // congested crossing; the probe crosses once forward (congested) and the
  // reply returns on the clean reverse direction.
  EXPECT_NEAR(loss.average_loss(), 0.2, 0.06);
}

TEST(Loss, BatchGapSubsamples) {
  ProberWorld w;
  const auto target = w.member_lan("MEMA", 65001);
  const TimePoint start = w.rt->topology.net().simulator().now();
  LossConfig cfg;
  cfg.batch_size = 10;
  cfg.batch_gap = kMinute * 10;
  const auto loss = measure_loss(*w.prober, target, start, start + kHour, cfg);
  // One batch (10 s) per ~10 min: about 6 batches in an hour.
  EXPECT_GE(loss.batches.size(), 5u);
  EXPECT_LE(loss.batches.size(), 7u);
}

// ---------------------------------------------------------------------------
// warts-lite

TEST(WartsLite, RoundTrip) {
  WartsLiteFile file;
  tslp::LinkSeries ls;
  ls.key = "AS30997-AS29614";
  ls.near_ip = net::Ipv4Address(196, 49, 0, 1);
  ls.far_ip = net::Ipv4Address(196, 49, 0, 7);
  ls.near_asn = 30997;
  ls.far_asn = 29614;
  ls.at_ixp = true;
  ls.near_rtt.start = TimePoint(kHour);
  ls.near_rtt.interval = kMinute * 5;
  ls.near_rtt.ms = {1.0, 1.1, tslp::kMissing, 1.2};
  ls.far_rtt = ls.near_rtt;
  ls.far_rtt.ms = {20.0, 47.9, 30.0, tslp::kMissing};
  file.links.push_back(ls);

  std::stringstream buf;
  ASSERT_TRUE(write_warts_lite(buf, file));
  const auto read = read_warts_lite(buf);
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->links.size(), 1u);
  const auto& l = read->links[0];
  EXPECT_EQ(l.key, ls.key);
  EXPECT_EQ(l.far_ip, ls.far_ip);
  EXPECT_TRUE(l.at_ixp);
  ASSERT_EQ(l.far_rtt.ms.size(), 4u);
  EXPECT_DOUBLE_EQ(l.far_rtt.ms[1], 47.9);
  EXPECT_TRUE(std::isnan(l.far_rtt.ms[3]));
}

TEST(WartsLite, RejectsBadMagic) {
  std::stringstream buf;
  buf << "NOPE" << std::string(16, '\0');
  EXPECT_FALSE(read_warts_lite(buf).has_value());
}

TEST(WartsLite, RejectsTruncatedRecord) {
  WartsLiteFile file;
  tslp::LinkSeries ls;
  ls.key = "k";
  ls.near_rtt.ms = {1, 2, 3};
  ls.far_rtt.ms = {4, 5, 6};
  file.links.push_back(ls);
  std::stringstream buf;
  ASSERT_TRUE(write_warts_lite(buf, file));
  std::string data = buf.str();
  data.resize(data.size() - 5);
  std::stringstream cut(data);
  EXPECT_FALSE(read_warts_lite(cut).has_value());
}

// Appends the low `bytes` bytes of `v`, little-endian, as the format does.
void put_le(std::string& b, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

// One framed record: u8 type, u32 payload length, payload.
std::string record_bytes(std::uint8_t type, const std::string& payload) {
  std::string out(1, static_cast<char>(type));
  put_le(out, payload.size(), 4);
  return out + payload;
}

TEST(WartsLite, OldCaptureSkipsLossTraceAndUnknownRecords) {
  // Captures written before the format kept only link records also hold
  // type 2 (loss) and type 3 (traceroute) records; a later writer may add
  // more types.  The reader must skip all of them and still return the
  // link record bit for bit.
  WartsLiteFile file;
  tslp::LinkSeries ls;
  ls.key = "AS30997-AS29614";
  ls.near_ip = net::Ipv4Address(196, 49, 0, 1);
  ls.far_ip = net::Ipv4Address(196, 49, 0, 7);
  ls.near_asn = 30997;
  ls.far_asn = 29614;
  ls.at_ixp = true;
  ls.near_rtt.start = TimePoint(kHour);
  ls.near_rtt.interval = kMinute * 5;
  ls.near_rtt.ms = {1.0, tslp::kMissing, 1.2};
  ls.far_rtt = ls.near_rtt;
  ls.far_rtt.ms = {20.0, 47.9, tslp::kMissing};
  file.links.push_back(ls);
  std::stringstream buf;
  ASSERT_TRUE(write_warts_lite(buf, file));
  const std::string links_only = buf.str();

  // Old loss layout: u32 target, u32 batches, then {i64 at, u32 sent,
  // u32 lost} per batch.
  std::string loss;
  put_le(loss, ls.far_ip.value(), 4);
  put_le(loss, 2, 4);
  for (const auto& [at, lost] : {std::pair{kHour, 25}, std::pair{kHour * 2, 0}}) {
    put_le(loss, static_cast<std::uint64_t>(at.count()), 8);
    put_le(loss, 100, 4);
    put_le(loss, static_cast<std::uint64_t>(lost), 4);
  }
  // Old traceroute layout: u32 dst, i64 at, u16 hops, then {u8 ttl,
  // u32 addr, i64 rtt} per hop.
  std::string trace;
  put_le(trace, ls.far_ip.value(), 4);
  put_le(trace, static_cast<std::uint64_t>((kDay + kHour).count()), 8);
  put_le(trace, 2, 2);
  put_le(trace, 1, 1);
  put_le(trace, net::Ipv4Address(41, 0, 0, 1).value(), 4);
  put_le(trace, static_cast<std::uint64_t>(milliseconds(0.5).count()), 8);
  put_le(trace, 2, 1);
  put_le(trace, ls.far_ip.value(), 4);
  put_le(trace, static_cast<std::uint64_t>(milliseconds(1.4).count()), 8);

  const std::string header = links_only.substr(0, 6);  // magic + version
  const std::string link_record = links_only.substr(6);
  std::istringstream old(header + record_bytes(2, loss) + link_record + record_bytes(3, trace) +
                         record_bytes(9, "never-used type"));
  const auto read = read_warts_lite(old);
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->links.size(), 1u);
  // Re-encoding what was read reproduces the link record byte for byte
  // (NaN payloads included).
  std::stringstream again;
  ASSERT_TRUE(write_warts_lite(again, *read));
  EXPECT_EQ(again.str(), links_only);
}

// ---------------------------------------------------------------------------
// warts-lite fuzz: every prefix truncation and every single-byte corruption
// of a valid capture must produce a clean parse result (nullopt, or a valid
// smaller file) -- never a crash, hang, or out-of-bounds access.  The
// sanitizer sweep (tools/check_sanitize.sh) runs this under ASan/UBSan,
// which is where OOB reads would actually trip.

std::string valid_capture_bytes() {
  WartsLiteFile file;
  for (int i = 0; i < 2; ++i) {
    tslp::LinkSeries ls;
    ls.key = "AS30997-AS2961" + std::to_string(4 + i);
    ls.near_ip = net::Ipv4Address(196, 49, 0, 1);
    ls.far_ip = net::Ipv4Address(196, 49, 0, static_cast<std::uint8_t>(7 + i));
    ls.near_asn = 30997;
    ls.far_asn = 29614;
    ls.at_ixp = true;
    ls.near_rtt.start = TimePoint(kHour);
    ls.near_rtt.interval = kMinute * 5;
    ls.near_rtt.ms = {1.0, tslp::kMissing, 1.2, 0.9};
    ls.far_rtt = ls.near_rtt;
    ls.far_rtt.ms = {20.0, 47.9, tslp::kMissing, 21.5};
    file.links.push_back(std::move(ls));
  }
  std::stringstream buf;
  EXPECT_TRUE(write_warts_lite(buf, file));
  return buf.str();
}

TEST(WartsLiteFuzz, EveryPrefixTruncationParsesCleanly) {
  const std::string data = valid_capture_bytes();
  ASSERT_GT(data.size(), 6u);
  std::size_t accepted = 0;
  for (std::size_t n = 0; n < data.size(); ++n) {
    std::istringstream cut(data.substr(0, n));
    const auto read = read_warts_lite(cut);
    if (!read.has_value()) continue;
    // A cut at a record boundary is a valid shorter capture; anything it
    // reports must be a subset of the original.
    ++accepted;
    EXPECT_LE(read->links.size(), 2u) << "prefix " << n;
  }
  // Only the header and the first record boundary can be accepted (the
  // second boundary is the whole file, which no prefix reaches); mid-record
  // cuts must all be rejected.
  EXPECT_LE(accepted, 2u);
  EXPECT_GE(accepted, 1u);  // the bare header parses as an empty capture
}

TEST(WartsLiteFuzz, EverySingleByteCorruptionParsesCleanly) {
  const std::string data = valid_capture_bytes();
  Rng rng(0xf022);
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] = static_cast<char>(~flipped[i]);
    std::istringstream in(flipped);
    const auto read = read_warts_lite(in);  // any result is fine; no crash
    if (read.has_value()) {
      EXPECT_LE(read->links.size(), 2u) << "byte " << i;
    }
    // A second, random corruption value (not just bit-complement).
    std::string mutated = data;
    mutated[i] = static_cast<char>(rng.uniform_int(0, 255));
    std::istringstream in2(mutated);
    (void)read_warts_lite(in2);
  }
}

// Property sweep: the walk and the packet oracle agree exactly for every
// monitored link of the tiny world, echo and expiry alike.
class FastEventEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FastEventEquivalence, ResponderAndRttAgree) {
  ProberWorld w;
  ProberWorld twin;
  const auto truth = w.rt->topology.interdomain_links_of(30997);
  const int index = GetParam();
  if (index >= static_cast<int>(truth.size())) GTEST_SKIP();
  const auto target = truth[static_cast<std::size_t>(index)].far_ip;

  for (const std::uint8_t ttl : {1, 64}) {
    ProbeOptions o;
    o.ttl = ttl;
    const auto fast = w.prober->probe(target, o);
    ASSERT_TRUE(fast.answered);
    EXPECT_EQ(oracle::mismatch(fast, twin.oracle_probe(w, target, o)), "");
  }
}

INSTANTIATE_TEST_SUITE_P(AllLinks, FastEventEquivalence, ::testing::Range(0, 4));

TEST(WartsLite, EmptyFileIsValid) {
  std::stringstream buf;
  ASSERT_TRUE(write_warts_lite(buf, {}));
  const auto read = read_warts_lite(buf);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->links.empty());
}

}  // namespace
}  // namespace ixp::prober
