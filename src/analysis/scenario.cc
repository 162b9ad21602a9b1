#include "analysis/scenario.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/faults.h"
#include "util/fault_plan.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ixp::analysis {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Background ASNs for the shared upstream structure.
constexpr Asn kTier1Asn = 64900;     // intercontinental transit
constexpr Asn kRegionalAsn = 64901;  // regional transit
constexpr Asn kCdnAsn = 64910;       // remote content network

sim::TrafficProfilePtr light_load(double capacity_bps, std::uint64_t seed) {
  auto base = std::make_shared<sim::ConstantProfile>(0.15 * capacity_bps);
  return std::make_shared<sim::JitteredProfile>(base, 0.3, seed);
}

// Demand on the congested link: light load outside the configured phases,
// the engineered overload inside them.
sim::TrafficProfilePtr phased_profile(double capacity_bps, const std::vector<CongestionSpec>& phases,
                                      bool reverse, Rng& rng) {
  std::vector<sim::PiecewiseProfile::Piece> pieces;
  for (const auto& c : phases) {
    if (reverse && !c.reverse_direction) continue;
    pieces.push_back({c.begin, light_load(capacity_bps, rng.next())});
    pieces.push_back({c.end, make_congestion_profile(capacity_bps, c, reverse, rng.next())});
  }
  auto tail = light_load(capacity_bps, rng.next());
  if (pieces.empty()) return tail;
  return std::make_shared<sim::PiecewiseProfile>(std::move(pieces), tail);
}

}  // namespace

sim::TrafficProfilePtr make_congestion_profile(double capacity_bps, const CongestionSpec& c,
                                               bool reverse, std::uint64_t seed) {
  // Engineer the raised-cosine demand bump so the offered load exceeds the
  // capacity for about dt_ud (minus the fill/drain time, which is small
  // against multi-hour events): with base + peak*bump(d) and
  // bump(d) = (1 + cos(pi d / hw)) / 2, load > C for |d| < d* where
  // bump(d*) = (C - base) / peak.  We fix base = 0.35 C, choose the half
  // width hw from dt_ud so that d* = dt_ud / 2 at the configured overload.
  const double base = 0.35 * capacity_bps;
  const double peak_total = c.overload * capacity_bps;
  const double peak = peak_total - base;  // bump amplitude
  const double beta = (capacity_bps - base) / peak;  // bump value at d*
  const Duration width = (reverse && c.reverse_dt_ud.count() > 0) ? c.reverse_dt_ud : c.dt_ud;
  const double dstar_hours = to_hours(width) / 2.0;
  // beta = (1 + cos(pi d*/hw)) / 2  =>  hw = pi d* / acos(2 beta - 1)
  const double acos_arg = std::clamp(2.0 * beta - 1.0, -0.999, 0.999);
  const double hw = std::max(0.75, kPi * dstar_hours / std::acos(acos_arg));

  sim::DiurnalProfile::Config d;
  d.base_bps = base;
  d.peak_bps = peak;
  d.peak_hour = reverse ? c.reverse_peak_hour : c.peak_hour;
  d.peak_half_width_hours = hw;
  d.weekday_scale = c.weekday_scale;
  d.weekend_scale = c.weekend_scale;
  d.midnight_dip_frac = c.midnight_dip;
  auto diurnal = std::make_shared<sim::DiurnalProfile>(d);
  return std::make_shared<sim::JitteredProfile>(diurnal, 0.04, seed);
}

std::size_t ScenarioRuntime::apply_timeline_until(TimePoint t) {
  std::size_t fired = 0;
  defer_reroutes_ = true;
  while (timeline_cursor_ < timeline.size() && timeline[timeline_cursor_].at <= t) {
    timeline[timeline_cursor_].apply();
    ++timeline_cursor_;
    ++fired;
  }
  defer_reroutes_ = false;
  if (reroute_dirty_) {
    reroute_dirty_ = false;
    reroute();
  }
  return fired;
}

void ScenarioRuntime::reroute() {
  if (defer_reroutes_) {
    reroute_dirty_ = true;
    return;
  }
  bgp = std::make_unique<routing::Bgp>(topology);
  bgp->compute();
  bgp->install_fibs(topology);
}

std::unique_ptr<ScenarioRuntime> build_scenario(const VpSpec& spec) {
  auto rt = std::make_unique<ScenarioRuntime>();
  ScenarioRuntime* rtp = rt.get();
  auto& tp = rt->topology;
  tp.net().seed(spec.seed);
  Rng rng(spec.seed);

  rt->vp_asn = spec.vp_asn;
  rt->ixp_name = spec.ixp.name;
  tp.add_ixp(spec.ixp);

  // ---- Upstream structure --------------------------------------------------
  tp.add_as({kTier1Asn, "TRANSGLOBAL", "ORG-TRANSGLOBAL", "GB", topo::AsType::kTransit, {}});
  tp.add_as({kRegionalAsn, "AFRITRANS", "ORG-AFRITRANS", spec.country, topo::AsType::kTransit, {}});
  tp.add_as({kCdnAsn, "GLOBALCDN", "ORG-GLOBALCDN", "US", topo::AsType::kContent, {}});
  const auto tier1_r = tp.add_router(kTier1Asn, "core");
  const auto regional_r = tp.add_router(kRegionalAsn, "core");
  const auto cdn_r = tp.add_router(kCdnAsn, "edge");

  sim::LinkConfig backbone;
  backbone.capacity_bps = 100e9;
  backbone.buffer_bytes = 64e6;
  backbone.prop_delay = milliseconds(30);  // intercontinental leg
  tp.connect_routers(tier1_r, regional_r, backbone);
  sim::LinkConfig cdn_link = backbone;
  cdn_link.prop_delay = milliseconds(40);
  tp.connect_routers(tier1_r, cdn_r, cdn_link);
  tp.add_as_relationship(kRegionalAsn, kTier1Asn, topo::Relationship::kCustomerToProvider);
  tp.add_as_relationship(kCdnAsn, kTier1Asn, topo::Relationship::kCustomerToProvider);
  tp.announce(kTier1Asn, tp.allocator().next_as_block(), tier1_r);
  tp.announce(kRegionalAsn, tp.allocator().next_as_block(), regional_r);
  tp.announce(kCdnAsn, tp.allocator().next_as_block(), cdn_r);

  // ---- The VP's AS ----------------------------------------------------------
  tp.add_as({spec.vp_asn, spec.vp_as_name, spec.vp_org, spec.country,
             spec.vp_is_ixp_network ? topo::AsType::kIxpContent : topo::AsType::kAccessIsp,
             {}});
  sim::RouterConfig vp_rc;
  vp_rc.rr_filtered = spec.vp_filters_rr;
  rt->vp_router = tp.add_router(spec.vp_asn, "border", vp_rc);
  const auto vp_block = tp.allocator().next_as_block();
  tp.announce(spec.vp_asn, vp_block, rt->vp_router);
  // The VP host lives on the first /26 of the block.
  const net::Ipv4Prefix vp_host_subnet(vp_block.network(), 26);
  rt->vp_host = tp.add_host(spec.vp_asn, "ark", vp_host_subnet.at(2), rt->vp_router, vp_host_subnet);

  // VP's IXP port: generously provisioned so it never masks member queues.
  topo::PortConfig vp_port;
  vp_port.capacity_bps = 10e9;
  vp_port.buffer_bytes = 8e6;
  vp_port.egress_cross = light_load(vp_port.capacity_bps, rng.next());
  vp_port.ingress_cross = light_load(vp_port.capacity_bps, rng.next());
  // Remote-peering (RIXP) tail: the VP reaches the fabric over a long
  // leased circuit whose cross load is far burstier than an in-building
  // port's, so the *near* segment of every TSLP series carries the tail's
  // delay and jitter.  Both knobs default off; the draws above always
  // happen so default specs keep their exact random streams.
  if (spec.vp_tail_ms > 0.0) vp_port.prop_delay = milliseconds(spec.vp_tail_ms);
  if (spec.vp_tail_jitter > 0.0) {
    auto tail_base = std::make_shared<sim::ConstantProfile>(0.35 * vp_port.capacity_bps);
    vp_port.egress_cross =
        std::make_shared<sim::JitteredProfile>(tail_base, spec.vp_tail_jitter, rng.next());
    vp_port.ingress_cross =
        std::make_shared<sim::JitteredProfile>(tail_base, spec.vp_tail_jitter, rng.next());
  }
  tp.attach_to_ixp(rt->vp_router, spec.ixp.name, vp_port);

  // VP transit: customer of the regional transit over a clean 10G ptp,
  // unless the VP's transit is one of the declared neighbors (VP1).
  if (spec.vp_has_regional_transit) {
    sim::LinkConfig vp_transit;
    vp_transit.capacity_bps = 10e9;
    vp_transit.buffer_bytes = 8e6;
    vp_transit.prop_delay = milliseconds(2);
    tp.connect_routers(regional_r, rt->vp_router, vp_transit);
    tp.add_as_relationship(spec.vp_asn, kRegionalAsn, topo::Relationship::kCustomerToProvider);
  }

  // ---- Neighbors ------------------------------------------------------------
  for (const auto& n : spec.neighbors) {
    if (tp.find_as(n.asn) != nullptr) {
      throw std::runtime_error("duplicate neighbor ASN " + strformat("%u", n.asn));
    }
    tp.add_as({n.asn, n.name, "ORG-" + n.name, n.country, n.type, {}});

    const int lan_count = std::max<int>(n.lan_routers, static_cast<int>(n.lan_windows.size()));
    const int ptp_count = std::max<int>(n.ptp_links, static_cast<int>(n.ptp_windows.size()));
    const int routers = std::max(1, lan_count);

    std::vector<sim::NodeId> rts;
    for (int i = 0; i < routers; ++i) {
      sim::RouterConfig rc;
      rc.icmp_disabled = n.silent;
      // Slow-ICMP behaviour applies to the primary LAN router.
      if (i == 0 && n.slow_icmp) {
        const auto& s = *n.slow_icmp;
        sim::DiurnalProfile::Config lc;
        lc.base_bps = 0.05;  // interpreted as relative load in [0, 1]
        lc.peak_bps = 0.95;
        lc.peak_hour = s.peak_hour;
        lc.peak_half_width_hours = s.half_width_hours;
        lc.midnight_dip_frac = s.midnight_dip;
        auto load = std::make_shared<sim::DiurnalProfile>(lc);
        std::vector<sim::PiecewiseProfile::Piece> pieces;
        pieces.push_back({s.begin, std::make_shared<sim::ConstantProfile>(0.05)});
        pieces.push_back({s.end, load});
        rc.icmp_load = std::make_shared<sim::PiecewiseProfile>(
            std::move(pieces), std::make_shared<sim::ConstantProfile>(0.05));
        rc.icmp_load_extra = milliseconds(s.extra_ms);
      }
      rts.push_back(tp.add_router(n.asn, strformat("r%d", i), rc));
      if (i > 0) {
        sim::LinkConfig internal;
        internal.capacity_bps = 40e9;
        internal.buffer_bytes = 16e6;
        internal.prop_delay = milliseconds(0.3);
        tp.connect_routers(rts[0], rts[static_cast<std::size_t>(i)], internal);
      }
    }

    // Announcements: one sub-prefix per (LAN port or ptp link) so route
    // spreading keeps every parallel adjacency on some forwarding path.
    const int slices_needed = std::max(1, lan_count + ptp_count);
    const auto block = tp.allocator().next_as_block();
    int slice_len = 22;
    while ((1 << (slice_len - 22)) < slices_needed && slice_len < 30) ++slice_len;
    const std::uint64_t slice_size = net::Ipv4Prefix(block.network(), slice_len).size();
    for (int s = 0; s < slices_needed; ++s) {
      const net::Ipv4Prefix slice(block.at(static_cast<std::uint64_t>(s) * slice_size), slice_len);
      tp.announce(n.asn, slice, rts[static_cast<std::size_t>(s) % rts.size()]);
    }
    // A host inside the first slice answers end-to-end probes.
    const net::Ipv4Prefix host_subnet(block.at(slice_size - 64), 26);
    tp.add_host(n.asn, "edge", host_subnet.at(2), rts[0], host_subnet);

    std::vector<int> lan_ports;
    std::vector<int> ptps;

    // IXP LAN ports.
    for (int i = 0; i < lan_count; ++i) {
      topo::PortConfig port;
      port.capacity_bps = n.port_capacity_bps;
      port.buffer_bytes = std::max(64e3, 0.25 * n.port_capacity_bps / 8.0);  // ~250 ms
      port.base_loss = n.port_base_loss;
      port.prop_delay = milliseconds(n.lan_prop_ms);
      const bool congested_here = !n.congestion.empty() && i == 0;
      if (congested_here) {
        port.buffer_bytes = n.congestion.front().a_w_ms / 1e3 * n.port_capacity_bps / 8.0;
        port.ingress_cross = phased_profile(n.port_capacity_bps, n.congestion, false, rng);
        port.egress_cross = phased_profile(n.port_capacity_bps, n.congestion, true, rng);
      } else {
        port.egress_cross = light_load(n.port_capacity_bps, rng.next());
        port.ingress_cross = light_load(n.port_capacity_bps, rng.next());
      }
      lan_ports.push_back(
          tp.attach_to_ixp(rts[static_cast<std::size_t>(i) % rts.size()], spec.ixp.name, port));
    }

    // Private interconnects with the VP AS.
    for (int j = 0; j < ptp_count; ++j) {
      sim::LinkConfig ptp;
      ptp.capacity_bps = n.port_capacity_bps;
      ptp.buffer_bytes = std::max(64e3, 0.25 * n.port_capacity_bps / 8.0);
      ptp.prop_delay = milliseconds(n.ptp_prop_ms);
      ptp.base_loss = n.port_base_loss;
      const bool congested_here = !n.congestion_ptp.empty() && j == 0;
      // The link is created from the "numbering" side: the neighbor when it
      // is the VP's provider, otherwise the VP.  Forward (VP -> neighbor)
      // is therefore B->A when the neighbor numbers, A->B otherwise.
      const bool neighbor_numbers = n.rel == NeighborSpec::Rel::kProviderOfVp;
      if (congested_here) {
        ptp.buffer_bytes = n.congestion_ptp.front().a_w_ms / 1e3 * n.port_capacity_bps / 8.0;
        auto fwd = phased_profile(n.port_capacity_bps, n.congestion_ptp, false, rng);
        auto rev = phased_profile(n.port_capacity_bps, n.congestion_ptp, true, rng);
        if (neighbor_numbers) {
          ptp.cross_ba = fwd;  // VP -> neighbor
          ptp.cross_ab = rev;
        } else {
          ptp.cross_ab = fwd;
          ptp.cross_ba = rev;
        }
      } else {
        ptp.cross_ab = light_load(n.port_capacity_bps, rng.next());
        ptp.cross_ba = light_load(n.port_capacity_bps, rng.next());
      }
      const auto a = neighbor_numbers ? rts[0] : rt->vp_router;
      const auto b = neighbor_numbers ? rt->vp_router : rts[0];
      ptps.push_back(tp.connect_routers(a, b, ptp));
    }

    // Relationship with the VP AS, and the neighbor's own transit.
    switch (n.rel) {
      case NeighborSpec::Rel::kPeer:
        tp.add_as_relationship(n.asn, spec.vp_asn, topo::Relationship::kPeerToPeer);
        break;
      case NeighborSpec::Rel::kCustomerOfVp:
        tp.add_as_relationship(n.asn, spec.vp_asn, topo::Relationship::kCustomerToProvider);
        break;
      case NeighborSpec::Rel::kProviderOfVp:
        tp.add_as_relationship(spec.vp_asn, n.asn, topo::Relationship::kCustomerToProvider);
        break;
    }
    if (n.rel == NeighborSpec::Rel::kProviderOfVp) {
      tp.add_as_relationship(n.asn, kTier1Asn, topo::Relationship::kCustomerToProvider);
    } else {
      tp.add_as_relationship(n.asn, kRegionalAsn, topo::Relationship::kCustomerToProvider);
    }

    // ---- Link availability windows ----------------------------------------
    auto window_of = [&](const std::vector<LinkWindow>& windows, int idx,
                         bool is_ptp) -> LinkWindow {
      if (idx < static_cast<int>(windows.size())) {
        LinkWindow w = windows[static_cast<std::size_t>(idx)];
        if (w.up.ns() == 0) w.up = n.join;
        if (w.down == kForever) w.down = n.leave;
        return w;
      }
      (void)is_ptp;
      return LinkWindow{n.join, n.leave};
    };
    auto schedule_window = [&](int link_id, const LinkWindow& w) {
      if (w.up > spec.campaign_start) {
        tp.net().link(link_id).set_up(false);
        rt->timeline.push_back({w.up,
                                [rtp, link_id]() {
                                  rtp->topology.net().link(link_id).set_up(true);
                                  rtp->reroute();
                                },
                                /*membership=*/true});
      }
      if (w.down < kForever) {
        rt->timeline.push_back({w.down,
                                [rtp, link_id]() {
                                  rtp->topology.net().link(link_id).set_up(false);
                                  rtp->reroute();
                                },
                                /*membership=*/true});
      }
    };
    for (int i = 0; i < lan_count; ++i) {
      schedule_window(lan_ports[static_cast<std::size_t>(i)], window_of(n.lan_windows, i, false));
    }
    for (int j = 0; j < ptp_count; ++j) {
      schedule_window(ptps[static_cast<std::size_t>(j)], window_of(n.ptp_windows, j, true));
    }

    // ---- Capacity upgrades on the congested link ----------------------------
    for (const auto& [when, new_cap] : n.capacity_upgrades) {
      const int target_link = n.upgrade_ptp ? (ptps.empty() ? -1 : ptps.front())
                                            : (lan_ports.empty() ? -1 : lan_ports.front());
      if (target_link < 0) continue;
      const TimePoint at = when;
      const double cap = new_cap;
      rt->timeline.push_back({at, [rtp, target_link, cap, at]() {
        rtp->topology.net().link(target_link).upgrade(at, cap, 0.25 * cap / 8.0);
      }});
    }

    // ---- Route-change noise --------------------------------------------------
    for (const auto& noise : n.noise_list) {
      if (noise.magnitude_ms <= 0) continue;
      int target_link = -1;
      sim::NodeId target_router = sim::kInvalidNode;
      if (noise.on_ptp) {
        if (noise.port_index < static_cast<int>(ptps.size())) {
          target_link = ptps[static_cast<std::size_t>(noise.port_index)];
          target_router = rts[0];
        }
      } else if (noise.port_index < static_cast<int>(lan_ports.size())) {
        target_link = lan_ports[static_cast<std::size_t>(noise.port_index)];
        target_router = rts[static_cast<std::size_t>(noise.port_index) % rts.size()];
      }
      if (target_link < 0) continue;
      Rng noise_rng(spec.seed ^ (static_cast<std::uint64_t>(n.asn) * 0x9e37u) ^
                    (noise.seed * 0x85ebca77c2b2ae63ULL) ^
                    static_cast<std::uint64_t>(noise.port_index));
      const Duration span = spec.campaign_end - spec.campaign_start;
      const int events = std::max(1, noise.events);
      for (int e = 0; e < events; ++e) {
        const Duration slice = span / events;
        const Duration max_offset = slice - noise.event_duration;
        const Duration offset = Duration(
            max_offset.count() > 0 ? noise_rng.uniform_int(0, max_offset.count()) : 0);
        const TimePoint up_at = spec.campaign_start + slice * e + offset;
        const TimePoint down_at = up_at + noise.event_duration;
        const double mag = noise.magnitude_ms;
        // The inbound direction (toward the neighbor's router) gains the
        // delay: only probes crossing INTO this port see the shift; replies
        // leaving via this port, and the member's other links, stay clean.
        rt->timeline.push_back({up_at, [rtp, target_link, target_router, mag]() {
          auto& l = rtp->topology.net().link(target_link);
          l.set_extra_delay_from(l.other(target_router), milliseconds(mag));
        }});
        rt->timeline.push_back({down_at, [rtp, target_link, target_router]() {
          auto& l = rtp->topology.net().link(target_link);
          l.set_extra_delay_from(l.other(target_router), Duration(0));
        }});
      }
    }

    // ---- Phase-boundary buffer changes (A_w changes between phases) ---------
    auto buffer_phases = [&](const std::vector<CongestionSpec>& phases, int target_link) {
      for (std::size_t p = 1; p < phases.size() && target_link >= 0; ++p) {
        if (phases[p].a_w_ms == phases[p - 1].a_w_ms) continue;
        const double cap = n.port_capacity_bps;
        const double buf = phases[p].a_w_ms / 1e3 * cap / 8.0;
        const TimePoint at = phases[p].begin;
        rt->timeline.push_back({at, [rtp, target_link, cap, buf, at]() {
          rtp->topology.net().link(target_link).upgrade(at, cap, buf);
        }});
      }
    };
    buffer_phases(n.congestion, lan_ports.empty() ? -1 : lan_ports.front());
    buffer_phases(n.congestion_ptp, ptps.empty() ? -1 : ptps.front());

    // ---- Handles for post-build passes (fault attachment) -------------------
    NeighborHandles h;
    h.asn = n.asn;
    h.name = n.name;
    h.silent = n.silent;
    h.fault_eligible = fault_eligible_neighbor(n, spec.campaign_start);
    h.facility = n.facility;
    h.routers = rts;
    h.lan_links = lan_ports;
    h.ptp_links = ptps;
    rt->neighbor_handles.push_back(std::move(h));
  }

  std::stable_sort(rt->timeline.begin(), rt->timeline.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) { return a.at < b.at; });

  rt->collectors = {kTier1Asn, kCdnAsn};
  rt->reroute();
  return rt;
}

void ScenarioRuntime::add_events(std::vector<TimelineEvent> events) {
  if (timeline_cursor_ != 0) {
    throw std::logic_error("add_events after the timeline already started firing");
  }
  for (auto& e : events) timeline.push_back(std::move(e));
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) { return a.at < b.at; });
}

namespace {

// Address a router answers with on a given link (its interface facing it).
net::Ipv4Address addr_on_link(sim::Network& net, sim::NodeId node, int link_id) {
  for (const auto& ifc : net.node(node).interfaces()) {
    if (ifc.link_id == link_id) return ifc.addr;
  }
  return net::Ipv4Address();
}

// The VP router's IXP-facing interface: the one whose link's far end is the
// fabric switch.
struct IxpPort {
  int ifindex = -1;
  net::Ipv4Address addr;
};
IxpPort vp_ixp_port(sim::Network& net, sim::NodeId vp_router) {
  const auto& ifaces = net.node(vp_router).interfaces();
  for (std::size_t i = 0; i < ifaces.size(); ++i) {
    if (ifaces[i].link_id < 0) continue;
    auto& l = net.link(ifaces[i].link_id);
    if (net.node(l.other(vp_router)).is_switch()) {
      return {static_cast<int>(i), ifaces[i].addr};
    }
  }
  return {};
}

}  // namespace

bool fault_eligible_neighbor(const NeighborSpec& n, TimePoint campaign_start) {
  const bool engineered = !n.congestion.empty() || !n.congestion_ptp.empty() ||
                          n.slow_icmp.has_value() || !n.noise_list.empty() ||
                          !n.capacity_upgrades.empty();
  const bool windowed = n.join > campaign_start || n.leave < kForever ||
                        !n.lan_windows.empty() || !n.ptp_windows.empty();
  return !engineered && !windowed;
}

std::uint64_t vp_fault_seed(std::uint64_t fault_seed, std::size_t index) {
  return fault_seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
}

std::shared_ptr<sim::FaultInjector> attach_fault_plan(ScenarioRuntime& rt, const VpSpec& spec,
                                                      const FaultPlan& plan, std::uint64_t seed,
                                                      TimePoint campaign_end) {
  auto inj = std::make_shared<sim::FaultInjector>(plan, seed, spec.campaign_start, campaign_end);
  sim::FaultInjector* fi = inj.get();
  ScenarioRuntime* rtp = &rt;
  auto& net = rt.topology.net();

  // Destructive faults only target fault-eligible neighbors (see
  // fault_eligible_neighbor) that answer ICMP: a silent router would make
  // the fault unobservable.
  std::vector<const NeighborHandles*> eligible;
  for (const auto& h : rt.neighbor_handles) {
    if (!h.fault_eligible || h.silent) continue;
    if (h.routers.empty() || h.lan_links.empty()) continue;
    eligible.push_back(&h);
  }

  std::vector<TimelineEvent> events;
  auto push = [&](TimePoint at, std::function<void()> apply) {
    events.push_back({at,
                      [fi, apply = std::move(apply)]() {
                        apply();
                        fi->note_timeline_fault();
                      },
                      /*membership=*/false});
  };

  // Link flaps: the member's primary IXP port goes down, BGP converges
  // around it, and the port is restored at window end.
  for (std::size_t k = 0; k < plan.link_flaps.size() && !eligible.empty(); ++k) {
    const auto& h = *eligible[static_cast<std::size_t>(plan.link_flaps[k].nth_link) %
                              eligible.size()];
    const int link_id = h.lan_links.front();
    for (const auto& w : fi->flap_windows()[k]) {
      push(w.begin, [rtp, link_id]() {
        rtp->topology.net().link(link_id).set_up(false);
        rtp->reroute();
      });
      push(w.end, [rtp, link_id]() {
        rtp->topology.net().link(link_id).set_up(true);
        rtp->reroute();
      });
    }
  }

  // ICMP rate-limit tightening on the member's primary router.  The old
  // rate is captured at fire time (another fault may have changed it).
  for (std::size_t k = 0; k < plan.icmp_tighten.size() && !eligible.empty(); ++k) {
    const auto& f = plan.icmp_tighten[k];
    const auto& h =
        *eligible[static_cast<std::size_t>(f.nth_router) % eligible.size()];
    const sim::NodeId router = h.routers.front();
    for (const auto& w : fi->icmp_windows()[k]) {
      auto saved = std::make_shared<double>(0.0);
      const double rate = f.rate_per_sec;
      push(w.begin, [rtp, router, saved, rate]() {
        auto& r = static_cast<sim::Router&>(rtp->topology.net().node(router));
        *saved = r.config().icmp_rate_limit_per_sec;
        r.mutable_config().icmp_rate_limit_per_sec = rate;
      });
      push(w.end, [rtp, router, saved]() {
        auto& r = static_cast<sim::Router&>(rtp->topology.net().node(router));
        r.mutable_config().icmp_rate_limit_per_sec = *saved;
      });
    }
  }

  // Silent-drop windows: the router stops answering ICMP entirely.
  for (std::size_t k = 0; k < plan.silent_drops.size() && !eligible.empty(); ++k) {
    const auto& h = *eligible[static_cast<std::size_t>(plan.silent_drops[k].nth_router) %
                              eligible.size()];
    const sim::NodeId router = h.routers.front();
    for (const auto& w : fi->silent_windows()[k]) {
      auto saved = std::make_shared<bool>(false);
      push(w.begin, [rtp, router, saved]() {
        auto& r = static_cast<sim::Router&>(rtp->topology.net().node(router));
        *saved = r.config().icmp_disabled;
        r.mutable_config().icmp_disabled = true;
      });
      push(w.end, [rtp, router, saved]() {
        auto& r = static_cast<sim::Router&>(rtp->topology.net().node(router));
        r.mutable_config().icmp_disabled = *saved;
      });
    }
  }

  // Reroutes: a /32 detour route for the target member's monitored far
  // address is installed on the VP router, pointing at ANOTHER member's LAN
  // address across the fabric.  TTL-limited probes then expire one hop
  // early at the detour router, so the TSLP target goes stale until the
  // driver notices the responder change.  Restoration is a full reroute():
  // install_fibs rebuilds every FIB, which drops the injected route.
  for (std::size_t k = 0; k < plan.reroutes.size() && eligible.size() >= 2; ++k) {
    const std::size_t n = eligible.size();
    const std::size_t t_idx = static_cast<std::size_t>(plan.reroutes[k].nth_link) % n;
    const auto& target = *eligible[t_idx];
    const auto& detour = *eligible[(t_idx + 1) % n];
    const IxpPort port = vp_ixp_port(net, rt.vp_router);
    const net::Ipv4Address far_ip =
        addr_on_link(net, target.routers.front(), target.lan_links.front());
    const net::Ipv4Address detour_ip =
        addr_on_link(net, detour.routers.front(), detour.lan_links.front());
    if (port.ifindex < 0 || far_ip.value() == 0 || detour_ip.value() == 0) continue;
    const net::Ipv4Prefix host_route(far_ip, 32);
    for (const auto& w : fi->reroute_windows()[k]) {
      push(w.begin, [rtp, host_route, port, detour_ip]() {
        auto& r = static_cast<sim::Router&>(rtp->topology.net().node(rtp->vp_router));
        r.add_route(host_route, {port.ifindex, detour_ip});
      });
      push(w.end, [rtp]() { rtp->reroute(); });
    }
  }

  // Facility outages: every link of every member homed at the chosen
  // colocation facility goes down together at window start and is restored
  // at window end — the correlated multi-link signature the facility
  // detector (analysis/facility.h) aggregates over.  Facilities are
  // enumerated in neighbor order (first appearance), so `nth_facility`
  // picks deterministically for a given substrate.  Only fault-eligible
  // members count, silent ones included.
  std::vector<std::string> facilities;
  for (const auto& h : rt.neighbor_handles) {
    if (h.facility.empty() || !h.fault_eligible) continue;
    if (std::find(facilities.begin(), facilities.end(), h.facility) == facilities.end()) {
      facilities.push_back(h.facility);
    }
  }
  for (std::size_t k = 0; k < plan.facility_outages.size() && !facilities.empty(); ++k) {
    const std::string& fac =
        facilities[static_cast<std::size_t>(plan.facility_outages[k].nth_facility) %
                   facilities.size()];
    std::vector<int> fac_links;
    for (const auto& h : rt.neighbor_handles) {
      if (h.facility != fac || !h.fault_eligible) continue;
      fac_links.insert(fac_links.end(), h.lan_links.begin(), h.lan_links.end());
      fac_links.insert(fac_links.end(), h.ptp_links.begin(), h.ptp_links.end());
    }
    if (fac_links.empty()) continue;
    for (const auto& w : fi->facility_windows()[k]) {
      push(w.begin, [rtp, fac_links]() {
        for (const int link_id : fac_links) rtp->topology.net().link(link_id).set_up(false);
        rtp->reroute();
      });
      push(w.end, [rtp, fac_links]() {
        for (const int link_id : fac_links) rtp->topology.net().link(link_id).set_up(true);
        rtp->reroute();
      });
    }
  }

  if (!events.empty()) rt.add_events(std::move(events));
  return inj;
}

}  // namespace ixp::analysis
