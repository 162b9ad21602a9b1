// Campaign scenarios: declarative descriptions of one vantage point's
// world, and the builder that turns them into a live simulated topology.
//
// A VpSpec lists the IXP, the hosting AS, every neighbor with its port
// provisioning and behaviour (clean / route-change level shifts / diurnal
// congestion), plus timeline events quoted from the paper (member joins
// and departures, transit shut-off, port upgrades).  The builder creates
// the topology, computes routes, installs FIBs, and returns a runtime
// handle that the campaign driver (campaign.h) probes and analyses.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "routing/bgp.h"
#include "topo/calendar.h"
#include "topo/topology.h"

namespace ixp {
struct FaultPlan;
namespace sim {
class FaultInjector;
}  // namespace sim
}  // namespace ixp

namespace ixp::analysis {

using topo::Asn;

/// Never-expires sentinel for membership windows.
inline constexpr TimePoint kForever = TimePoint(kDay * 100000);

/// One diurnal-congestion phase on a link direction.
struct CongestionSpec {
  double a_w_ms = 15.0;            ///< buffer depth = level-shift ceiling
  Duration dt_ud = kHour * 4;      ///< target width of a congestion event
  double peak_hour = 14.0;         ///< local time of the demand peak
  double weekday_scale = 1.0;
  double weekend_scale = 1.0;
  double overload = 1.10;          ///< peak offered load / capacity
  double midnight_dip = 0.0;       ///< KNET-style dip around 00:00
  bool reverse_direction = false;  ///< also congest member->fabric
  double reverse_peak_hour = 20.0; ///< peak hour of the reverse direction
  Duration reverse_dt_ud{};        ///< reverse event width (0 = same as dt_ud)
  TimePoint begin{};               ///< phase window
  TimePoint end = kForever;
};

/// Slow-ICMP behaviour (control-plane load) of the neighbor's router.
struct SlowIcmpSpec {
  double extra_ms = 17.5;     ///< added ICMP generation delay at full load
  double peak_hour = 15.0;
  double half_width_hours = 8.0;
  double midnight_dip = 0.9;
  TimePoint begin{};
  TimePoint end = kForever;
};

/// Non-diurnal level shifts on one link: the far side's propagation delay
/// steps up and back at scheduled times (route changes inside the neighbor
/// network -- the dominant source of the paper's "potentially congested
/// without a diurnal pattern" links).
struct NoiseShiftSpec {
  double magnitude_ms = 25.0;
  int events = 4;               ///< shift episodes over the campaign
  Duration event_duration = kDay * 2;
  std::uint64_t seed = 1;       ///< event placement
  bool on_ptp = false;          ///< target a ptp link instead of a LAN port
  int port_index = 0;           ///< which LAN port / ptp link
};

/// Availability window of one link (campaign-absolute times).
struct LinkWindow {
  TimePoint up{};               ///< link comes up (0 = from the start)
  TimePoint down = kForever;    ///< link goes down
};

struct NeighborSpec {
  std::string name;
  Asn asn = 0;
  std::string country = "ZZ";
  topo::AsType type = topo::AsType::kAccessIsp;
  /// Relationship of this neighbor toward the VP AS.
  enum class Rel { kPeer, kCustomerOfVp, kProviderOfVp } rel = Rel::kPeer;

  /// Routers never answer ICMP (invisible to bdrmap and TSLP, but still
  /// forwarding) -- models the unresponsive minority that keeps the
  /// paper's neighbor recall at 96.2 %.
  bool silent = false;
  int lan_routers = 1;   ///< routers/ports on the IXP LAN; 0 = not at IXP
  int ptp_links = 0;     ///< private interconnects with the VP AS
  double port_capacity_bps = 1e9;
  double port_base_loss = 0.0;
  /// One-way propagation delay of this neighbor's links: the RTT-geography
  /// knob the substrate generator (analysis/substrate.h) uses to place
  /// members at metro / regional / continental distance from the exchange.
  /// Defaults match the hand-written paper scenarios.
  double lan_prop_ms = 0.15;  ///< IXP LAN ports
  double ptp_prop_ms = 0.4;   ///< private interconnects

  TimePoint join{};      ///< default up time for all links
  TimePoint leave = kForever;  ///< default down time for all links
  /// Per-link window overrides; entry i applies to LAN port i / ptp i.
  /// When longer than lan_routers/ptp_links, the counts grow to match.
  std::vector<LinkWindow> lan_windows;
  std::vector<LinkWindow> ptp_windows;
  /// Scheduled port re-provisioning of the congested link: (when, new
  /// capacity).  Buffer re-sizes to ~250 ms at the new rate.
  std::vector<std::pair<TimePoint, double>> capacity_upgrades;

  std::vector<CongestionSpec> congestion;      ///< phases on LAN port 0
  std::vector<CongestionSpec> congestion_ptp;  ///< phases on ptp link 0
  bool upgrade_ptp = false;  ///< capacity_upgrades target ptp 0, not LAN 0
  std::optional<SlowIcmpSpec> slow_icmp;
  std::vector<NoiseShiftSpec> noise_list;  ///< per-link route-change noise

  /// Colocation facility this member is homed at ("" = unassigned).  Set
  /// by the substrate generator when TopoSpec::facilities > 0; facility
  /// faults and the facility-aggregation detector group links by it.
  std::string facility;
};

struct VpSpec {
  std::string vp_name;   ///< "VP1" .. "VP6"
  topo::IxpInfo ixp;
  Asn vp_asn = 0;
  std::string vp_as_name;
  std::string vp_org;
  std::string country = "ZZ";
  /// True when the VP is plugged into the IXP's own content network
  /// (VP1-VP3); false when hosted inside a member AS (VP4-VP6).
  bool vp_is_ixp_network = true;
  /// The VP network filters the IPv4 record-route option (QCELL and RDB
  /// did: their Table 2 record-route totals are zero).
  bool vp_filters_rr = false;
  /// Whether the VP AS buys transit from the synthetic regional provider
  /// over an off-IXP ptp.  VPs whose transit arrives through the exchange
  /// itself (GIXA's GHANATEL arrangement) set this to false and declare a
  /// provider-neighbor instead.
  bool vp_has_regional_transit = true;
  std::vector<NeighborSpec> neighbors;
  std::uint64_t seed = 42;
  /// Remote-peering (RIXP) tail: when > 0, the VP reaches the fabric over
  /// a long leased circuit instead of an in-building port — the VP port
  /// gets this one-way propagation delay, and `vp_tail_jitter` replaces
  /// its light cross-load with a burstier jittered profile so the *near*
  /// segment of every TSLP series is itself noisy.
  double vp_tail_ms = 0.0;
  double vp_tail_jitter = 0.0;
  /// Start/end of the paper's measurement window for this VP.
  TimePoint campaign_start{};
  TimePoint campaign_end = topo::kCampaignEnd;
  /// Table 2 snapshot dates for this VP.
  std::vector<TimePoint> snapshot_dates;
};

/// A scheduled mutation of the world.
struct TimelineEvent {
  TimePoint at;
  std::function<void()> apply;
  bool membership = false;  ///< changes who is connected (re-run bdrmap)
};

/// Simulator handles for one built neighbor, kept so post-build passes
/// (fault attachment, diagnostics) can address its routers and links
/// without re-deriving them from addresses.
struct NeighborHandles {
  Asn asn = 0;
  std::string name;
  bool silent = false;
  bool fault_eligible = false;  ///< fault_eligible_neighbor() of its spec
  std::string facility;  ///< colocation facility ("" = unassigned)
  std::vector<sim::NodeId> routers;
  std::vector<int> lan_links;  ///< IXP-port link ids, port order
  std::vector<int> ptp_links;
};

/// Live world for one VP: topology + routing + bookkeeping.
class ScenarioRuntime {
 public:
  topo::Topology topology;
  std::unique_ptr<routing::Bgp> bgp;
  sim::NodeId vp_host = sim::kInvalidNode;
  sim::NodeId vp_router = sim::kInvalidNode;
  Asn vp_asn = 0;
  std::string ixp_name;
  std::vector<TimelineEvent> timeline;  ///< sorted by time
  std::vector<Asn> collectors;          ///< RIB-dump vantage ASes
  std::vector<NeighborHandles> neighbor_handles;  ///< spec order

  /// Merges extra events into the timeline (keeping it sorted).  Must be
  /// called before the first apply_timeline_until(); the cursor would skip
  /// events inserted behind it.
  void add_events(std::vector<TimelineEvent> events);

  /// Applies every event with at <= t (in order); returns how many fired.
  /// Reroutes requested by the fired events are coalesced into a single
  /// BGP+FIB recomputation at the end of the batch (hundreds of member
  /// joins applied together would otherwise recompute hundreds of times).
  std::size_t apply_timeline_until(TimePoint t);

  /// Recomputes routes + FIBs (after membership changes).  Inside an
  /// apply_timeline_until() batch the recomputation is deferred.
  void reroute();

 private:
  std::size_t timeline_cursor_ = 0;
  bool defer_reroutes_ = false;
  bool reroute_dirty_ = false;
};

/// Builds the world at campaign start; later joins/leaves/upgrades are in
/// the returned runtime's timeline.
std::unique_ptr<ScenarioRuntime> build_scenario(const VpSpec& spec);

/// The one rule for which neighbors faults may target: no scripted
/// congestion / slow ICMP / noise / upgrades (that behaviour is part of the
/// ground truth) and present for the whole campaign with no membership
/// windows (flapping a windowed member's link would fight the membership
/// timeline).
bool fault_eligible_neighbor(const NeighborSpec& n, TimePoint campaign_start);

/// The fault seed of the `index`-th spec of a fleet whose seed is
/// `fault_seed`.  Derived from the spec index, never from worker identity,
/// so the expanded plan is byte-identical for any --jobs; chaos scoring
/// re-expands each VP's plan with the same seed.
std::uint64_t vp_fault_seed(std::uint64_t fault_seed, std::size_t index);

/// Expands `plan` against [spec.campaign_start, campaign_end) and installs
/// the topology-touching faults (link flaps, ICMP tightening, silent drops,
/// reroutes) as membership=false timeline events on `rt`.  Destructive
/// faults target only clean always-on neighbors, so the engineered ground
/// truth stays interpretable.  The returned injector also gates VP outages
/// and probe-loss bursts; hand it to CampaignOptions::faults and keep the
/// shared_ptr alive for the duration of the run (timeline events hold a raw
/// pointer into it).  Call before the first apply_timeline_until().
std::shared_ptr<sim::FaultInjector> attach_fault_plan(ScenarioRuntime& rt,
                                                      const VpSpec& spec,
                                                      const FaultPlan& plan,
                                                      std::uint64_t seed,
                                                      TimePoint campaign_end);

/// Demand profile engineered so that a link of `capacity_bps` develops a
/// standing queue of up to `a_w_ms` for about `dt_ud` around `peak_hour`
/// (the buffer is sized to a_w_ms elsewhere, in build_scenario).
sim::TrafficProfilePtr make_congestion_profile(double capacity_bps, const CongestionSpec& c,
                                               bool reverse, std::uint64_t seed);

}  // namespace ixp::analysis
