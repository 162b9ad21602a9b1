// Declarative topology specification for the continent-scale substrate.
//
// The paper's six vantage points are hand-written scenarios
// (analysis/africa.cc).  Everything beyond that scale is generated: a
// TopoSpec describes a whole IXP substrate -- how many exchanges, how the
// members-per-IXP distribution looks, how deep the transit hierarchy goes,
// and what the RTT geography is -- and the generator in
// analysis/substrate.h expands it deterministically into one VpSpec per
// IXP, which the existing scenario builder, campaign loop, and fleet run
// unchanged.  Any scale from the paper's 6 VPs to hundreds of IXPs and
// ~10^6 monitored links is one spec file away (see docs/SCALING.md for
// the format reference and worked examples).
//
// Spec files are `key = value` lines; `#` starts a comment.  The full key
// list lives in the kSpecKeys table in gen.cc and is linted against
// docs/SCALING.md by tools/check_docs.sh.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ixp::topo {

/// Parameterized substrate description.  Defaults describe a small
/// regional exchange mix; presets below cover the documented tiers.
struct TopoSpec {
  std::string name = "custom";  ///< label stamped into generated entity names
  std::uint64_t seed = 42;      ///< master seed; all draws derive from it
  int ixps = 6;                 ///< number of exchanges (one VP each)
  int days = 28;                ///< campaign length per VP
  int snapshot_days = 0;        ///< mid-campaign snapshot cadence (0 = end only)
  int regions = 5;              ///< geographic regions IXPs are spread over

  /// Members-per-IXP distribution: "fixed", "uniform", or "pareto"
  /// (heavy-tailed, like the real substrate: JINX/NAPAfrica-style large
  /// exchanges coexist with 3-member country IXPs).
  std::string members_dist = "pareto";
  double members_mean = 12.0;  ///< mean members per IXP (fixed/pareto)
  int members_min = 3;         ///< clamp / uniform lower bound
  int members_max = 400;       ///< clamp / uniform upper bound

  double multi_router_fraction = 0.15;  ///< members with 2-3 LAN routers
  double ptp_fraction = 0.05;           ///< members adding a private interconnect
  int transit_depth = 1;  ///< provider chain above each VP (1 = regional only)

  // RTT geography: one-way propagation delay by how far a member's edge
  // router sits from the exchange.
  double rtt_fabric_ms = 0.15;    ///< same-building port (paper default)
  double rtt_metro_ms = 1.0;      ///< metro backhaul into the exchange
  double rtt_region_ms = 8.0;     ///< neighboring-country member
  double rtt_continent_ms = 35.0; ///< cross-continent remote peering

  double capacity_min_mbps = 100.0;    ///< member port capacity, log-uniform
  double capacity_max_mbps = 10000.0;  ///< upper bound of the capacity draw

  // Behaviour mix (fractions of members, each drawn independently).
  double congested_fraction = 0.08;  ///< members with an undersized port
  double congested_aw_ms = 15.0;     ///< buffer depth of congested ports
  double congested_dtud_hours = 5.0; ///< daily congested hours at those ports
  double noise_fraction = 0.05;      ///< members with route-change RTT noise
  double silent_fraction = 0.04;     ///< members whose routers drop ICMP

  // Remote-peering (RIXP) knobs.  All default off so pre-existing presets
  // draw the exact same random streams as before; see docs/SCENARIOS.md.
  double vp_tail_ms = 0.0;      ///< one-way VP↔fabric tail (0 = in-building)
  double vp_tail_jitter = 0.0;  ///< cross-load jitter fraction on the VP port
  double remote_fraction = 0.0; ///< members peering remotely over long tails
  double rtt_remote_ms = 60.0;  ///< one-way tail of remotely peered members

  /// Colocation facilities per IXP (0 = members unassigned; facility
  /// faults and the facility detector need >= 1).
  int facilities = 0;
};

/// Parses `key = value` spec text.  Returns nullopt and fills `*error`
/// (unknown key, malformed value, failed validation) on failure.
std::optional<TopoSpec> parse_topo_spec(const std::string& text, std::string* error);

/// Reads and parses a spec file from disk.
std::optional<TopoSpec> load_topo_spec(const std::string& path, std::string* error);

/// Serializes a spec back to canonical `key = value` text (every key,
/// table order).  parse_topo_spec(topo_spec_to_string(s)) == s.
std::string topo_spec_to_string(const TopoSpec& spec);

/// Returns a non-empty message when the spec is out of range (negative
/// counts, fractions outside [0,1], min > max, unknown members.dist).
std::string validate_topo_spec(const TopoSpec& spec);

/// Named presets for the documented scale tiers ("paper6", "regional50",
/// "continent100") and the scenario-diversity substrates ("rixp16",
/// "facility8"; see docs/SCENARIOS.md).  Returns nullopt for other names.
std::optional<TopoSpec> topo_spec_preset(const std::string& name);
std::vector<std::string> topo_spec_preset_names();

/// Resolves a `--spec` argument: a preset name first, a spec file second,
/// so the documented tiers never depend on the working directory.  On
/// failure fills `*error` with "'<arg>' is neither a preset nor a spec
/// file: <reason>".
std::optional<TopoSpec> resolve_topo_spec(const std::string& arg, std::string* error);

}  // namespace ixp::topo
