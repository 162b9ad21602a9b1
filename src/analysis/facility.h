// Facility-aggregation detector: folds per-link disruption observations
// into facility-level verdicts, after "Detecting Network Disruptions At
// Colocation Facilities" (PAPERS.md).  The idea: a genuine facility-level
// event (power, cooling, a cut riser) takes down *every* link homed at one
// colocation facility at once, while independent per-link problems spread
// across facilities.  We therefore score each facility's disrupted-link
// count against a binomial null hypothesis — links fail independently at
// the substrate-wide background rate — and flag facilities whose
// concentration is too extreme to be chance.
//
// The background rate is estimated leave-one-out (from the links *outside*
// the facility under test, Laplace-smoothed), so a monitor-side event that
// disrupts every link everywhere (a VP outage) raises the null rate and
// scores as unconcentrated, while a single-facility event against an
// otherwise quiet substrate stays significant even on small topologies.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ixp::analysis {

/// One monitored link's contribution: which facility it is homed at and
/// whether the campaign saw it disrupted (long all-missing gap, refused
/// series, ...).  Links with an empty facility are counted toward the
/// background rate but can never receive a facility verdict.
struct FacilityObservation {
  std::string facility;
  std::string link_key;
  bool disrupted = false;
};

/// A facility needs at least this many monitored links to be judged at
/// all — one link carries no concentration information.
inline constexpr std::size_t kFacilityMinLinks = 2;
/// And at least this many of them disrupted: a single disrupted link is
/// a link problem, never a facility problem.
inline constexpr std::size_t kFacilityMinDisrupted = 2;
/// Binomial upper-tail threshold.  Calibrated against the smoothed
/// leave-one-out null: a fully disrupted 2-link facility on an
/// otherwise-quiet 10-link substrate scores ~8e-3, while a substrate-wide
/// outage (null rate ~0.9) scores ~0.65 — so 1e-2 separates the two with
/// an order of magnitude to spare on either side.
inline constexpr double kFacilityAlpha = 1e-2;

/// Aggregate verdict for one facility.
struct FacilityVerdict {
  std::string facility;
  std::size_t links = 0;      ///< monitored links homed here
  std::size_t disrupted = 0;  ///< of which disrupted
  /// P(X >= disrupted | links, background rate): probability of seeing at
  /// least this concentration if links failed independently.
  double p_value = 1.0;
  bool disrupted_verdict = false;
};

/// Upper tail P(X >= k) of a Binomial(n, p); exposed for tests.
double binomial_upper_tail(std::size_t k, std::size_t n, double p);

/// The detector's core, on counts: scores `v.disrupted` of `v.links`
/// against the leave-one-out background of a substrate of `total` links,
/// `total_disrupted` of them disrupted (both including `v`'s own), and
/// fills `v.p_value` and `v.disrupted_verdict`.
void score_facility(FacilityVerdict& v, std::size_t total, std::size_t total_disrupted);

/// Most suspicious first: verdicts, then ascending p-value, then name.
bool facility_rank_less(const FacilityVerdict& a, const FacilityVerdict& b);

/// Scores every facility appearing in `obs`: counts them and runs
/// score_facility on each.  Results are in facility_rank_less order.
std::vector<FacilityVerdict> detect_facility_disruptions(
    const std::vector<FacilityObservation>& obs);

}  // namespace ixp::analysis
