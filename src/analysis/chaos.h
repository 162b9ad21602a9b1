// Chaos scoring: classifier verdicts vs. engineered scenario ground truth.
//
// A neighbor is a positive when its spec scripts behaviour the classifier
// is *supposed* to flag inside the measured window -- diurnal congestion
// on a monitored link, or slow-ICMP (which TSLP cannot tell apart from
// congestion; the paper's KNET case study).  Route-change noise is
// "potentially congested, no diurnal" by design: a negative.  Factored out
// of the `afixp chaos` subcommand so the serving layer's chaos-under-load
// regression (tests/test_serve.cc) scores against the exact same oracle.
#pragma once

#include <string_view>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/scenario.h"

namespace ixp::analysis {

/// One neighbor's ground-truth-vs-classified outcome in a chaos run.
struct ChaosRow {
  std::size_t vp = 0;          ///< spec index
  Asn asn = 0;
  std::string name;
  bool truth = false;          ///< engineered to be classified congested
  bool classified = false;     ///< some monitored link to it came back congested
  /// "TP" / "FP" / "FN" / "TN".
  [[nodiscard]] const char* outcome() const;
};

struct ChaosVpScore {
  std::size_t tp = 0, fp = 0, fn = 0, tn = 0;
};

/// Confusion counts for one scenario family ("paper6", "rixp", "reroute",
/// "facility", ...).  The link-congestion oracle contributes one row named
/// after the plan's family; the facility-aggregation oracle contributes a
/// "facility" row whose unit is a *facility*, not a link.
struct FamilyScore {
  std::string family;
  std::size_t tp = 0, fp = 0, fn = 0, tn = 0;
  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
};

struct ChaosScore {
  std::vector<ChaosRow> interesting;   ///< every non-TN outcome
  std::vector<ChaosRow> case_studies;  ///< VP1 GHANATEL + KNET (paper §6)
  std::vector<ChaosVpScore> per_vp;    ///< one entry per spec, spec order
  std::vector<FamilyScore> families;   ///< per-scenario-family breakdown
  std::size_t tp = 0, fp = 0, fn = 0, tn = 0;

  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
  [[nodiscard]] bool case_studies_ok() const;
};

/// Scores one fleet's classification results against the specs' engineered
/// ground truth.  `duration_override` must match the CampaignOptions value
/// the campaigns ran with (0 = each spec's full calendar): truth windows
/// are clipped to the measured window, so a shortened campaign is scored
/// only against faults it could have seen.
ChaosScore score_chaos(const std::vector<VpSpec>& specs,
                       const std::vector<VpCampaignResult>& results,
                       Duration duration_override = Duration(0),
                       std::string_view family = "paper6");

/// Scores the facility-aggregation detector (analysis/facility.h) against
/// the plan's facility-outage ground truth, per *facility*: a facility is
/// a true positive when some FacilityFault targeted it inside the measured
/// window and the detector flags it from the per-link far-series gaps.
/// The realized windows are reconstructed by re-expanding `plan` with the
/// same per-VP seed derivation the fleet uses (`fault_seed` must match
/// FleetOptions::fault_seed, `duration_override` the campaign's), so the
/// oracle needs no side channel out of the workers.  Requires the samples
/// in the result (far_rtt.ms populated, CampaignOptions::columnar off);
/// columnar results score zero detections.
FamilyScore score_facilities(const std::vector<VpSpec>& specs,
                             const std::vector<VpCampaignResult>& results,
                             const FaultPlan& plan,
                             std::uint64_t fault_seed,
                             Duration duration_override = Duration(0));

}  // namespace ixp::analysis
