#include "analysis/chaos.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "analysis/facility.h"
#include "sim/faults.h"

namespace ixp::analysis {

const char* ChaosRow::outcome() const {
  return truth ? (classified ? "TP" : "FN") : (classified ? "FP" : "TN");
}

double FamilyScore::precision() const {
  return tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 1.0;
}

double FamilyScore::recall() const {
  return tp + fn > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 1.0;
}

double ChaosScore::precision() const {
  return tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 1.0;
}

double ChaosScore::recall() const {
  return tp + fn > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 1.0;
}

bool ChaosScore::case_studies_ok() const {
  for (const ChaosRow& r : case_studies) {
    if (r.truth != r.classified) return false;
  }
  return true;
}

ChaosScore score_chaos(const std::vector<VpSpec>& specs,
                       const std::vector<VpCampaignResult>& results,
                       Duration duration_override, std::string_view family) {
  ChaosScore score;
  score.families.push_back({std::string(family)});
  score.per_vp.resize(specs.size());
  for (std::size_t i = 0; i < specs.size() && i < results.size(); ++i) {
    const VpSpec& spec = specs[i];
    const VpCampaignResult& result = results[i];
    const TimePoint start = spec.campaign_start;
    const TimePoint end = duration_override.count() > 0 ? start + duration_override
                                                        : spec.campaign_end;
    std::set<Asn> congested_asns;
    for (std::size_t k = 0; k < result.reports.size(); ++k) {
      if (result.reports[k].congested()) congested_asns.insert(result.series[k].far_asn);
    }
    const auto overlaps = [&](TimePoint b, TimePoint e) { return b < end && e > start; };
    ChaosVpScore& vp = score.per_vp[i];
    for (const auto& n : spec.neighbors) {
      if (n.silent) continue;  // invisible to the prober by design
      ChaosRow row;
      row.vp = i;
      row.asn = n.asn;
      row.name = n.name;
      for (const auto& c : n.congestion) row.truth |= overlaps(c.begin, c.end);
      for (const auto& c : n.congestion_ptp) row.truth |= overlaps(c.begin, c.end);
      if (n.slow_icmp) row.truth |= overlaps(n.slow_icmp->begin, n.slow_icmp->end);
      row.classified = congested_asns.count(n.asn) > 0;
      (row.truth ? (row.classified ? vp.tp : vp.fn) : (row.classified ? vp.fp : vp.tn)) += 1;
      if (row.truth || row.classified) score.interesting.push_back(row);
      if (spec.vp_name == "VP1" && (n.asn == 29614 || n.asn == 33786)) {
        score.case_studies.push_back(row);
      }
    }
    score.tp += vp.tp;
    score.fp += vp.fp;
    score.fn += vp.fn;
    score.tn += vp.tn;
  }
  score.families[0].tp = score.tp;
  score.families[0].fp = score.fp;
  score.families[0].fn = score.fn;
  score.families[0].tn = score.tn;
  return score;
}

FamilyScore score_facilities(const std::vector<VpSpec>& specs,
                             const std::vector<VpCampaignResult>& results,
                             const FaultPlan& plan, std::uint64_t fault_seed,
                             Duration duration_override) {
  FamilyScore score;
  score.family = "facility-detector";
  // A far series that stops answering for at least this long counts as a
  // disrupted link.  Facility-outage windows are >= 6 h (72 rounds at the
  // 5-minute cadence), so an hour of consecutive loss separates them
  // cleanly from incidental probe loss.
  constexpr std::size_t kDisruptedGapRounds = 12;
  for (std::size_t i = 0; i < specs.size() && i < results.size(); ++i) {
    const VpSpec& spec = specs[i];
    const VpCampaignResult& result = results[i];
    const TimePoint start = spec.campaign_start;
    const TimePoint end = duration_override.count() > 0 ? start + duration_override
                                                        : spec.campaign_end;

    // Mirror attach_fault_plan's facility enumeration exactly: facilities
    // in neighbor order (first appearance), restricted to fault-eligible
    // members, so nth_facility resolves to the same name here and there.
    std::vector<std::string> facilities;
    std::map<Asn, std::string> facility_of;
    for (const auto& n : spec.neighbors) {
      if (!n.facility.empty()) facility_of.emplace(n.asn, n.facility);
      if (n.facility.empty() || !fault_eligible_neighbor(n, spec.campaign_start)) continue;
      if (std::find(facilities.begin(), facilities.end(), n.facility) == facilities.end()) {
        facilities.push_back(n.facility);
      }
    }

    // Ground truth: re-expand the plan with the fleet's per-VP seed and
    // mark the facility each fault targeted (when any realized window
    // overlaps the measured window).
    std::set<std::string> truth;
    if (!plan.facility_outages.empty() && !facilities.empty()) {
      sim::FaultInjector fi(plan, vp_fault_seed(fault_seed, i), start, end);
      for (std::size_t k = 0; k < plan.facility_outages.size(); ++k) {
        const auto& fac =
            facilities[static_cast<std::size_t>(plan.facility_outages[k].nth_facility) %
                       facilities.size()];
        for (const auto& w : fi.facility_windows()[k]) {
          if (w.begin < end && w.end > start) {
            truth.insert(fac);
            break;
          }
        }
      }
    }

    // Detection: one observation per monitored link, disrupted when its
    // far series went dark for kDisruptedGapRounds consecutive rounds.
    std::vector<FacilityObservation> obs;
    for (const auto& ls : result.series) {
      FacilityObservation o;
      const auto it = facility_of.find(ls.far_asn);
      if (it != facility_of.end()) o.facility = it->second;
      o.link_key = ls.key;
      o.disrupted = !tslp::find_gaps(ls.far_rtt, kDisruptedGapRounds).empty();
      obs.push_back(std::move(o));
    }
    std::set<std::string> detected;
    for (const auto& v : detect_facility_disruptions(obs)) {
      if (v.disrupted_verdict) detected.insert(v.facility);
    }

    for (const auto& fac : facilities) {
      const bool t = truth.count(fac) > 0;
      const bool d = detected.count(fac) > 0;
      (t ? (d ? score.tp : score.fn) : (d ? score.fp : score.tn)) += 1;
    }
    // A detection outside the eligible-facility universe is still a false
    // positive (it can only come from the detector misfiring).
    for (const auto& fac : detected) {
      if (std::find(facilities.begin(), facilities.end(), fac) == facilities.end()) ++score.fp;
    }
  }
  return score;
}

}  // namespace ixp::analysis
