#include "analysis/facility.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace ixp::analysis {

double binomial_upper_tail(std::size_t k, std::size_t n, double p) {
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  // Sum the pmf from k to n through log-gamma: n stays small (links per
  // substrate), so the direct sum is both exact enough and cheap.
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  const double log_fact_n = std::lgamma(static_cast<double>(n) + 1.0);
  double tail = 0.0;
  for (std::size_t x = k; x <= n; ++x) {
    const double log_pmf = log_fact_n - std::lgamma(static_cast<double>(x) + 1.0) -
                           std::lgamma(static_cast<double>(n - x) + 1.0) +
                           static_cast<double>(x) * log_p +
                           static_cast<double>(n - x) * log_q;
    tail += std::exp(log_pmf);
  }
  return std::min(tail, 1.0);
}

void score_facility(FacilityVerdict& v, std::size_t total, std::size_t total_disrupted) {
  // Leave-one-out background rate with Laplace smoothing: what fraction
  // of the links *outside* this facility were disrupted?  Smoothing
  // keeps the null rate strictly inside (0, 1), so a quiet substrate
  // doesn't collapse the tail to an automatic zero.
  const std::size_t n_out = total - v.links;
  const std::size_t k_out = total_disrupted - v.disrupted;
  const double p_out = (static_cast<double>(k_out) + 1.0) / (static_cast<double>(n_out) + 2.0);
  v.p_value = binomial_upper_tail(v.disrupted, v.links, p_out);
  v.disrupted_verdict = v.links >= kFacilityMinLinks && v.disrupted >= kFacilityMinDisrupted &&
                        v.p_value <= kFacilityAlpha;
}

bool facility_rank_less(const FacilityVerdict& a, const FacilityVerdict& b) {
  if (a.disrupted_verdict != b.disrupted_verdict) return a.disrupted_verdict;
  if (a.p_value != b.p_value) return a.p_value < b.p_value;
  return a.facility < b.facility;
}

std::vector<FacilityVerdict> detect_facility_disruptions(
    const std::vector<FacilityObservation>& obs) {
  std::size_t total = 0, total_disrupted = 0;
  std::map<std::string, FacilityVerdict> by_facility;
  for (const FacilityObservation& o : obs) {
    ++total;
    if (o.disrupted) ++total_disrupted;
    if (o.facility.empty()) continue;  // background only
    FacilityVerdict& v = by_facility[o.facility];
    v.facility = o.facility;
    ++v.links;
    if (o.disrupted) ++v.disrupted;
  }

  std::vector<FacilityVerdict> out;
  out.reserve(by_facility.size());
  for (auto& [name, v] : by_facility) {
    score_facility(v, total, total_disrupted);
    out.push_back(std::move(v));
  }
  std::sort(out.begin(), out.end(), facility_rank_less);
  return out;
}

}  // namespace ixp::analysis
