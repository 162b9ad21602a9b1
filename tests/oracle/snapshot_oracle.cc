#include "oracle/snapshot_oracle.h"

#include <algorithm>
#include <map>

#include "analysis/facility.h"
#include "util/strings.h"

namespace ixp::oracle {
namespace {

double max_magnitude_ms(const serve::LinkState& l) {
  double m = 0.0;
  for (const tslp::Episode& e : l.episodes) m = std::max(m, e.magnitude_ms);
  return m;
}

void append_link_json(std::string& out, const serve::LinkState& l, bool with_episodes) {
  out += "{";
  out += strformat("\"key\":\"%s\",", json_escape(l.key).c_str());
  out += strformat("\"vp\":\"%s\",", json_escape(l.vp_name).c_str());
  out += strformat("\"ixp\":\"%s\",", json_escape(l.ixp).c_str());
  out += strformat("\"far_asn\":%u,", l.far_asn);
  out += strformat("\"at_ixp\":%s,", l.at_ixp ? "true" : "false");
  if (!l.facility.empty()) {
    out += strformat("\"facility\":\"%s\",", json_escape(l.facility).c_str());
  }
  out += strformat("\"samples\":%zu,", l.samples);
  out += strformat("\"baseline_ms\":%.6g,", l.baseline_ms);
  out += strformat("\"coverage\":%.6g,", l.coverage);
  out += strformat("\"refused_low_coverage\":%s,", l.refused_low_coverage ? "true" : "false");
  out += strformat("\"episode_count\":%zu,", l.episodes.size());
  out += strformat("\"max_magnitude_ms\":%.6g,", max_magnitude_ms(l));
  if (l.has_verdict) {
    out += strformat("\"verdict\":\"%s\",", serve::verdict_name(l.verdict));
    out += strformat("\"persistence\":\"%s\",", serve::persistence_name(l.persistence));
    out += strformat("\"diurnal\":%s,", l.diurnal ? "true" : "false");
    out += strformat("\"near_clean\":%s,", l.near_clean ? "true" : "false");
  } else {
    out += "\"verdict\":null,";
  }
  if (with_episodes) {
    out += "\"episodes\":[";
    for (std::size_t i = 0; i < l.episodes.size(); ++i) {
      const tslp::Episode& e = l.episodes[i];
      if (i > 0) out += ",";
      out += strformat("{\"begin_round\":%zu,\"end_round\":%zu,"
                       "\"magnitude_ms\":%.6g,\"p_value\":%.6g}",
                       e.begin, e.end, e.magnitude_ms, e.p_value);
    }
    out += "],";
  }
  out.pop_back();  // trailing comma
  out += "}";
}

void append_snapshot_header(std::string& out, const RebuiltEpoch& snap) {
  out += strformat("\"epoch\":%llu,\"pass\":%llu,\"final\":%s,\"sim_time\":\"%s\",",
                   static_cast<unsigned long long>(snap.epoch),
                   static_cast<unsigned long long>(snap.pass),
                   snap.final_pass ? "true" : "false",
                   format_time(snap.sim_time).c_str());
}

bool rank_less(const serve::LinkState& a, const serve::LinkState& b) {
  if (a.congested() != b.congested()) return a.congested();
  const double ma = max_magnitude_ms(a), mb = max_magnitude_ms(b);
  if (ma != mb) return ma > mb;
  if (a.key != b.key) return a.key < b.key;
  return a.vp_name < b.vp_name;
}

/// A link counts as disrupted for facility aggregation when its far side
/// never produced enough coverage to judge, or went dark for over 10 % of
/// its rounds — the snapshot-level proxy for "all links at this facility
/// dropped together".
bool link_disrupted(const serve::LinkState& l) {
  return l.refused_low_coverage || l.coverage < 0.90;
}

struct FacilityAgg {
  std::size_t links = 0;
  std::size_t congested = 0;
  std::size_t disrupted = 0;
  double max_magnitude_ms = 0.0;
  double p_value = 1.0;
  bool disrupted_verdict = false;
  std::vector<const serve::LinkState*> members;
};

/// Groups the snapshot's links by facility and runs the facility
/// aggregation detector over every link (unassigned links feed the
/// background disruption rate only).  Returned in detector rank order.
std::vector<std::pair<std::string, FacilityAgg>> aggregate_facilities(const RebuiltEpoch& snap) {
  std::vector<analysis::FacilityObservation> obs;
  obs.reserve(snap.links.size());
  std::map<std::string, FacilityAgg> agg;
  for (const serve::LinkState& l : snap.links) {
    obs.push_back({l.facility, l.vp_name + "/" + l.key, link_disrupted(l)});
    if (l.facility.empty()) continue;
    FacilityAgg& a = agg[l.facility];
    ++a.links;
    if (l.congested()) ++a.congested;
    if (link_disrupted(l)) ++a.disrupted;
    a.max_magnitude_ms = std::max(a.max_magnitude_ms, max_magnitude_ms(l));
    a.members.push_back(&l);
  }
  std::vector<std::pair<std::string, FacilityAgg>> out;
  out.reserve(agg.size());
  for (const analysis::FacilityVerdict& v : analysis::detect_facility_disruptions(obs)) {
    const auto it = agg.find(v.facility);
    if (it == agg.end()) continue;
    it->second.p_value = v.p_value;
    it->second.disrupted_verdict = v.disrupted_verdict;
    out.emplace_back(it->first, std::move(it->second));
  }
  return out;
}

void append_facility_json(std::string& out, const std::string& name, const FacilityAgg& a) {
  out += "{";
  out += strformat("\"facility\":\"%s\",", json_escape(name).c_str());
  out += strformat("\"links\":%zu,", a.links);
  out += strformat("\"congested\":%zu,", a.congested);
  out += strformat("\"disrupted\":%zu,", a.disrupted);
  out += strformat("\"p_value\":%.6g,", a.p_value);
  out += strformat("\"disrupted_verdict\":%s,", a.disrupted_verdict ? "true" : "false");
  out += strformat("\"max_magnitude_ms\":%.6g}", a.max_magnitude_ms);
}

}  // namespace

std::string render_links_top(const RebuiltEpoch& snap, std::size_t n) {
  std::string out = "{";
  append_snapshot_header(out, snap);
  out += strformat("\"total_links\":%zu,\"links\":[", snap.links.size());
  const std::size_t count = std::min(n, snap.links.size());
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out += ",";
    append_link_json(out, snap.links[i], /*with_episodes=*/false);
  }
  out += "]}";
  return out;
}

bool render_ixp_summary(const RebuiltEpoch& snap, std::string_view ixp, std::string* out) {
  std::size_t links = 0, congested = 0, potentially = 0, refused = 0, episodes = 0;
  std::size_t with_verdict = 0;
  double max_mag = 0.0;
  for (const serve::LinkState& l : snap.links) {
    if (l.ixp != ixp) continue;
    ++links;
    if (l.congested()) ++congested;
    if (l.has_verdict) {
      ++with_verdict;
      if (l.verdict != tslp::Verdict::kNotCongested) ++potentially;
    } else if (!l.episodes.empty()) {
      ++potentially;  // live evidence only: shifts seen, verdict pending
    }
    if (l.refused_low_coverage) ++refused;
    episodes += l.episodes.size();
    max_mag = std::max(max_mag, max_magnitude_ms(l));
  }
  if (links == 0) return false;
  std::string body = "{";
  append_snapshot_header(body, snap);
  body += strformat("\"ixp\":\"%s\",", json_escape(ixp).c_str());
  body += strformat("\"links\":%zu,", links);
  body += strformat("\"classified\":%zu,", with_verdict);
  body += strformat("\"congested\":%zu,", congested);
  body += strformat("\"potentially_congested\":%zu,", potentially);
  body += strformat("\"refused_low_coverage\":%zu,", refused);
  body += strformat("\"episodes\":%zu,", episodes);
  body += strformat("\"max_magnitude_ms\":%.6g}", max_mag);
  *out = std::move(body);
  return true;
}

bool render_link_episodes(const RebuiltEpoch& snap, std::string_view key, std::string* out) {
  for (const serve::LinkState& l : snap.links) {
    if (l.key != key) continue;
    std::string body = "{";
    append_snapshot_header(body, snap);
    body += "\"link\":";
    append_link_json(body, l, /*with_episodes=*/true);
    body += "}";
    *out = std::move(body);
    return true;
  }
  return false;
}

std::string render_facilities_top(const RebuiltEpoch& snap, std::size_t n) {
  const auto ranked = aggregate_facilities(snap);
  std::string out = "{";
  append_snapshot_header(out, snap);
  out += strformat("\"total_facilities\":%zu,\"facilities\":[", ranked.size());
  const std::size_t count = std::min(n, ranked.size());
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out += ",";
    append_facility_json(out, ranked[i].first, ranked[i].second);
  }
  out += "]}";
  return out;
}

bool render_facility_summary(const RebuiltEpoch& snap, std::string_view facility,
                             std::string* out) {
  const auto ranked = aggregate_facilities(snap);
  for (const auto& [name, agg] : ranked) {
    if (name != facility) continue;
    std::string body = "{";
    append_snapshot_header(body, snap);
    body += "\"summary\":";
    append_facility_json(body, name, agg);
    body += ",\"links\":[";
    for (std::size_t i = 0; i < agg.members.size(); ++i) {
      const serve::LinkState& l = *agg.members[i];
      if (i > 0) body += ",";
      body += strformat("{\"key\":\"%s\",\"vp\":\"%s\",\"coverage\":%.6g,"
                        "\"disrupted\":%s}",
                        json_escape(l.key).c_str(), json_escape(l.vp_name).c_str(),
                        l.coverage, link_disrupted(l) ? "true" : "false");
    }
    body += "]}";
    *out = std::move(body);
    return true;
  }
  return false;
}

serve::LinkState& RebuildBuilder::touch(const std::string& vp, const std::string& ixp,
                                        const std::string& key, std::uint32_t far_asn,
                                        bool at_ixp) {
  serve::LinkState& l = links_[vp + "/" + key];
  l.key = key;
  l.vp_name = vp;
  l.ixp = ixp;
  l.far_asn = far_asn;
  l.at_ixp = at_ixp;
  if (const auto it = facility_of_.find(vp + "/" + std::to_string(far_asn));
      it != facility_of_.end()) {
    l.facility = it->second;
  }
  return l;
}

void RebuildBuilder::fold_live(const std::string& vp, const std::string& ixp,
                               const analysis::LiveVerdictBatch& batch) {
  sim_time_ = std::max(sim_time_, batch.at);
  for (const analysis::LiveLinkVerdict& v : batch.links) {
    serve::LinkState& l = touch(vp, ixp, v.key, v.far_asn, v.at_ixp);
    l.samples = v.samples;
    l.baseline_ms = v.far.baseline_ms;
    l.coverage = v.far.coverage;
    l.refused_low_coverage = v.far.refused_low_coverage;
    l.episodes = v.far.episodes;
  }
}

void RebuildBuilder::fold_final(const std::string& vp, const std::string& ixp,
                                const analysis::VpCampaignResult& result) {
  for (std::size_t i = 0; i < result.reports.size() && i < result.series.size(); ++i) {
    const tslp::LinkReport& rep = result.reports[i];
    const tslp::LinkSeries& ls = result.series[i];
    serve::LinkState& l = touch(vp, ixp, ls.key, ls.far_asn, ls.at_ixp);
    l.baseline_ms = rep.far_shifts.baseline_ms;
    l.coverage = rep.far_shifts.coverage;
    l.refused_low_coverage = rep.far_shifts.refused_low_coverage;
    l.episodes = rep.far_shifts.episodes;
    l.has_verdict = true;
    l.verdict = rep.verdict;
    l.persistence = rep.persistence;
    l.diurnal = rep.has_diurnal_pattern();
    l.near_clean = rep.near_clean;
  }
}

RebuiltEpoch RebuildBuilder::build(bool final_pass) {
  RebuiltEpoch snap;
  snap.epoch = next_epoch_++;
  snap.pass = pass_;
  snap.sim_time = sim_time_;
  snap.final_pass = final_pass;
  snap.links.reserve(links_.size());
  for (const auto& [id, l] : links_) snap.links.push_back(l);
  std::sort(snap.links.begin(), snap.links.end(), rank_less);
  snap.links_top_default = render_links_top(snap, serve::Snapshot::kDefaultTopN);
  snap.facilities_top_default = render_facilities_top(snap, serve::Snapshot::kDefaultTopN);
  return snap;
}

}  // namespace ixp::oracle
