#include "serve/snapshot.h"

#include <algorithm>
#include <functional>
#include <map>

#include "util/strings.h"

namespace ixp::serve {
namespace {

/// The `/api/v1/links/top` entry of one link: every field but the episode
/// list.  Rendered once per fold (LinkState::row_json).
void append_link_json(std::string& out, const LinkState& l) {
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
  out += strformat("\"max_magnitude_ms\":%.6g,", l.max_magnitude_ms);
  if (l.has_verdict) {
    out += strformat("\"verdict\":\"%s\",", verdict_name(l.verdict));
    out += strformat("\"persistence\":\"%s\",", persistence_name(l.persistence));
    out += strformat("\"diurnal\":%s,", l.diurnal ? "true" : "false");
    out += strformat("\"near_clean\":%s}", l.near_clean ? "true" : "false");
  } else {
    out += "\"verdict\":null}";
  }
}

void append_snapshot_header(std::string& out, const Snapshot& snap) {
  out += strformat("\"epoch\":%llu,\"pass\":%llu,\"final\":%s,\"sim_time\":\"%s\",",
                   static_cast<unsigned long long>(snap.epoch),
                   static_cast<unsigned long long>(snap.pass),
                   snap.final_pass ? "true" : "false",
                   format_time(snap.sim_time).c_str());
}

bool rank_less(const LinkState& a, const LinkState& b) {
  if (a.congested() != b.congested()) return a.congested();
  if (a.max_magnitude_ms != b.max_magnitude_ms) return a.max_magnitude_ms > b.max_magnitude_ms;
  if (a.key != b.key) return a.key < b.key;
  return a.vp_name < b.vp_name;
}

bool facility_less(const std::shared_ptr<const FacilityState>& a,
                   const std::shared_ptr<const FacilityState>& b) {
  return analysis::facility_rank_less(a->score, b->score);
}

/// A link counts as disrupted for facility aggregation when its far side
/// never produced enough coverage to judge, or went dark for over 10 % of
/// its rounds — the snapshot-level proxy for "all links at this facility
/// dropped together".
bool link_disrupted(const LinkState& l) {
  return l.refused_low_coverage || l.coverage < 0.90;
}

void append_facility_json(std::string& out, const FacilityState& f) {
  out += "{";
  out += strformat("\"facility\":\"%s\",", json_escape(f.score.facility).c_str());
  out += strformat("\"links\":%zu,", f.score.links);
  out += strformat("\"congested\":%zu,", f.congested);
  out += strformat("\"disrupted\":%zu,", f.score.disrupted);
  out += strformat("\"p_value\":%.6g,", f.score.p_value);
  out += strformat("\"disrupted_verdict\":%s,", f.score.disrupted_verdict ? "true" : "false");
  out += strformat("\"max_magnitude_ms\":%.6g}", f.max_magnitude_ms);
}

/// Rank-ordered `order` with its `stale` entries replaced by `fresh` (also
/// in rank order): O(order) moves and O(fresh · log order) comparisons.
/// `less` is a total order on live entries, so the result is the sequence
/// a full sort of the live entries would produce.
template <class T, class Stale, class Less>
std::vector<T> merge_ranked(const std::vector<T>& order, const std::vector<T>& fresh,
                            const Stale& stale, const Less& less) {
  std::vector<T> out;
  out.reserve(order.size() + fresh.size());
  auto it = order.begin();
  for (const T& f : fresh) {
    const auto pos = std::lower_bound(it, order.end(), f, less);
    for (; it != pos; ++it) {
      if (!stale(*it)) out.push_back(*it);
    }
    out.push_back(f);
  }
  for (; it != order.end(); ++it) {
    if (!stale(*it)) out.push_back(*it);
  }
  return out;
}

/// Finds or creates `key` among a VP's links and refreshes the identity
/// fields every fold carries.
LinkState& touch(std::map<std::string, LinkState>& links,
                 const std::map<std::string, std::string>& facility_of, const std::string& vp,
                 const std::string& ixp, const std::string& key, std::uint32_t far_asn,
                 bool at_ixp) {
  LinkState& l = links[key];
  l.key = key;
  l.vp_name = vp;
  l.ixp = ixp;
  l.far_asn = far_asn;
  l.at_ixp = at_ixp;
  if (const auto it = facility_of.find(vp + "/" + std::to_string(far_asn));
      it != facility_of.end()) {
    l.facility = it->second;
  }
  return l;
}

}  // namespace

const char* verdict_name(tslp::Verdict v) {
  switch (v) {
    case tslp::Verdict::kNotCongested: return "not_congested";
    case tslp::Verdict::kPotentiallyCongested: return "potentially_congested";
    case tslp::Verdict::kInconclusive: return "inconclusive";
    case tslp::Verdict::kCongested: return "congested";
  }
  return "unknown";
}

const char* persistence_name(tslp::Persistence p) {
  switch (p) {
    case tslp::Persistence::kNone: return "none";
    case tslp::Persistence::kTransient: return "transient";
    case tslp::Persistence::kSustained: return "sustained";
  }
  return "unknown";
}

std::string render_links_top(const Snapshot& snap, std::size_t n) {
  std::string out = "{";
  append_snapshot_header(out, snap);
  out += strformat("\"total_links\":%zu,\"links\":[", snap.links.size());
  const std::size_t count = std::min(n, snap.links.size());
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out += ",";
    out += snap.links[i].row_json;
  }
  out += "]}";
  return out;
}

bool render_ixp_summary(const Snapshot& snap, std::string_view ixp, std::string* out) {
  IxpPart sum;
  for (const auto& shard : snap.links.shards()) {
    const auto it = shard->ixps.find(ixp);
    if (it == shard->ixps.end()) continue;
    const IxpPart& p = it->second;
    sum.links += p.links;
    sum.classified += p.classified;
    sum.congested += p.congested;
    sum.potentially += p.potentially;
    sum.refused += p.refused;
    sum.episodes += p.episodes;
    sum.max_magnitude_ms = std::max(sum.max_magnitude_ms, p.max_magnitude_ms);
  }
  if (sum.links == 0) return false;
  std::string body = "{";
  append_snapshot_header(body, snap);
  body += strformat("\"ixp\":\"%s\",", json_escape(ixp).c_str());
  body += strformat("\"links\":%zu,", sum.links);
  body += strformat("\"classified\":%zu,", sum.classified);
  body += strformat("\"congested\":%zu,", sum.congested);
  body += strformat("\"potentially_congested\":%zu,", sum.potentially);
  body += strformat("\"refused_low_coverage\":%zu,", sum.refused);
  body += strformat("\"episodes\":%zu,", sum.episodes);
  body += strformat("\"max_magnitude_ms\":%.6g}", sum.max_magnitude_ms);
  *out = std::move(body);
  return true;
}

bool render_link_episodes(const Snapshot& snap, std::string_view key, std::string* out) {
  for (const LinkState& l : snap.links) {
    if (l.key != key) continue;
    std::string body = "{";
    append_snapshot_header(body, snap);
    body += "\"link\":";
    body.append(l.row_json, 0, l.row_json.size() - 1);  // reopen the row object
    body += ",\"episodes\":[";
    for (std::size_t i = 0; i < l.episodes.size(); ++i) {
      const tslp::Episode& e = l.episodes[i];
      if (i > 0) body += ",";
      body += strformat("{\"begin_round\":%zu,\"end_round\":%zu,"
                        "\"magnitude_ms\":%.6g,\"p_value\":%.6g}",
                        e.begin, e.end, e.magnitude_ms, e.p_value);
    }
    body += "]}}";
    *out = std::move(body);
    return true;
  }
  return false;
}

std::string render_facilities_top(const Snapshot& snap, std::size_t n) {
  const std::size_t total = snap.facilities ? snap.facilities->size() : 0;
  std::string out = "{";
  append_snapshot_header(out, snap);
  out += strformat("\"total_facilities\":%zu,\"facilities\":[", total);
  const std::size_t count = std::min(n, total);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out += ",";
    out += (*snap.facilities)[i]->json;
  }
  out += "]}";
  return out;
}

bool render_facility_summary(const Snapshot& snap, std::string_view facility,
                             std::string* out) {
  if (!snap.facilities) return false;
  for (const auto& f : *snap.facilities) {
    if (f->score.facility != facility) continue;
    std::string body = "{";
    append_snapshot_header(body, snap);
    body += "\"summary\":";
    body += f->json;
    body += ",\"links\":[";
    bool first = true;
    for (const LinkState& l : snap.links) {
      if (l.facility != facility) continue;
      if (!first) body += ",";
      first = false;
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

template <class Update>
void SnapshotBuilder::fold(const std::string& vp, TimePoint at, const Update& update) {
  const std::lock_guard<std::mutex> lock(mu_);
  sim_time_ = std::max(sim_time_, at);
  std::shared_ptr<const LinkShard>& slot = shards_[vp];
  // Copy-on-write of this VP's links only.
  std::map<std::string, LinkState> links;
  if (slot) {
    for (const LinkState& l : slot->links) links.emplace(l.key, l);
  }
  update(links);
  auto next = std::make_shared<LinkShard>();
  next->links.reserve(links.size());
  for (auto& [key, l] : links) {
    l.max_magnitude_ms = 0.0;
    for (const tslp::Episode& e : l.episodes) {
      l.max_magnitude_ms = std::max(l.max_magnitude_ms, e.magnitude_ms);
    }
    l.row_json.clear();
    append_link_json(l.row_json, l);
    next->links.push_back(std::move(l));
  }
  std::sort(next->links.begin(), next->links.end(), rank_less);
  for (const LinkState& l : next->links) {
    IxpPart& ip = next->ixps[l.ixp];
    ++ip.links;
    if (l.congested()) ++ip.congested;
    if (l.has_verdict) {
      ++ip.classified;
      if (l.verdict != tslp::Verdict::kNotCongested) ++ip.potentially;
    } else if (!l.episodes.empty()) {
      ++ip.potentially;  // live evidence only: shifts seen, verdict pending
    }
    if (l.refused_low_coverage) ++ip.refused;
    ip.episodes += l.episodes.size();
    ip.max_magnitude_ms = std::max(ip.max_magnitude_ms, l.max_magnitude_ms);

    const bool disrupted = link_disrupted(l);
    if (disrupted) ++next->disrupted;
    if (l.facility.empty()) continue;
    FacilityPart& part = next->facilities[l.facility];
    ++part.links;
    if (l.congested()) ++part.congested;
    if (disrupted) ++part.disrupted;
    part.max_magnitude_ms = std::max(part.max_magnitude_ms, l.max_magnitude_ms);
  }

  // Merge the VP's new links into the global rank order in place of its
  // old ones; every other pointer (and shard) carries over.
  std::vector<const LinkState*> fresh;
  fresh.reserve(next->links.size());
  for (const LinkState& l : next->links) fresh.push_back(&l);
  const std::less<const LinkState*> before;
  const LinkState* const lo = slot ? slot->links.data() : nullptr;
  const LinkState* const hi = slot ? lo + slot->links.size() : nullptr;
  auto ranking = std::make_shared<RankedLinks::Frozen>();
  ranking->order = merge_ranked(
      ranking_ ? ranking_->order : std::vector<const LinkState*>{}, fresh,
      [&](const LinkState* p) { return lo != nullptr && !before(p, lo) && before(p, hi); },
      [](const LinkState* a, const LinkState* b) { return rank_less(*a, *b); });

  update_facilities(vp, slot.get(), *next);
  slot = std::move(next);
  ranking->shards.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) ranking->shards.push_back(shard);
  ranking_ = std::move(ranking);
}

void SnapshotBuilder::update_facilities(const std::string& vp, const LinkShard* old,
                                        const LinkShard& next) {
  const std::size_t old_links = old ? old->links.size() : 0;
  const std::size_t old_disrupted = old ? old->disrupted : 0;
  const bool totals_changed = next.links.size() != old_links || next.disrupted != old_disrupted;
  total_links_ = total_links_ - old_links + next.links.size();
  total_disrupted_ = total_disrupted_ - old_disrupted + next.disrupted;

  // This VP's share moves in every facility it had or has.
  std::vector<std::string> touched;
  if (old) {
    for (const auto& [name, part] : old->facilities) touched.push_back(name);
  }
  for (const auto& [name, part] : next.facilities) {
    if (!old || !old->facilities.contains(name)) touched.push_back(name);
    facilities_[name].by_vp[vp] = part;
  }
  if (old) {
    for (const auto& [name, part] : old->facilities) {
      if (!next.facilities.contains(name)) facilities_[name].by_vp.erase(vp);
    }
  }

  // Re-aggregate and re-score: the touched facilities, or all of them when
  // the substrate totals (the detector's background) moved.
  std::vector<std::shared_ptr<const FacilityState>> fresh;
  std::vector<const FacilityState*> stale;
  auto refresh = [&](const std::string& name, Facility& f) {
    FacilityState s;
    for (const auto& [v, part] : f.by_vp) {
      s.score.links += part.links;
      s.congested += part.congested;
      s.score.disrupted += part.disrupted;
      s.max_magnitude_ms = std::max(s.max_magnitude_ms, part.max_magnitude_ms);
    }
    analysis::score_facility(s.score, total_links_, total_disrupted_);
    const FacilityState* cur = f.state.get();
    if (cur != nullptr && cur->score.links == s.score.links &&
        cur->score.disrupted == s.score.disrupted && cur->congested == s.congested &&
        cur->max_magnitude_ms == s.max_magnitude_ms && cur->score.p_value == s.score.p_value &&
        cur->score.disrupted_verdict == s.score.disrupted_verdict) {
      return;
    }
    if (cur != nullptr) stale.push_back(cur);
    f.state.reset();
    if (s.score.links == 0) return;  // no member left: the facility drops out
    s.score.facility = name;
    append_facility_json(s.json, s);
    f.state = std::make_shared<const FacilityState>(std::move(s));
    fresh.push_back(f.state);
  };
  if (totals_changed) {
    for (auto& [name, f] : facilities_) refresh(name, f);
  } else {
    for (const std::string& name : touched) refresh(name, facilities_.at(name));
  }
  if (fresh.empty() && stale.empty()) return;

  const std::less<const FacilityState*> before;
  std::sort(stale.begin(), stale.end(), before);
  std::sort(fresh.begin(), fresh.end(), facility_less);
  facility_rank_ = std::make_shared<const FacilityTable>(merge_ranked(
      facility_rank_ ? *facility_rank_ : FacilityTable{}, fresh,
      [&](const std::shared_ptr<const FacilityState>& f) {
        return std::binary_search(stale.begin(), stale.end(), f.get(), before);
      },
      facility_less));
}

void SnapshotBuilder::fold_live(const std::string& vp, const std::string& ixp,
                                const analysis::LiveVerdictBatch& batch) {
  fold(vp, batch.at, [&](std::map<std::string, LinkState>& links) {
    for (const analysis::LiveLinkVerdict& v : batch.links) {
      LinkState& l = touch(links, facility_of_, vp, ixp, v.key, v.far_asn, v.at_ixp);
      l.samples = v.samples;
      l.baseline_ms = v.far.baseline_ms;
      l.coverage = v.far.coverage;
      l.refused_low_coverage = v.far.refused_low_coverage;
      l.episodes = v.far.episodes;
      // A live fold never clears a final verdict from an earlier pass; the
      // verdict stays until this pass's final fold replaces it.
    }
  });
}

void SnapshotBuilder::fold_final(const std::string& vp, const std::string& ixp,
                                 const analysis::VpCampaignResult& result) {
  fold(vp, TimePoint{}, [&](std::map<std::string, LinkState>& links) {
    for (std::size_t i = 0; i < result.reports.size() && i < result.series.size(); ++i) {
      const tslp::LinkReport& rep = result.reports[i];
      const tslp::LinkSeries& ls = result.series[i];
      LinkState& l = touch(links, facility_of_, vp, ixp, ls.key, ls.far_asn, ls.at_ixp);
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
  });
}

void SnapshotBuilder::begin_pass(std::uint64_t pass) {
  const std::lock_guard<std::mutex> lock(mu_);
  pass_ = pass;
}

void SnapshotBuilder::set_facilities(std::map<std::string, std::string> by_vp_asn) {
  const std::lock_guard<std::mutex> lock(mu_);
  facility_of_ = std::move(by_vp_asn);
}

std::shared_ptr<const Snapshot> SnapshotBuilder::build(std::string metrics_prom,
                                                       bool final_pass) {
  auto snap = std::make_shared<Snapshot>();
  {
    // Handles only: the links and facilities are shared, never copied.
    const std::lock_guard<std::mutex> lock(mu_);
    snap->epoch = next_epoch_++;
    snap->pass = pass_;
    snap->sim_time = sim_time_;
    snap->links = RankedLinks(ranking_);
    snap->facilities = facility_rank_;
  }
  snap->final_pass = final_pass;
  snap->metrics_prom = std::move(metrics_prom);
  snap->links_top_default = render_links_top(*snap, Snapshot::kDefaultTopN);
  snap->facilities_top_default = render_facilities_top(*snap, Snapshot::kDefaultTopN);
  return snap;
}

}  // namespace ixp::serve
