#include "analysis/campaign.h"

#include <algorithm>
#include <limits>
#include <set>

#include "geo/dns_lite.h"
#include "sim/faults.h"
#include "registry/registry.h"
#include "tslp/engine.h"
#include "tslp/online.h"
#include "util/strings.h"

namespace ixp::analysis {
namespace {

// Derives monitored targets from a bdrmap result.
std::vector<prober::MonitorTarget> to_targets(const bdrmap::BdrmapResult& borders, Asn vp_asn) {
  std::vector<prober::MonitorTarget> out;
  out.reserve(borders.links.size());
  for (const auto& l : borders.links) {
    prober::MonitorTarget t;
    t.key = strformat("AS%u-AS%u-%s", vp_asn, l.far_asn, l.far_ip.to_string().c_str());
    t.near_ip = l.near_ip;
    t.far_ip = l.far_ip;
    t.near_asn = vp_asn;
    t.far_asn = l.far_asn;
    t.at_ixp = l.at_ixp;
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

std::size_t VpCampaignResult::potentially_congested(double threshold_ms) const {
  std::size_t n = 0;
  for (const auto& r : reports) {
    const bool hit = std::any_of(r.far_shifts.episodes.begin(), r.far_shifts.episodes.end(),
                                 [&](const tslp::Episode& e) { return e.magnitude_ms >= threshold_ms; });
    n += hit ? 1 : 0;
  }
  return n;
}

std::size_t VpCampaignResult::with_diurnal(double threshold_ms) const {
  std::size_t n = 0;
  for (const auto& r : reports) {
    if (!r.has_diurnal_pattern()) continue;
    const bool hit = std::any_of(r.far_shifts.episodes.begin(), r.far_shifts.episodes.end(),
                                 [&](const tslp::Episode& e) { return e.magnitude_ms >= threshold_ms; });
    n += hit ? 1 : 0;
  }
  return n;
}

std::size_t VpCampaignResult::congested() const {
  std::size_t n = 0;
  for (const auto& r : reports) n += r.congested() ? 1 : 0;
  return n;
}

VpCampaignResult run_campaign(ScenarioRuntime& rt, const VpSpec& spec, const CampaignOptions& opt) {
  VpCampaignResult result;
  result.vp_name = spec.vp_name;

  const TimePoint start = spec.campaign_start;
  const TimePoint end = opt.duration_override.count() > 0
                            ? start + opt.duration_override
                            : spec.campaign_end;

  prober::Prober prober(rt.topology.net(), rt.vp_host, 100.0);
  sim::Simulator& simulator = rt.topology.net().simulator();
  simulator.advance_to(start);
  rt.apply_timeline_until(start);

  // Covers the whole campaign window in simulated time; records on scope
  // exit, so the span lands in the registry before the caller reads it.  A
  // null registry disarms the scope entirely.
  obs::ScopedSpan window_span(
      opt.metrics != nullptr ? opt.metrics->span(metric::kWindowSpan) : nullptr,
      [&simulator] { return simulator.now(); });

  // ---- Discovery: initial bdrmap run --------------------------------------
  auto run_bdrmap = [&]() {
    ++result.bdrmap_runs;
    const auto data = registry::harvest(rt.topology, *rt.bgp, rt.vp_asn, rt.collectors);
    bdrmap::Bdrmap mapper(prober, data, rt.vp_asn);
    return mapper.run();
  };
  bdrmap::BdrmapResult borders = run_bdrmap();

  std::vector<prober::MonitorTarget> targets = to_targets(borders, rt.vp_asn);
  // Every segment's samples stream into the columnar store; the store is
  // the only accumulator.  CampaignOptions::columnar decides only the shape
  // the samples are handed back in (see the final classification below).
  const auto store = std::make_shared<series::SeriesStore>(start, opt.round_interval);

  // Final classification runs at the 5 ms floor (threshold sweeps re-filter
  // episodes by magnitude afterwards); computed up front because the online
  // detectors must scan windows with the same options finalize will use.
  tslp::ClassifierOptions final_opts = opt.classifier;
  final_opts.level_shift.threshold_ms = std::min(final_opts.level_shift.threshold_ms, 5.0);
  tslp::LevelShiftOptions online_near_opts = final_opts.level_shift;
  online_near_opts.threshold_ms = final_opts.near_threshold_ms;
  std::vector<tslp::OnlineLevelShift> online_near, online_far;

  // Responder-identity change rounds per link, accumulated across segments
  // in campaign-global round indices (the driver reports segment-relative
  // ones).  Feeds the reroute-vs-congestion cross-check after final
  // classification.
  std::vector<std::vector<std::size_t>> responder_rounds;

  std::set<net::Ipv4Address> known_far;
  // Registers a monitored link.  A link discovered mid-campaign joins the
  // store and the online detectors with its past as one missing run.
  auto add_link = [&](const prober::MonitorTarget& t) {
    const std::uint64_t elapsed = store->size() > 0 ? store->samples(0) : 0;
    known_far.insert(t.far_ip);
    responder_rounds.emplace_back();
    store->add_link(series::LinkMeta{t.key, t.near_ip, t.far_ip, t.near_asn, t.far_asn, t.at_ixp},
                    elapsed);
    if (!opt.online) return;
    online_near.emplace_back(online_near_opts, start, opt.round_interval);
    online_far.emplace_back(final_opts.level_shift, start, opt.round_interval);
    if (elapsed > 0) {
      const std::vector<double> pad(elapsed, tslp::kMissing);
      online_near.back().push(pad);
      online_far.back().push(pad);
    }
  };
  for (const auto& t : targets) add_link(t);

  // ---- Segment boundaries: membership changes and snapshots ---------------
  std::vector<TimePoint> boundaries;
  for (const auto& ev : rt.timeline) {
    if (ev.membership && ev.at > start && ev.at < end) boundaries.push_back(ev.at);
  }
  for (const auto& s : spec.snapshot_dates) {
    if (s > start && s < end) boundaries.push_back(s);
  }
  boundaries.push_back(end);
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());

  const std::set<TimePoint> snapshot_set(spec.snapshot_dates.begin(), spec.snapshot_dates.end());

  tslp::CongestionClassifier classifier(opt.classifier);

  // §5.1 location cross-check inputs (built once; the address plan and the
  // PTR zone are static over the campaign).
  const geo::GeoDatabase geo_db = geo::build_geo_database(rt.topology);
  const geo::DnsLite dns(rt.topology);

  // Buffers shared by the sweeps over the store below (snapshots, live
  // verdicts, final classification): each decodes one link at a time, so
  // the working set stays a single series regardless of fleet scale.
  std::vector<double> far_buf;
  tslp::LinkSeries window;
  tslp::DetectScratch scratch;
  // Table 2's snapshot.  While the trailing 60-day window is still the
  // whole series and ends on the last pushed round, an online campaign's
  // detectors have already scanned every complete window of it: the near
  // detector runs at the snapshot's near options, and the far one (pushed
  // at the 5 ms floor) finalizes at the classifier threshold, which is
  // exact (see the threshold replay in tslp/online.h).  Each daily
  // boundary then costs one far assembly per link (and a near one per link
  // with far episodes) instead of a re-scan of its whole prefix.  A
  // sliding window past day 60 cannot reuse the detectors: the
  // bootstrap seed is keyed to the window begin *within the slice*, so its
  // change points differ from the ones the detectors accepted on the full
  // series.  Those, snapshots off the round grid (the window ends before
  // the last pushed round) and offline campaigns classify from scratch.
  auto record_snapshot = [&](TimePoint at, const bdrmap::BdrmapResult& b) {
    SnapshotResult snap;
    snap.at = at;
    snap.discovered_links = b.link_count();
    snap.peering_links = b.peering_link_count();
    snap.neighbors = b.neighbors.size();
    snap.peers = b.peers.size();
    snap.accuracy = bdrmap::score(b, rt.topology.interdomain_links_of(rt.vp_asn));
    // Congestion status of currently-live links, judged on the trailing
    // 60 days of their series (links congested long ago but mitigated are
    // no longer counted; see EXPERIMENTS.md on Table 2 semantics).
    std::set<net::Ipv4Address> live;
    for (const auto& l : b.links) live.insert(l.far_ip);
    const std::size_t min_samples =
        static_cast<std::size_t>((kDay * 2).count() / opt.round_interval.count());
    const std::size_t window_samples =
        static_cast<std::size_t>((kDay * 60).count() / opt.round_interval.count());
    const tslp::SeriesView grid{{}, start, opt.round_interval};
    for (std::size_t li = 0; li < store->size(); ++li) {
      const series::LinkMeta& m = store->meta(li);
      if (!live.count(m.far_ip)) continue;
      const std::size_t n =
          std::min<std::size_t>(grid.index_of(at), static_cast<std::size_t>(store->samples(li)));
      if (n < min_samples) continue;  // not enough data to judge
      const std::size_t begin = n > window_samples ? n - window_samples : 0;
      store->decode_into(li, window.near_rtt.ms, window.far_rtt.ms);
      window.key = m.key;
      window.near_rtt.start = grid.time_of(begin);
      window.near_rtt.interval = opt.round_interval;
      window.far_rtt.start = window.near_rtt.start;
      window.far_rtt.interval = opt.round_interval;
      if (opt.online && begin == 0 && n == online_far[li].samples_seen()) {
        tslp::LevelShiftResult far = online_far[li].finalize(
            tslp::view_of(window.far_rtt), scratch, opt.classifier.level_shift.threshold_ms);
        // A link without far episodes is kNotCongested whatever its near
        // side shows (classify_with_shifts stops there), so most links
        // skip the near finalize.
        if (!far.any()) continue;
        const tslp::LinkReport r = classifier.classify_with_shifts(
            window, std::move(far),
            online_near[li].finalize(tslp::view_of(window.near_rtt), scratch));
        if (r.congested()) ++snap.congested_links;
        continue;
      }
      for (auto* ms : {&window.near_rtt.ms, &window.far_rtt.ms}) {
        ms->resize(n);
        ms->erase(ms->begin(), ms->begin() + static_cast<std::ptrdiff_t>(begin));
      }
      if (classifier.classify(window).congested()) ++snap.congested_links;
    }
    // Location cross-check over the inferred peering links.
    std::size_t checked = 0, consistent = 0;
    for (const auto& l : b.links) {
      if (!l.at_ixp) continue;
      const auto* ixp = rt.topology.find_ixp(l.ixp_name);
      if (!ixp) continue;
      ++checked;
      const auto verdict = geo::check_end_location(geo_db, dns, l.far_ip, *ixp);
      if (verdict == geo::LocationVerdict::kConfirmed || verdict == geo::LocationVerdict::kWeak) {
        ++consistent;
      }
    }
    snap.location_consistent = checked ? static_cast<double>(consistent) / checked : 1.0;
    result.snapshots.push_back(std::move(snap));
  };

  // Mirrors the running totals into the registry.  Everything here is a
  // set(), not an add(): the sources (prober, driver accumulators, fault
  // counters) are themselves monotone, so re-publishing at every boundary
  // is idempotent and observers see consistent values mid-run.
  auto publish = [&] {
    obs::Registry* reg = opt.metrics;
    if (reg == nullptr) return;
    reg->counter(metric::kRounds)->set(result.rounds_completed);
    reg->counter(metric::kProbesSent)->set(prober.probes_sent());
    reg->counter(metric::kProbesLost)->set(result.probes_lost);
    reg->counter(metric::kBdrmapRuns)->set(result.bdrmap_runs);
    reg->gauge(metric::kMonitoredLinks)->set(static_cast<double>(targets.size()));
    reg->counter(metric::kRecordRoutes)->set(result.record_routes);
    reg->counter(metric::kRecordRoutesSymmetric)->set(result.record_routes_symmetric);
    reg->counter(metric::kRelearns, "cause=\"stale\"")->set(result.stale_relearns);
    reg->counter(metric::kRelearns, "cause=\"loss\"")->set(result.loss_relearns);
    if (opt.faults != nullptr) {
      reg->counter(metric::kFaultEvents)->set(opt.faults->counters().timeline_faults);
      reg->counter(metric::kProbesSuppressed)
          ->set(opt.faults->counters().probes_suppressed);
      reg->counter(metric::kOutageRounds)->set(opt.faults->counters().outage_rounds);
    }
    reg->gauge(metric::kSeriesResidentBytes)->set(static_cast<double>(store->resident_bytes()));
    reg->gauge(metric::kSeriesRawBytes)->set(static_cast<double>(store->raw_bytes()));
    reg->counter(metric::kSeriesSamples)->set(store->samples_total());
  };

  auto report_progress = [&](TimePoint at, bool finished) {
    publish();
    if (!opt.on_progress) return;
    opt.on_progress(CampaignProgress{at, finished});
  };

  // Live verdicts for the serving layer: finalize every link's online far
  // detector against its far series-so-far (the near column is not read).
  // The window scans already ran as rounds completed, so this is only the
  // assembly tail per link; finalize does not mutate the detector, so
  // later segments keep pushing into it.
  auto report_verdicts = [&](TimePoint at) {
    if (!opt.online || !opt.on_verdicts) return;
    LiveVerdictBatch batch;
    batch.vp_name = spec.vp_name;
    batch.ixp = spec.ixp.name;
    batch.at = at;
    batch.links.reserve(store->size());
    for (std::size_t i = 0; i < store->size(); ++i) {
      store->decode_far_into(i, far_buf);
      const series::LinkMeta& m = store->meta(i);
      LiveLinkVerdict v;
      v.key = m.key;
      v.far_asn = m.far_asn;
      v.at_ixp = m.at_ixp;
      v.samples = far_buf.size();
      v.far = online_far[i].finalize(tslp::SeriesView{far_buf, start, opt.round_interval},
                                     scratch);
      batch.links.push_back(std::move(v));
    }
    opt.on_verdicts(batch);
  };

  // ---- Main loop ------------------------------------------------------------
  // Probing rounds live on the campaign-global grid start + k*interval.
  // Segment boundaries (membership events, snapshot dates) may fall
  // anywhere, so each segment starts at the first grid point at or after
  // its boundary and runs a whole number of rounds; a cadence that does
  // not divide a boundary offset must never shift later samples off the
  // grid (regression: GridAlignment in tests/test_campaigns.cc).  For the
  // paper scenarios -- boundaries on day marks, 5-minute cadence -- the
  // alignment is the identity and output is byte-identical to before.
  const std::int64_t iv = opt.round_interval.count();
  auto grid_align_up = [&](TimePoint tp) {
    const std::int64_t k = ((tp - start).count() + iv - 1) / iv;
    return start + Duration(k * iv);
  };
  TimePoint t = start;
  for (const TimePoint b : boundaries) {
    if (b > t) {
      const TimePoint seg_start = grid_align_up(t);
      const std::int64_t rounds = seg_start < b ? ((b - seg_start).count() + iv - 1) / iv : 0;
      prober::TslpConfig cfg;
      cfg.round_interval = opt.round_interval;
      cfg.pre_round = [&rt](TimePoint at) { rt.apply_timeline_until(at); };
      // One record-route measurement per link per day (the paper's RR
      // campaign for path-symmetry checks).
      cfg.rr_every_rounds = static_cast<int>(kDay.count() / opt.round_interval.count());
      cfg.faults = opt.faults;
      prober::TslpDriver driver(prober, cfg);
      auto segment = driver.run(targets, seg_start, seg_start + Duration(rounds * iv),
                                [&](std::size_t) { ++result.rounds_completed; });
      result.record_routes += driver.record_routes();
      result.record_routes_symmetric += driver.record_routes_symmetric();
      result.stale_relearns += driver.stale_relearns();
      result.loss_relearns += driver.loss_relearns();
      result.probes_lost += driver.probes_lost();
      if (opt.metrics != nullptr) {
        opt.metrics->span(metric::kSegmentSpan)->record(b - t);
      }
      for (std::size_t i = 0; i < segment.size(); ++i) {
        const auto base = static_cast<std::size_t>(store->samples(i));
        for (const std::size_t rr : segment[i].responder_changes) {
          responder_rounds[i].push_back(base + rr);
        }
        if (opt.online) {
          online_near[i].push(segment[i].near_rtt.ms);
          online_far[i].push(segment[i].far_rtt.ms);
        }
        store->append(i, segment[i].near_rtt.ms, segment[i].far_rtt.ms);
      }
      t = b;
    }
    rt.apply_timeline_until(b);
    // Membership may have changed; rediscover and absorb new links.
    borders = run_bdrmap();
    for (const auto& nt : to_targets(borders, rt.vp_asn)) {
      if (known_far.count(nt.far_ip)) continue;
      add_link(nt);
      targets.push_back(nt);
    }
    if (snapshot_set.count(b)) record_snapshot(b, borders);
    report_verdicts(b);
    report_progress(b, false);
  }

  // ---- Final classification (5 ms floor for threshold sweeps) --------------
  // Decode-classify one link at a time.  Online campaigns already ran the
  // window scans as rounds completed, so they only replay the assembly
  // tail against the decoded series; offline ones detect here.  The two
  // are byte-identical.  The far-RTT histogram is observed on the way, so
  // the samples are decoded once.
  tslp::CongestionClassifier final_classifier(final_opts);
  obs::Histogram* rtt_hist =
      opt.metrics != nullptr
          ? opt.metrics->histogram(metric::kFarRttMs, {5, 10, 20, 50, 100, 200, 500, 1000})
          : nullptr;
  tslp::LinkSeries decoded;
  result.reports.reserve(store->size());
  result.series.reserve(store->size());
  for (std::size_t i = 0; i < store->size(); ++i) {
    store->decode_into(i, decoded);
    tslp::LinkReport report =
        opt.online
            ? final_classifier.classify_with_shifts(
                  decoded, online_far[i].finalize(tslp::view_of(decoded.far_rtt), scratch),
                  online_near[i].finalize(tslp::view_of(decoded.near_rtt), scratch))
            : final_classifier.classify(decoded);
    if (rtt_hist != nullptr) {
      for (const double ms : decoded.far_rtt.ms) rtt_hist->observe(ms);  // NaN = missing round
    }
    // Reroute-vs-congestion cross-check: a verdict whose every far episode
    // begins at a responder-identity change is explained by the path
    // moving under the monitor, not by queueing -- downgrade it (the
    // scenario diversity pack's discrimination requirement; see
    // tslp::crosscheck_reroute).
    decoded.responder_changes = std::move(responder_rounds[i]);
    tslp::crosscheck_reroute(report, decoded.responder_changes);
    result.reports.push_back(std::move(report));
    result.series.push_back(std::move(decoded));
    if (opt.columnar) {
      // The samples stay in the store: keep metadata only and take the
      // buffers back for the next link.  Swapping with the moved-from
      // (empty) vectors leaves the result holding no sample capacity;
      // `ms = {}` would clear the samples but keep the allocation.
      tslp::LinkSeries& head = result.series.back();
      std::swap(decoded.near_rtt.ms, head.near_rtt.ms);
      std::swap(decoded.far_rtt.ms, head.far_rtt.ms);
    }
  }
  if (opt.columnar) result.columns = store;

  result.probes_sent = prober.probes_sent();
  if (opt.faults != nullptr) {
    result.fault_events = opt.faults->counters().timeline_faults;
    result.probes_suppressed = opt.faults->counters().probes_suppressed;
    result.outage_rounds = opt.faults->counters().outage_rounds;
  }

  // Completion-time scrape: runtime internals (fluid queues, packet
  // transport) and detector outcomes; the far-RTT distribution was
  // observed during classification.  These are not re-published mid-run -- they are either cumulative
  // runtime totals or only meaningful once classification has run.
  if (opt.metrics != nullptr) {
    obs::Registry* reg = opt.metrics;
    const sim::Network& net = rt.topology.net();
    const sim::FluidQueue::Stats qs = net.queue_stats();
    reg->counter(metric::kQueueHeadroomSkips)->set(qs.headroom_skips);
    reg->counter(metric::kQueueIntegrationSteps)->set(qs.integration_steps);
    reg->counter(metric::kQueueTailDrops)->set(qs.tail_drops);
    reg->counter(metric::kNetDropped)->set(net.packets_dropped);
    reg->counter(metric::kNetIcmp)->set(net.icmp_generated);
    reg->counter(metric::kNetHops)->set(net.hops_walked);
    reg->counter(metric::kNetWalkPlans)->set(net.plans_resolved);
    std::uint64_t episodes = 0, raw_episodes = 0, refused = 0;
    std::uint64_t windows_scanned = 0, windows_skipped = 0;
    for (const auto& r : result.reports) {
      for (const tslp::LevelShiftResult* ls : {&r.far_shifts, &r.near_shifts}) {
        episodes += ls->episodes.size();
        raw_episodes += ls->raw_episode_count;
        refused += ls->refused_low_coverage ? 1 : 0;
        windows_scanned += ls->windows_scanned;
        windows_skipped += ls->windows_skipped_dark + ls->windows_skipped_quiet;
      }
    }
    reg->counter(metric::kDetectorEpisodes)->set(episodes);
    reg->counter(metric::kDetectorRawEpisodes)->set(raw_episodes);
    reg->counter(metric::kDetectorRefused)->set(refused);
    reg->counter(metric::kDetectorWindowsScanned)->set(windows_scanned);
    reg->counter(metric::kDetectorWindowsSkipped)->set(windows_skipped);
  }

  report_progress(end, true);
  return result;
}

std::optional<Duration> round_interval_from_minutes(double minutes, const char* source,
                                                    std::ostream& err) {
  if (!(minutes >= 1.0)) {
    err << source << " must be at least 1 minute, got " << strformat("%g", minutes) << "\n";
    return std::nullopt;
  }
  return Duration(static_cast<std::int64_t>(minutes * 60e9));
}

std::optional<Duration> campaign_length_from_days(std::int64_t days, TimePoint latest_start,
                                                  const char* source, std::ostream& err) {
  if (days < 0) {
    err << source << " must be at least 0, got " << days << "\n";
    return std::nullopt;
  }
  const std::int64_t max_days =
      (std::numeric_limits<std::int64_t>::max() - std::max<std::int64_t>(0, latest_start.ns())) /
      kDay.count();
  if (days > max_days) {
    err << source << " must be at most " << max_days << " (the simulated clock's range), got "
        << days << "\n";
    return std::nullopt;
  }
  return kDay * days;
}

std::optional<int> thread_count_from_flag(std::int64_t value, bool zero_is_auto,
                                          const char* source, std::ostream& err) {
  if ((value == 0 && zero_is_auto) || (value >= 1 && value <= kMaxThreadsFlag)) {
    return static_cast<int>(value);
  }
  err << source << " must be " << (zero_is_auto ? "0 (auto) or " : "") << "in 1.."
      << kMaxThreadsFlag << ", got " << value << "\n";
  return std::nullopt;
}

TimePoint latest_campaign_start(const std::vector<VpSpec>& specs) {
  TimePoint latest{};
  for (const VpSpec& s : specs) latest = std::max(latest, s.campaign_start);
  return latest;
}

}  // namespace ixp::analysis
