// End-to-end integration over the paper's actual scenarios (shortened
// campaigns): the full pipeline must rediscover the right links, flag the
// right congestion, and match the calibrated Table 2 cells.  These are the
// heaviest tests in the suite (a few seconds each).
#include <gtest/gtest.h>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/casebook.h"
#include "analysis/tables.h"
#include <algorithm>
#include <bit>
#include <set>
#include <sstream>

#include "obs/export.h"
#include "registry/registry.h"
#include "topo/calendar.h"
#include "util/strings.h"

namespace ixp::analysis {
namespace {

using topo::date;

VpCampaignResult run_days(const VpSpec& spec, int days, Duration round = kMinute * 30,
                          obs::Registry* metrics = nullptr) {
  auto rt = build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = round;
  opt.duration_override = kDay * days;
  opt.metrics = metrics;
  return run_campaign(*rt, spec, opt);
}

TEST(PaperCampaigns, Vp1FirstMonthsFindGhanatelOnly) {
  // Through May 2016 only the GHANATEL transit link is congested.
  const auto spec = make_vp1_gixa();
  const auto result = run_days(spec, 80);
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (result.reports[i].congested()) {
      EXPECT_EQ(result.series[i].far_asn, 29614u) << result.series[i].key;
    }
  }
  EXPECT_GE(result.congested(), 1u);
  // The first snapshot must match the paper's cell: 46 (36) / 13 neighbors.
  ASSERT_GE(result.snapshots.size(), 1u);
  EXPECT_EQ(result.snapshots[0].discovered_links, 46u);
  EXPECT_EQ(result.snapshots[0].peering_links, 36u);
  EXPECT_EQ(result.snapshots[0].neighbors, 13u);
  EXPECT_EQ(result.snapshots[0].congested_links, 2u);  // ptp + contaminated LAN reply path
}

TEST(PaperCampaigns, Vp1RecordRoutesCollected) {
  const auto spec = make_vp1_gixa();
  const auto result = run_days(spec, 30);
  EXPECT_GT(result.record_routes, 0u);
  // The paper verified path symmetry on GIXA links.
  EXPECT_GT(result.record_routes_symmetric, result.record_routes / 2);
}

TEST(PaperCampaigns, Vp4NetpageCongestedThenClean) {
  const auto spec = make_vp4_sixp();
  // Through June: phase 1 (congested through 28/04) plus two clean months.
  const auto result = run_days(spec, 120);
  bool netpage_congested = false;
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (result.series[i].far_asn == 65400 && result.reports[i].congested()) {
      netpage_congested = true;
      EXPECT_EQ(result.reports[i].persistence, tslp::Persistence::kTransient);
    }
  }
  EXPECT_TRUE(netpage_congested);
  // Zero record routes: QCELL filters the option (Table 2).
  EXPECT_EQ(result.record_routes, 0u);
  // Snapshot 1 matches the paper: 14 (11), 7 (6).
  ASSERT_GE(result.snapshots.size(), 1u);
  EXPECT_EQ(result.snapshots[0].discovered_links, 14u);
  EXPECT_EQ(result.snapshots[0].peering_links, 11u);
  EXPECT_EQ(result.snapshots[0].neighbors, 7u);
}

TEST(PaperCampaigns, Vp6NothingCongestedManyFlagged) {
  const auto spec = make_vp6_rinex();
  const auto result = run_days(spec, 100);
  EXPECT_EQ(result.congested(), 0u);
  // Route-change noise flags many links without diurnal patterns.
  EXPECT_GT(result.potentially_congested(5.0), 10u);
  EXPECT_EQ(result.with_diurnal(10.0), 0u);
  EXPECT_EQ(result.record_routes, 0u);  // RDB filters RR
}

TEST(PaperCampaigns, CasebookGhanatelChecksOutInFigScenario) {
  const auto spec = make_fig_ghanatel();
  auto rt = build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = kMinute * 15;
  opt.duration_override = date(20, 6, 2016) - spec.campaign_start;
  const auto result = run_campaign(*rt, spec, opt);
  const tslp::LinkSeries* link = nullptr;
  for (const auto& s : result.series) {
    if (s.far_asn == 29614 && !s.at_ixp) link = &s;
  }
  ASSERT_NE(link, nullptr);
  tslp::CongestionClassifier classifier;
  const auto report = classifier.classify(
      tslp::slice(*link, date(7, 3, 2016), date(13, 6, 2016)));
  const auto check = check_case(case_ghanatel(), report);
  EXPECT_TRUE(check.verdict_congested);
  EXPECT_TRUE(check.a_w_in_range) << report.waveform.a_w_ms;
  EXPECT_TRUE(check.persistence_matches);
  EXPECT_TRUE(check.weekday_pattern_matches);
}

TEST(PaperCampaigns, Table1RowGenerator) {
  const auto spec = make_vp4_sixp();
  const auto result = run_days(spec, 90);
  const auto row = make_table1_row(result);
  EXPECT_EQ(row.vp, "VP4");
  // NETPAGE flagged and diurnal at 5 and 10 ms.
  EXPECT_GE(row.flagged[0], 1u);
  EXPECT_GE(row.diurnal[0], 1u);
  EXPECT_GE(row.diurnal[1], 1u);
  // Counts are monotone non-increasing in the threshold.
  for (int i = 1; i < 4; ++i) {
    EXPECT_LE(row.flagged[i], row.flagged[i - 1]);
    EXPECT_LE(row.diurnal[i], row.diurnal[i - 1]);
  }
}

TEST(PaperCampaigns, Vp5FullScaleTopologyBuilds) {
  // The 1:1 KIXP world (the paper's ~1,215 neighbors) must build, route,
  // and be border-mappable; campaigns use the 1:8 scale but nothing in the
  // code depends on it.
  const auto spec = make_vp5_kixp(/*scale=*/1);
  auto rt = build_scenario(spec);
  // Pre-growth world: apply the full timeline to connect every wave.
  rt->apply_timeline_until(spec.campaign_end);
  const auto truth = rt->topology.interdomain_links_of(spec.vp_asn);
  EXPECT_GT(truth.size(), 1000u);
  std::set<topo::Asn> neighbors;
  for (const auto& t : truth) neighbors.insert(t.far_asn);
  EXPECT_GT(neighbors.size(), 1000u);  // paper: 1,215
}

TEST(PaperCampaigns, HeadroomSkipCarriesProbeTraffic) {
  // Probes book their own bytes into every queue they cross, so an
  // uncongested queue is rarely exactly empty; the headroom skip must still
  // settle most queries on such links through the drain proof.  The share
  // measures 0.59 here (VP1's congested GHANATEL link keeps integrating);
  // the floor is about half of that.  The skip saves profile evaluations,
  // not probe work: the probe and hop counts are pinned.
  obs::Registry reg;
  run_days(make_vp1_gixa(), 30, kMinute * 30, &reg);
  const auto skips = static_cast<double>(reg.counter_value(metric::kQueueHeadroomSkips));
  const auto steps = static_cast<double>(reg.counter_value(metric::kQueueIntegrationSteps));
  EXPECT_GT(skips / (skips + steps), 0.30);
  EXPECT_EQ(reg.counter_value(metric::kProbesSent), 136285u);
  EXPECT_EQ(reg.counter_value(metric::kNetHops), 520889u);
}

TEST(PaperCampaigns, WalkPlansAreReusedAcrossRounds) {
  // TSLP probes each target's near and far route every round; the route is
  // resolved once per target and again only when it changes.  Every
  // one-off probe (bdrmap, traceroutes, record-route) resolves exactly one
  // plan, so at most `plans` probes are one-offs: the bound below holds for
  // the round probes' own resolutions however the total splits.  If reuse
  // died, plans would equal probes.  Probe and hop counts are the values
  // the per-hop walk produced: resolution never changes what is probed.
  obs::Registry reg;
  run_days(make_vp1_gixa(), 30, kMinute * 5, &reg);
  const std::uint64_t plans = reg.counter_value(metric::kNetWalkPlans);
  const std::uint64_t probes = reg.counter_value(metric::kProbesSent);
  ASSERT_GT(plans, 0u);
  EXPECT_LT(plans * 100, probes - plans);  // < 1 % of round probes (3,989 here)
  EXPECT_EQ(probes, 798685u);
  EXPECT_EQ(reg.counter_value(metric::kNetHops), 3046238u);
}

TEST(Campaigns, GridAlignment) {
  // Regression for the segment-boundary arithmetic (see the grid_align_up
  // comment in campaign.cc): with a cadence that does not divide the
  // membership/snapshot boundaries (7 minutes vs midnight events), every
  // segment must resume on the campaign-global grid start + k*interval.
  // The old code restarted each segment at the boundary itself, drifting
  // the sample grid and over-counting rounds.
  const auto spec = make_vp1_gixa();
  auto rt = build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = kMinute * 7;  // 1440 % 7 != 0: day marks are off-grid
  opt.duration_override = kDay * 30;
  const auto result = run_campaign(*rt, spec, opt);

  const auto iv = opt.round_interval.count();
  const auto window = (kDay * 30).count();
  const auto expect_rounds = static_cast<std::size_t>((window + iv - 1) / iv);
  ASSERT_FALSE(result.series.empty());
  for (const auto& ls : result.series) {
    // Every link that was up from the start holds exactly one sample per
    // grid point in the window -- no duplicated or phantom rounds at
    // segment seams.
    EXPECT_LE(ls.near_rtt.ms.size(), expect_rounds) << ls.key;
    EXPECT_EQ(ls.near_rtt.ms.size(), ls.far_rtt.ms.size()) << ls.key;
    if (ls.far_asn == 29614) {  // GHANATEL: connected for the whole window
      EXPECT_EQ(ls.near_rtt.ms.size(), expect_rounds) << ls.key;
    }
    EXPECT_EQ(ls.near_rtt.interval.count(), iv);
  }
}

TEST(Campaigns, ColumnarMatchesRawByteForByte) {
  // CampaignOptions::columnar must be invisible to every consumer: same
  // classifications, same snapshots, and the store's decoded series
  // bit-identical to the sample vectors handed back with columnar=false.
  // Both shapes come out of the same store; the check against samples that
  // never went through it is StoreDecodesDriverSamplesBitForBit below.
  const auto spec = make_vp4_sixp();
  CampaignOptions opt;
  opt.round_interval = kMinute * 30;
  opt.duration_override = kDay * 45;

  auto rt_raw = build_scenario(spec);
  const auto raw = run_campaign(*rt_raw, spec, opt);
  auto rt_col = build_scenario(spec);
  CampaignOptions copt = opt;
  copt.columnar = true;
  const auto col = run_campaign(*rt_col, spec, copt);

  ASSERT_NE(col.columns, nullptr);
  EXPECT_EQ(raw.columns, nullptr);
  ASSERT_EQ(col.series.size(), raw.series.size());
  ASSERT_EQ(col.columns->size(), raw.series.size());
  EXPECT_EQ(col.probes_sent, raw.probes_sent);
  EXPECT_EQ(col.rounds_completed, raw.rounds_completed);

  for (std::size_t i = 0; i < raw.series.size(); ++i) {
    // Metadata rides along in both modes; the columnar result keeps the
    // sample vectors empty and serves them from the store.
    EXPECT_EQ(col.series[i].key, raw.series[i].key);
    EXPECT_TRUE(col.series[i].near_rtt.ms.empty());
    const auto ls = col.columns->decode(i);
    EXPECT_EQ(ls.key, raw.series[i].key);
    ASSERT_EQ(ls.near_rtt.ms.size(), raw.series[i].near_rtt.ms.size()) << ls.key;
    ASSERT_EQ(ls.far_rtt.ms.size(), raw.series[i].far_rtt.ms.size()) << ls.key;
    for (std::size_t k = 0; k < ls.near_rtt.ms.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ls.near_rtt.ms[k]),
                std::bit_cast<std::uint64_t>(raw.series[i].near_rtt.ms[k]))
          << ls.key << " near sample " << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ls.far_rtt.ms[k]),
                std::bit_cast<std::uint64_t>(raw.series[i].far_rtt.ms[k]))
          << ls.key << " far sample " << k;
    }
  }
  // Classification verdicts are identical.
  ASSERT_EQ(col.reports.size(), raw.reports.size());
  for (std::size_t i = 0; i < raw.reports.size(); ++i) {
    EXPECT_EQ(col.reports[i].congested(), raw.reports[i].congested());
    EXPECT_EQ(col.reports[i].potentially_congested(), raw.reports[i].potentially_congested());
  }
  ASSERT_EQ(col.snapshots.size(), raw.snapshots.size());
  for (std::size_t i = 0; i < raw.snapshots.size(); ++i) {
    EXPECT_EQ(col.snapshots[i].discovered_links, raw.snapshots[i].discovered_links);
    EXPECT_EQ(col.snapshots[i].congested_links, raw.snapshots[i].congested_links);
  }
  // The bounded-RSS claim: the store holds fewer bytes than raw doubles.
  EXPECT_LT(col.columns->resident_bytes(), col.columns->raw_bytes());
}

TEST(Campaigns, StoreDecodesDriverSamplesBitForBit) {
  // The store is the campaign's only sample accumulator, so its codec is
  // held to a reference that bypasses it: the campaign's probing replayed
  // through TslpDriver directly -- bdrmap, then per boundary one segment
  // and a rediscovery -- with each link's raw near/far vectors
  // concatenated (a late link's past padded as missing).  Every decoded
  // sample must equal what the driver produced, bit for bit.  VP6's first
  // 60 days have membership changes, so segments meet at seams and links
  // join mid-campaign.
  const auto spec = make_vp6_rinex();
  CampaignOptions opt;
  opt.round_interval = kMinute * 30;
  opt.duration_override = kDay * 60;
  opt.columnar = true;
  auto rt_camp = build_scenario(spec);
  const auto result = run_campaign(*rt_camp, spec, opt);
  ASSERT_NE(result.columns, nullptr);
  const series::SeriesStore& store = *result.columns;

  auto rt = build_scenario(spec);
  const TimePoint start = spec.campaign_start;
  const TimePoint end = start + opt.duration_override;
  prober::Prober prober(rt->topology.net(), rt->vp_host, 100.0);
  rt->topology.net().simulator().advance_to(start);
  rt->apply_timeline_until(start);
  auto discover = [&] {
    const auto data = registry::harvest(rt->topology, *rt->bgp, rt->vp_asn, rt->collectors);
    return bdrmap::Bdrmap(prober, data, rt->vp_asn).run();
  };
  std::vector<prober::MonitorTarget> targets;
  std::vector<std::vector<double>> near, far;
  std::set<net::Ipv4Address> known;
  auto absorb = [&](const bdrmap::BdrmapResult& b) {
    const std::size_t elapsed = near.empty() ? 0 : near.front().size();
    for (const auto& l : b.links) {
      if (!known.insert(l.far_ip).second) continue;
      prober::MonitorTarget t;
      t.key = strformat("AS%u-AS%u-%s", rt->vp_asn, l.far_asn, l.far_ip.to_string().c_str());
      t.near_ip = l.near_ip;
      t.far_ip = l.far_ip;
      t.near_asn = rt->vp_asn;
      t.far_asn = l.far_asn;
      t.at_ixp = l.at_ixp;
      targets.push_back(std::move(t));
      near.emplace_back(elapsed, tslp::kMissing);
      far.emplace_back(elapsed, tslp::kMissing);
    }
  };
  absorb(discover());
  const std::size_t initial_links = targets.size();

  std::vector<TimePoint> boundaries;
  for (const auto& ev : rt->timeline) {
    if (ev.membership && ev.at > start && ev.at < end) boundaries.push_back(ev.at);
  }
  for (const auto& s : spec.snapshot_dates) {
    if (s > start && s < end) boundaries.push_back(s);
  }
  boundaries.push_back(end);
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());
  ASSERT_GE(boundaries.size(), 3u);  // three segments: appends span two seams

  const Duration iv = opt.round_interval;
  TimePoint t = start;
  for (const TimePoint b : boundaries) {
    // Day-mark boundaries on a 30-minute grid: every segment starts on it.
    ASSERT_EQ((t - start).count() % iv.count(), 0);
    prober::TslpConfig cfg;
    cfg.round_interval = iv;
    cfg.pre_round = [&rt](TimePoint at) { rt->apply_timeline_until(at); };
    cfg.rr_every_rounds = static_cast<int>(kDay.count() / iv.count());
    prober::TslpDriver driver(prober, cfg);
    const std::int64_t rounds = ((b - t).count() + iv.count() - 1) / iv.count();
    const auto segment = driver.run(targets, t, t + iv * rounds, [](std::size_t) {});
    ASSERT_EQ(segment.size(), targets.size());
    for (std::size_t i = 0; i < segment.size(); ++i) {
      near[i].insert(near[i].end(), segment[i].near_rtt.ms.begin(), segment[i].near_rtt.ms.end());
      far[i].insert(far[i].end(), segment[i].far_rtt.ms.begin(), segment[i].far_rtt.ms.end());
    }
    t = b;
    rt->apply_timeline_until(b);
    absorb(discover());
  }

  ASSERT_EQ(store.size(), targets.size());
  ASSERT_GT(targets.size(), initial_links);  // some links joined late
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto ls = store.decode(i);
    EXPECT_EQ(ls.key, targets[i].key);
    ASSERT_EQ(ls.near_rtt.ms.size(), near[i].size()) << ls.key;
    ASSERT_EQ(ls.far_rtt.ms.size(), far[i].size()) << ls.key;
    for (std::size_t k = 0; k < near[i].size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ls.near_rtt.ms[k]),
                std::bit_cast<std::uint64_t>(near[i][k]))
          << ls.key << " near sample " << k;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ls.far_rtt.ms[k]),
                std::bit_cast<std::uint64_t>(far[i][k]))
          << ls.key << " far sample " << k;
    }
  }
}

TEST(Campaigns, OnlineMatchesOfflineReports) {
  // CampaignOptions::online runs the level-shift window scans as rounds
  // complete instead of at campaign end; the reports must be identical to
  // the offline path in both storage modes (the online+columnar pair is
  // the always-on observatory configuration).
  const auto spec = make_vp4_sixp();
  CampaignOptions base;
  base.round_interval = kMinute * 30;
  base.duration_override = kDay * 45;

  auto rt_off = build_scenario(spec);
  const auto offline = run_campaign(*rt_off, spec, base);

  for (const bool columnar : {false, true}) {
    auto rt_on = build_scenario(spec);
    CampaignOptions oopt = base;
    oopt.online = true;
    oopt.columnar = columnar;
    const auto online = run_campaign(*rt_on, spec, oopt);

    ASSERT_EQ(online.reports.size(), offline.reports.size()) << "columnar=" << columnar;
    for (std::size_t i = 0; i < offline.reports.size(); ++i) {
      const auto& got = online.reports[i];
      const auto& want = offline.reports[i];
      EXPECT_EQ(got.key, want.key);
      EXPECT_EQ(got.verdict, want.verdict) << got.key << " columnar=" << columnar;
      EXPECT_EQ(got.persistence, want.persistence) << got.key;
      EXPECT_EQ(got.near_clean, want.near_clean) << got.key;
      for (const auto* side : {"far", "near"}) {
        const auto& g = side[0] == 'f' ? got.far_shifts : got.near_shifts;
        const auto& w = side[0] == 'f' ? want.far_shifts : want.near_shifts;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g.baseline_ms),
                  std::bit_cast<std::uint64_t>(w.baseline_ms))
            << got.key << ' ' << side;
        EXPECT_EQ(g.refused_low_coverage, w.refused_low_coverage) << got.key << ' ' << side;
        ASSERT_EQ(g.episodes.size(), w.episodes.size()) << got.key << ' ' << side;
        for (std::size_t e = 0; e < w.episodes.size(); ++e) {
          EXPECT_EQ(g.episodes[e].begin, w.episodes[e].begin) << got.key << ' ' << side;
          EXPECT_EQ(g.episodes[e].end, w.episodes[e].end) << got.key << ' ' << side;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(g.episodes[e].magnitude_ms),
                    std::bit_cast<std::uint64_t>(w.episodes[e].magnitude_ms))
              << got.key << ' ' << side;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(g.episodes[e].p_value),
                    std::bit_cast<std::uint64_t>(w.episodes[e].p_value))
              << got.key << ' ' << side;
        }
      }
    }
    ASSERT_EQ(online.snapshots.size(), offline.snapshots.size());
    for (std::size_t i = 0; i < offline.snapshots.size(); ++i) {
      EXPECT_EQ(online.snapshots[i].discovered_links, offline.snapshots[i].discovered_links);
      EXPECT_EQ(online.snapshots[i].congested_links, offline.snapshots[i].congested_links);
    }
  }
}

// Runs `spec` in the serve shape (online + columnar) and offline, requires
// every snapshot field to match, and returns the snapshots.
std::vector<SnapshotResult> expect_same_snapshots(const VpSpec& spec, Duration round, int days,
                                                  double threshold_ms) {
  CampaignOptions offline;
  offline.round_interval = round;
  offline.duration_override = kDay * days;
  offline.classifier.level_shift.threshold_ms = threshold_ms;
  CampaignOptions served = offline;
  served.online = true;
  served.columnar = true;
  auto rt_off = build_scenario(spec);
  const auto want = run_campaign(*rt_off, spec, offline).snapshots;
  auto rt_on = build_scenario(spec);
  const auto got = run_campaign(*rt_on, spec, served).snapshots;
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const SnapshotResult& g = got[i];
    const SnapshotResult& w = want[i];
    SCOPED_TRACE("snapshot " + std::to_string(i));
    EXPECT_EQ(g.at, w.at);
    EXPECT_EQ(g.discovered_links, w.discovered_links);
    EXPECT_EQ(g.peering_links, w.peering_links);
    EXPECT_EQ(g.neighbors, w.neighbors);
    EXPECT_EQ(g.peers, w.peers);
    EXPECT_EQ(g.congested_links, w.congested_links);
    EXPECT_EQ(g.accuracy.true_neighbors, w.accuracy.true_neighbors);
    EXPECT_EQ(g.accuracy.found_neighbors, w.accuracy.found_neighbors);
    EXPECT_EQ(g.accuracy.false_neighbors, w.accuracy.false_neighbors);
    EXPECT_EQ(g.accuracy.true_links, w.accuracy.true_links);
    EXPECT_EQ(g.accuracy.found_links, w.accuracy.found_links);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.location_consistent),
              std::bit_cast<std::uint64_t>(w.location_consistent));
  }
  return want;
}

TEST(Campaigns, SnapshotCarryMatchesFromScratch) {
  // Online campaigns judge a Table-2 snapshot from the live detectors'
  // finished windows (the far side, pushed at the 5 ms floor, re-gated at
  // the classifier threshold) while the 60-day window is the whole series
  // and ends on the grid; every other snapshot classifies from scratch.
  // Both must give the offline campaign's snapshots.  At Table 1's 15 ms
  // threshold TIX counts one congested link where the 5 ms floor counts
  // two, so a far side judged at the push threshold fails here.
  auto spec = make_vp2_tix();
  const TimePoint start = spec.campaign_start;
  spec.snapshot_dates.clear();
  for (int d = 2; d <= 62; ++d) spec.snapshot_dates.push_back(start + kDay * d);
  const auto daily = expect_same_snapshots(spec, kMinute * 30, 63, 15.0);
  ASSERT_EQ(daily.size(), spec.snapshot_dates.size());
  std::size_t congested = 0, sliding = 0;
  for (const auto& s : daily) {
    if (s.at - start <= kDay * 60) congested += s.congested_links > 0 ? 1 : 0;
    sliding += s.at - start > kDay * 60 ? 1 : 0;
  }
  EXPECT_GT(congested, 0u);  // the reuse path has verdicts to get wrong
  EXPECT_GT(sliding, 0u);    // and the sliding-window fallback runs

  // 7-minute rounds put only every 7th day mark on the grid; the others
  // end before the last pushed round and fall back to classify().
  spec.snapshot_dates = {start + kDay * 3, start + kDay * 7, start + kDay * 10,
                         start + kDay * 14};
  const auto odd = expect_same_snapshots(spec, kMinute * 7, 16, 15.0);
  EXPECT_EQ(odd.size(), spec.snapshot_dates.size());
}

TEST(Campaigns, MetricsIndependentOfResultShape) {
  // CampaignOptions::columnar only picks the shape the samples come back
  // in; every campaign accumulates in the series store, so the registry
  // export -- the store's own gauges included -- is the same either way.
  const auto spec = make_vp4_sixp();
  std::string exports[2];
  for (const bool columnar : {false, true}) {
    obs::Registry reg;
    auto rt = build_scenario(spec);
    CampaignOptions opt;
    opt.round_interval = kMinute * 30;
    opt.duration_override = kDay * 45;
    opt.metrics = &reg;
    opt.columnar = columnar;
    (void)run_campaign(*rt, spec, opt);
    std::ostringstream out;
    obs::write_json(out, reg);
    exports[columnar ? 1 : 0] = out.str();
  }
  EXPECT_NE(exports[0].find(metric::kSeriesResidentBytes), std::string::npos);
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(Campaigns, ColumnarResultHoldsNoSamples) {
  // A columnar result's series are metadata only: the samples live in the
  // store, and the series vectors must not keep the decode buffers'
  // allocations alive (that doubled a continent-scale campaign's RSS).
  const auto spec = make_vp4_sixp();
  for (const bool online : {false, true}) {
    auto rt = build_scenario(spec);
    CampaignOptions opt;
    opt.round_interval = kMinute * 30;
    opt.duration_override = kDay * 45;
    opt.columnar = true;
    opt.online = online;
    const auto result = run_campaign(*rt, spec, opt);
    ASSERT_FALSE(result.series.empty());
    for (const auto& ls : result.series) {
      EXPECT_EQ(ls.near_rtt.ms.capacity(), 0u) << ls.key << " online=" << online;
      EXPECT_EQ(ls.far_rtt.ms.capacity(), 0u) << ls.key << " online=" << online;
    }
  }
}

TEST(PaperCampaigns, GhanatelEpisodesSignificant) {
  const auto spec = make_fig_ghanatel();
  auto rt = build_scenario(spec);
  CampaignOptions opt;
  opt.round_interval = kMinute * 30;
  opt.duration_override = kDay * 40;
  const auto result = run_campaign(*rt, spec, opt);
  bool checked = false;
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (result.series[i].far_asn != 29614 || result.series[i].at_ixp) continue;
    const auto& eps = result.reports[i].far_shifts.episodes;
    ASSERT_FALSE(eps.empty());
    for (const auto& e : eps) EXPECT_TRUE(e.significant()) << e.p_value;
    checked = true;
  }
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace ixp::analysis
