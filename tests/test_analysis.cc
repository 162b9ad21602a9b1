#include <gtest/gtest.h>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/casebook.h"
#include "analysis/facility.h"
#include <sstream>

#include "analysis/report.h"
#include "analysis/tables.h"
#include "prober/prober.h"
#include "prober/tslp_driver.h"

namespace ixp::analysis {
namespace {

using topo::date;

// ---------------------------------------------------------------------------
// Scenario builder

TEST(Scenario, BuildsAllSixVps) {
  for (const auto& spec : make_all_vps()) {
    auto rt = build_scenario(spec);
    ASSERT_NE(rt, nullptr) << spec.vp_name;
    EXPECT_NE(rt->vp_host, sim::kInvalidNode);
    EXPECT_FALSE(rt->topology.interdomain_links_of(spec.vp_asn).empty()) << spec.vp_name;
  }
}

TEST(Scenario, CongestionProfileSaturatesAtPeak) {
  CongestionSpec c;
  c.a_w_ms = 27.9;
  c.dt_ud = kHour * 20;
  c.peak_hour = 13.0;
  c.overload = 1.3;
  const auto profile = make_congestion_profile(100e6, c, false, 42);
  EXPECT_GT(profile->bps(TimePoint(kHour * 13)), 100e6);
  EXPECT_LT(profile->bps(TimePoint(kHour * 2)), 100e6);
}

TEST(Scenario, CongestionProfileWidthControlsOverloadWindow) {
  CongestionSpec c;
  c.a_w_ms = 10.0;
  c.dt_ud = kHour * 4;
  c.peak_hour = 14.0;
  c.overload = 1.15;
  const auto profile = make_congestion_profile(100e6, c, false, 43);
  // Count hours above capacity across a weekday.
  double above = 0;
  for (int m = 0; m < 24 * 60; m += 5) {
    if (profile->bps(TimePoint(kMinute * m)) > 100e6) above += 5.0 / 60.0;
  }
  EXPECT_NEAR(above, 4.0, 1.5);
}

TEST(Scenario, TimelineMembershipEvents) {
  auto spec = make_vp1_gixa();
  auto rt = build_scenario(spec);
  const auto truth_start = rt->topology.interdomain_links_of(spec.vp_asn);

  // June 10: five members leave; June 14: the GHANATEL ptp goes down.
  rt->apply_timeline_until(date(1, 7, 2016));
  const auto truth_july = rt->topology.interdomain_links_of(spec.vp_asn);
  EXPECT_LT(truth_july.size(), truth_start.size());
}

TEST(Scenario, Vp1LinkCountsMatchTable2Shape) {
  auto spec = make_vp1_gixa();
  auto rt = build_scenario(spec);
  rt->apply_timeline_until(spec.snapshot_dates[0]);
  const auto t1 = rt->topology.interdomain_links_of(spec.vp_asn).size();
  rt->apply_timeline_until(spec.snapshot_dates[1]);
  const auto t2 = rt->topology.interdomain_links_of(spec.vp_asn).size();
  rt->apply_timeline_until(spec.snapshot_dates[2]);
  const auto t3 = rt->topology.interdomain_links_of(spec.vp_asn).size();
  // Paper: 46 -> 13 -> 10.
  EXPECT_NEAR(static_cast<double>(t1), 46.0, 3.0);
  EXPECT_NEAR(static_cast<double>(t2), 13.0, 2.0);
  EXPECT_NEAR(static_cast<double>(t3), 10.0, 2.0);
  EXPECT_GT(t1, t2);
  EXPECT_GE(t2, t3);
}

// ---------------------------------------------------------------------------
// Mini campaign (integration)

TEST(Campaign, MiniCampaignDetectsInjectedCongestion) {
  // A small world with one congested member and two clean ones, run for a
  // short simulated campaign; the pipeline must flag exactly the
  // congested link.
  VpSpec s;
  s.vp_name = "MINI";
  s.ixp.name = "MINIX";
  s.ixp.country = "GH";
  s.ixp.city = "Accra";
  s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  s.vp_asn = 30997;
  s.vp_as_name = "GIXA";
  s.vp_org = "ORG-GIXA";
  s.country = "GH";
  s.seed = 77;
  s.campaign_start = TimePoint{};
  s.campaign_end = TimePoint(kDay * 14);

  NeighborSpec bad;
  bad.name = "CONGESTED";
  bad.asn = 65001;
  bad.country = "GH";
  bad.port_capacity_bps = 100e6;
  CongestionSpec c;
  c.a_w_ms = 20.0;
  c.dt_ud = kHour * 6;
  c.peak_hour = 14.0;
  c.overload = 1.15;
  c.begin = TimePoint{};
  c.end = kForever;
  bad.congestion = {c};
  s.neighbors.push_back(bad);
  for (int i = 0; i < 2; ++i) {
    NeighborSpec good;
    good.name = "CLEAN" + std::to_string(i);
    good.asn = 65002 + static_cast<topo::Asn>(i);
    good.country = "GH";
    s.neighbors.push_back(good);
  }

  auto rt = build_scenario(s);
  CampaignOptions opt;
  opt.round_interval = kMinute * 10;
  const auto result = run_campaign(*rt, s, opt);

  ASSERT_GE(result.series.size(), 3u);
  int congested = 0;
  for (std::size_t i = 0; i < result.reports.size(); ++i) {
    if (result.reports[i].congested()) {
      ++congested;
      EXPECT_EQ(result.series[i].far_asn, 65001u) << result.series[i].key;
      EXPECT_NEAR(result.reports[i].waveform.a_w_ms, 20.0, 5.0);
    }
  }
  EXPECT_EQ(congested, 1);
  EXPECT_EQ(result.congested(), 1u);
  EXPECT_GE(result.potentially_congested(5.0), 1u);
}

TEST(Campaign, CleanWorldReportsNothing) {
  VpSpec s;
  s.vp_name = "CLEANW";
  s.ixp.name = "MINIX";
  s.ixp.country = "GH";
  s.ixp.city = "Accra";
  s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  s.vp_asn = 30997;
  s.vp_as_name = "GIXA";
  s.vp_org = "ORG-GIXA";
  s.country = "GH";
  s.seed = 78;
  s.campaign_start = TimePoint{};
  s.campaign_end = TimePoint(kDay * 10);
  for (int i = 0; i < 3; ++i) {
    NeighborSpec good;
    good.name = "CLEAN" + std::to_string(i);
    good.asn = 65001 + static_cast<topo::Asn>(i);
    good.country = "GH";
    s.neighbors.push_back(good);
  }
  auto rt = build_scenario(s);
  CampaignOptions opt;
  opt.round_interval = kMinute * 10;
  const auto result = run_campaign(*rt, s, opt);
  EXPECT_EQ(result.congested(), 0u);
  EXPECT_EQ(result.potentially_congested(5.0), 0u);
}

TEST(Campaign, RecordRouteTotalsRespectFiltering) {
  // VP4-style network: the VP's own border router filters the RR option,
  // so the campaign collects zero record-route measurements; an identical
  // network without filtering collects one per link per day.
  auto make = [](bool filters) {
    VpSpec s;
    s.vp_name = filters ? "RRF" : "RRO";
    s.ixp.name = "RRX";
    s.ixp.country = "GM";
    s.ixp.city = "Serekunda";
    s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.46.0.0/24");
    s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.46.1.0/24");
    s.vp_asn = 37309;
    s.vp_as_name = "QCELL";
    s.vp_org = "ORG-QCELL";
    s.country = "GM";
    s.vp_is_ixp_network = false;
    s.vp_filters_rr = filters;
    s.seed = 97;
    s.campaign_start = TimePoint{};
    s.campaign_end = TimePoint(kDay * 5);
    NeighborSpec m;
    m.name = "MEM";
    m.asn = 65001;
    m.country = "GM";
    s.neighbors.push_back(m);
    return s;
  };

  CampaignOptions opt;
  opt.round_interval = kMinute * 30;
  auto filtered_spec = make(true);
  auto filtered_rt = build_scenario(filtered_spec);
  const auto filtered = run_campaign(*filtered_rt, filtered_spec, opt);
  EXPECT_EQ(filtered.record_routes, 0u);
  // RTT probing itself is unaffected by RR filtering.
  ASSERT_FALSE(filtered.series.empty());
  EXPECT_LT(filtered.series[0].far_rtt.loss_fraction(), 0.2);

  auto open_spec = make(false);
  auto open_rt = build_scenario(open_spec);
  const auto open = run_campaign(*open_rt, open_spec, opt);
  EXPECT_GT(open.record_routes, 0u);
  EXPECT_EQ(open.record_routes, open.record_routes_symmetric);  // clean world
}

TEST(Campaign, SnapshotLocationConsistency) {
  VpSpec s;
  s.vp_name = "LOC";
  s.ixp.name = "LOCX";
  s.ixp.country = "GH";
  s.ixp.city = "Accra";
  s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  s.vp_asn = 30997;
  s.vp_as_name = "GIXA";
  s.vp_org = "ORG-GIXA";
  s.country = "GH";
  s.seed = 98;
  s.campaign_start = TimePoint{};
  s.campaign_end = TimePoint(kDay * 6);
  s.snapshot_dates = {TimePoint(kDay * 4)};
  for (int i = 0; i < 3; ++i) {
    NeighborSpec m;
    m.name = "M" + std::to_string(i);
    m.asn = 65001 + static_cast<topo::Asn>(i);
    m.country = "GH";
    s.neighbors.push_back(m);
  }
  auto rt = build_scenario(s);
  CampaignOptions opt;
  opt.round_interval = kMinute * 30;
  const auto result = run_campaign(*rt, s, opt);
  ASSERT_EQ(result.snapshots.size(), 1u);
  // Every inferred peering link's far end geolocates to the IXP's city.
  EXPECT_GT(result.snapshots[0].location_consistent, 0.9);
}

// ---------------------------------------------------------------------------
// Casebook

TEST(Casebook, HasThreeDocumentedCases) {
  ASSERT_EQ(casebook().size(), 3u);
  EXPECT_EQ(case_ghanatel().id, "GIXA-GHANATEL");
  EXPECT_NEAR(case_ghanatel().expected_a_w_ms, 27.9, 1e-9);
  EXPECT_EQ(case_knet().expected_dt_ud, kHour * 2 + kMinute * 14);
  EXPECT_FALSE(case_netpage().sustained);
}

TEST(Casebook, CheckAcceptsMatchingReport) {
  tslp::LinkReport rep;
  rep.verdict = tslp::Verdict::kCongested;
  rep.persistence = tslp::Persistence::kSustained;
  rep.waveform.a_w_ms = 26.0;
  rep.waveform.dt_ud = kHour * 18;
  rep.waveform.weekday_peak_ms = 30;
  rep.waveform.weekend_peak_ms = 15;
  const auto check = check_case(case_ghanatel(), rep);
  EXPECT_TRUE(check.all());
}

TEST(Casebook, CheckRejectsWrongMagnitude) {
  tslp::LinkReport rep;
  rep.verdict = tslp::Verdict::kCongested;
  rep.persistence = tslp::Persistence::kSustained;
  rep.waveform.a_w_ms = 5.0;  // far from 27.9
  rep.waveform.dt_ud = kHour * 20;
  rep.waveform.weekday_peak_ms = 30;
  rep.waveform.weekend_peak_ms = 15;
  const auto check = check_case(case_ghanatel(), rep);
  EXPECT_FALSE(check.a_w_in_range);
  EXPECT_FALSE(check.all());
}

// ---------------------------------------------------------------------------
// Tables

TEST(Tables, PaperTable1Totals) {
  std::size_t total5 = 0, diurnal5 = 0;
  for (const auto& row : paper_table1()) {
    total5 += row.flagged[0];
    diurnal5 += row.diurnal[0];
  }
  EXPECT_EQ(total5, 339u);  // the paper's "All VPs" row at 5 ms
  EXPECT_EQ(diurnal5, 6u);
}

TEST(Tables, FormatDateRoundTrips) {
  EXPECT_EQ(format_date(date(17, 3, 2016)), "17/03/2016");
  EXPECT_EQ(format_date(date(7, 4, 2017)), "07/04/2017");
  EXPECT_EQ(format_date(date(22, 2, 2016)), "22/02/2016");
  EXPECT_EQ(format_date(date(29, 2, 2016)), "29/02/2016");
}

TEST(Tables, HeadlineFractionComputation) {
  VpCampaignResult r;
  r.vp_name = "X";
  for (int i = 0; i < 45; ++i) {
    tslp::LinkSeries ls;
    ls.at_ixp = true;
    r.series.push_back(ls);
    tslp::LinkReport rep;
    rep.verdict = i == 0 ? tslp::Verdict::kCongested : tslp::Verdict::kNotCongested;
    r.reports.push_back(rep);
  }
  const auto h = make_headline({r});
  EXPECT_EQ(h.total_peering_links, 45u);
  EXPECT_EQ(h.congested_links, 1u);
  EXPECT_NEAR(h.fraction(), 2.2, 0.05);
}

TEST(Report, ContainsFindingsAndTables) {
  // Reuse the mini-campaign world: one congested link out of three.
  VpSpec s;
  s.vp_name = "RPT";
  s.ixp.name = "RPTX";
  s.ixp.long_name = "Report Exchange";
  s.ixp.country = "GH";
  s.ixp.city = "Accra";
  s.ixp.sub_region = "West Africa";
  s.ixp.launch_year = 2010;
  s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  s.vp_asn = 30997;
  s.vp_as_name = "GIXA";
  s.vp_org = "ORG-GIXA";
  s.country = "GH";
  s.seed = 91;
  s.campaign_start = TimePoint{};
  s.campaign_end = TimePoint(kDay * 14);
  NeighborSpec bad;
  bad.name = "HOT";
  bad.asn = 65001;
  bad.country = "GH";
  bad.port_capacity_bps = 100e6;
  CongestionSpec c;
  c.a_w_ms = 20.0;
  c.dt_ud = kHour * 6;
  c.begin = TimePoint{};
  c.end = kForever;
  bad.congestion = {c};
  s.neighbors.push_back(bad);
  NeighborSpec ok;
  ok.name = "OK";
  ok.asn = 65002;
  ok.country = "GH";
  s.neighbors.push_back(ok);

  auto rt = build_scenario(s);
  CampaignOptions opt;
  opt.round_interval = kMinute * 10;
  const auto result = run_campaign(*rt, s, opt);

  ReportOptions ropt;
  ropt.include_link_appendix = true;
  const std::string report = report_to_string(s, result, ropt);
  EXPECT_NE(report.find("# Congestion report: RPT"), std::string::npos);
  EXPECT_NE(report.find("## Threshold sensitivity"), std::string::npos);
  EXPECT_NE(report.find("## Findings"), std::string::npos);
  EXPECT_NE(report.find("congested"), std::string::npos);
  EXPECT_NE(report.find("AS30997-AS65001"), std::string::npos);
  EXPECT_NE(report.find("## Appendix"), std::string::npos);
}

TEST(Report, CleanCampaignSaysSo) {
  VpSpec s;
  s.vp_name = "CLEANRPT";
  s.ixp.name = "CRX";
  s.ixp.country = "GH";
  s.ixp.city = "Accra";
  s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  s.vp_asn = 30997;
  s.vp_as_name = "GIXA";
  s.vp_org = "ORG-GIXA";
  s.country = "GH";
  s.seed = 92;
  s.campaign_start = TimePoint{};
  s.campaign_end = TimePoint(kDay * 7);
  NeighborSpec ok;
  ok.name = "OK";
  ok.asn = 65001;
  ok.country = "GH";
  s.neighbors.push_back(ok);
  auto rt = build_scenario(s);
  CampaignOptions opt;
  opt.round_interval = kMinute * 15;
  const auto result = run_campaign(*rt, s, opt);
  const std::string report = report_to_string(s, result);
  EXPECT_NE(report.find("No congestion was detected"), std::string::npos);
}

TEST(Report, CombinedReportAggregates) {
  // Two tiny campaigns: one with a congested link, one clean.
  auto make = [](const std::string& name, topo::Asn base, bool congest, std::uint64_t seed) {
    VpSpec s;
    s.vp_name = name;
    s.ixp.name = name + "X";
    s.ixp.sub_region = "West Africa";
    s.ixp.country = "GH";
    s.ixp.city = "Accra";
    s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
    s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
    s.vp_asn = base;
    s.vp_as_name = name;
    s.vp_org = "ORG-" + name;
    s.country = "GH";
    s.seed = seed;
    s.campaign_start = TimePoint{};
    s.campaign_end = TimePoint(kDay * 10);
    NeighborSpec m;
    m.name = name + "M";
    m.asn = base + 1;
    m.country = "GH";
    if (congest) {
      m.port_capacity_bps = 100e6;
      CongestionSpec c;
      c.a_w_ms = 15.0;
      c.dt_ud = kHour * 6;
      c.begin = TimePoint{};
      c.end = kForever;
      m.congestion = {c};
    }
    s.neighbors.push_back(m);
    return s;
  };
  const auto sa = make("AGG1", 64810, true, 111);
  const auto sb = make("AGG2", 64820, false, 112);
  auto ra = build_scenario(sa);
  auto rb = build_scenario(sb);
  CampaignOptions opt;
  opt.round_interval = kMinute * 15;
  const auto resa = run_campaign(*ra, sa, opt);
  const auto resb = run_campaign(*rb, sb, opt);

  std::ostringstream out;
  write_combined_report(out, {{sa, &resa}, {sb, &resb}});
  const std::string rep = out.str();
  EXPECT_NE(rep.find("Vantage points: 2"), std::string::npos);
  EXPECT_NE(rep.find("AGG1"), std::string::npos);
  EXPECT_NE(rep.find("AGG2"), std::string::npos);
  EXPECT_NE(rep.find("## Implications"), std::string::npos);
  EXPECT_NE(rep.find("A_w"), std::string::npos);  // the congested finding
}

TEST(Tables, PrintersProduceOutput) {
  std::ostringstream out;
  print_table1(out, paper_table1());
  EXPECT_NE(out.str().find("All VPs"), std::string::npos);
  std::ostringstream out2;
  print_table2(out2, paper_table2());
  EXPECT_NE(out2.str().find("GIXA"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Facility-aggregation detector

// Hand-built observation set: `fac` gets `n` links of which `disrupted`
// are down; `background` clean unassigned links pad the substrate.
std::vector<FacilityObservation> facility_obs(const std::string& fac, int n, int disrupted,
                                              int background) {
  std::vector<FacilityObservation> obs;
  for (int i = 0; i < n; ++i) {
    obs.push_back({fac, fac + "-L" + std::to_string(i), i < disrupted});
  }
  for (int i = 0; i < background; ++i) {
    obs.push_back({"", "BG-L" + std::to_string(i), false});
  }
  return obs;
}

TEST(FacilityDetector, BinomialTailEdgeCases) {
  EXPECT_DOUBLE_EQ(binomial_upper_tail(0, 10, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(11, 10, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(3, 10, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(3, 10, 1.0), 1.0);
  // P(X >= 3 | n=3, p=0.1) = 0.001.
  EXPECT_NEAR(binomial_upper_tail(3, 3, 0.1), 1e-3, 1e-9);
  // Tail of the full support is the whole probability mass.
  EXPECT_NEAR(binomial_upper_tail(0, 20, 0.3), 1.0, 1e-12);
}

TEST(FacilityDetector, AllLinksDownAtOneFacilityIsFlagged) {
  // Every link homed at F1 is dark while the rest of the substrate is
  // clean: the concentration is overwhelming evidence.
  const auto verdicts = detect_facility_disruptions(facility_obs("F1", 3, 3, 8));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].facility, "F1");
  EXPECT_EQ(verdicts[0].links, 3u);
  EXPECT_EQ(verdicts[0].disrupted, 3u);
  EXPECT_TRUE(verdicts[0].disrupted_verdict);
  EXPECT_LE(verdicts[0].p_value, 1e-2);
}

TEST(FacilityDetector, SingleLinkFailureIsNotAFacilityEvent) {
  // One member losing its port is ordinary link trouble, not a facility
  // disruption, no matter how quiet the background is.
  const auto verdicts = detect_facility_disruptions(facility_obs("F1", 3, 1, 8));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].facility, "F1");
  EXPECT_FALSE(verdicts[0].disrupted_verdict);
}

TEST(FacilityDetector, SubstrateWideOutageIsNotConcentrated) {
  // When the background is just as dark as the facility (a VP outage, a
  // fabric-wide event), the facility shows no *concentration* and must not
  // be flagged -- the binomial tail against the elevated background rate
  // stays far above alpha.
  auto obs = facility_obs("F1", 3, 3, 8);
  for (auto& o : obs) o.disrupted = true;
  const auto verdicts = detect_facility_disruptions(obs);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].disrupted_verdict);
  EXPECT_GT(verdicts[0].p_value, 1e-2);
}

TEST(FacilityDetector, TooFewLinksNeverFlagged) {
  // kFacilityMinLinks = 2: a one-link "facility" cannot show correlation.
  const auto verdicts = detect_facility_disruptions(facility_obs("F1", 1, 1, 10));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].disrupted_verdict);
}

TEST(FacilityDetector, RanksDisruptedFacilitiesFirst) {
  auto obs = facility_obs("F1", 3, 0, 10);
  const auto more = facility_obs("F2", 3, 3, 0);
  obs.insert(obs.end(), more.begin(), more.end());
  const auto verdicts = detect_facility_disruptions(obs);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].facility, "F2");
  EXPECT_TRUE(verdicts[0].disrupted_verdict);
  EXPECT_EQ(verdicts[1].facility, "F1");
  EXPECT_FALSE(verdicts[1].disrupted_verdict);
}

// ---------------------------------------------------------------------------
// Reroute-vs-congestion cross-check

tslp::LinkReport report_with_episode(std::size_t begin, std::size_t end) {
  tslp::LinkReport rep;
  rep.verdict = tslp::Verdict::kCongested;
  rep.persistence = tslp::Persistence::kSustained;
  tslp::Episode e;
  e.begin = begin;
  e.end = end;
  e.magnitude_ms = 20.0;
  rep.far_shifts.episodes.push_back(e);
  return rep;
}

TEST(RerouteCrosscheck, EpisodeAtResponderChangeIsDowngraded) {
  auto rep = report_with_episode(100, 200);
  EXPECT_TRUE(tslp::crosscheck_reroute(rep, {103}));
  EXPECT_TRUE(rep.reroute_suspect);
  EXPECT_EQ(rep.verdict, tslp::Verdict::kPotentiallyCongested);
  EXPECT_EQ(rep.persistence, tslp::Persistence::kNone);
}

TEST(RerouteCrosscheck, UnexplainedEpisodeKeepsTheVerdict) {
  // A responder change elsewhere must not launder a genuine congestion
  // episode whose onset is nowhere near it.
  auto rep = report_with_episode(100, 200);
  EXPECT_FALSE(tslp::crosscheck_reroute(rep, {300}));
  EXPECT_FALSE(rep.reroute_suspect);
  EXPECT_EQ(rep.verdict, tslp::Verdict::kCongested);
}

TEST(RerouteCrosscheck, PartialExplanationKeepsTheVerdict) {
  // Two episodes, only one coincides with a forwarding change: partial
  // reroutes must not clear the link.
  auto rep = report_with_episode(100, 200);
  tslp::Episode e2;
  e2.begin = 500;
  e2.end = 600;
  e2.magnitude_ms = 18.0;
  rep.far_shifts.episodes.push_back(e2);
  EXPECT_FALSE(tslp::crosscheck_reroute(rep, {101}));
  EXPECT_EQ(rep.verdict, tslp::Verdict::kCongested);
}

TEST(RerouteCrosscheck, NoEpisodesOrChangesIsANoOp) {
  tslp::LinkReport empty;
  EXPECT_FALSE(tslp::crosscheck_reroute(empty, {50}));
  auto rep = report_with_episode(10, 20);
  EXPECT_FALSE(tslp::crosscheck_reroute(rep, {}));
  EXPECT_EQ(rep.verdict, tslp::Verdict::kCongested);
}

TEST(RerouteCrosscheck, SliceRebasesResponderChanges) {
  tslp::LinkSeries ls;
  ls.far_rtt.start = TimePoint{};
  ls.far_rtt.interval = kMinute * 5;
  ls.near_rtt = ls.far_rtt;
  for (int i = 0; i < 100; ++i) {
    ls.far_rtt.ms.push_back(1.0);
    ls.near_rtt.ms.push_back(1.0);
  }
  ls.responder_changes = {5, 40, 90};
  const auto cut = tslp::slice(ls, TimePoint(kMinute * 5 * 30), TimePoint(kMinute * 5 * 80));
  ASSERT_EQ(cut.far_rtt.ms.size(), 50u);
  ASSERT_EQ(cut.responder_changes.size(), 1u);
  EXPECT_EQ(cut.responder_changes[0], 10u);  // 40 re-based into the window
}

}  // namespace
}  // namespace ixp::analysis
