// Ablation of the core substitution: the fluid drop-tail queue.
//
// DESIGN.md claims the standing fluid backlog reproduces exactly the
// observable TSLP measures -- the level-shift magnitude A_w equals the
// buffer depth in time units, and the loss rate under saturation equals
// the overflow fraction.  This bench sweeps both mappings end-to-end
// through the full pipeline (scenario -> probing -> CUSUM detection), and
// compares the probe walk against the packet-level event engine
// (tests/oracle/) on a congested link.
#include <bit>
#include <cmath>
#include <iostream>

#include "analysis/campaign.h"
#include "analysis/scenario.h"
#include "bench_common.h"
#include "oracle/packet_engine.h"
#include "prober/prober.h"
#include "prober/tslp_driver.h"
#include "tslp/classifier.h"

namespace {

using namespace ixp;

analysis::VpSpec sweep_spec(double a_w_ms, double overload) {
  analysis::VpSpec s;
  s.vp_name = "QSWEEP";
  s.ixp.name = "QSX";
  s.ixp.country = "GH";
  s.ixp.city = "Accra";
  s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  s.vp_asn = 64800;
  s.vp_as_name = "QS-IX";
  s.vp_org = "ORG-QS";
  s.country = "GH";
  s.seed = 1234;
  s.campaign_start = TimePoint{};
  s.campaign_end = TimePoint(kDay * 10);
  analysis::NeighborSpec hot;
  hot.name = "HOT";
  hot.asn = 64801;
  hot.country = "GH";
  hot.port_capacity_bps = 100e6;
  analysis::CongestionSpec c;
  c.a_w_ms = a_w_ms;
  c.dt_ud = kHour * 6;
  c.peak_hour = 14.0;
  c.overload = overload;
  c.begin = TimePoint{};
  c.end = analysis::kForever;
  hot.congestion = {c};
  s.neighbors.push_back(hot);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ixp;
  Flags flags("bench_ablation_queue", "validating the fluid-queue substitution");
  bench::parse_flags_or_exit(flags, argc, argv);
  std::cout << "bench_ablation_queue: validating the fluid-queue substitution\n";

  std::cout << "\n[1] buffer depth -> measured A_w (the paper's 'magnitude = router buffer')\n";
  std::cout << strformat("%-14s | %-14s | %-8s\n", "buffer (ms)", "measured A_w", "error");
  for (const double a_w : {5.0, 10.7, 17.5, 27.9, 40.0}) {
    const auto spec = sweep_spec(a_w, 1.15);
    auto rt = analysis::build_scenario(spec);
    analysis::CampaignOptions opt;
    opt.round_interval = kMinute * 10;
    opt.classifier.level_shift.threshold_ms = 3.0;
    const auto result = analysis::run_campaign(*rt, spec, opt);
    double measured = 0;
    for (const auto& rep : result.reports) {
      if (rep.far_shifts.any()) measured = rep.waveform.a_w_ms;
    }
    std::cout << strformat("%-14.1f | %-14.1f | %+.1f%%\n", a_w, measured,
                           a_w > 0 ? 100.0 * (measured - a_w) / a_w : 0.0);
  }

  std::cout << "\n[2] overload -> probe loss at saturation (expected: (x-1)/x per crossing)\n";
  std::cout << strformat("%-10s | %-12s | %-12s\n", "overload", "expected", "measured");
  for (const double overload : {1.05, 1.15, 1.30, 1.50}) {
    const auto spec = sweep_spec(15.0, overload);
    auto rt = analysis::build_scenario(spec);
    prober::Prober prober(rt->topology.net(), rt->vp_host, 0.0);
    net::Ipv4Address target;
    for (const auto& t : rt->topology.interdomain_links_of(spec.vp_asn)) {
      if (t.far_asn == 64801) target = t.far_ip;
    }
    rt->topology.net().simulator().advance_to(TimePoint(kHour * 14));
    prober::LossConfig cfg;
    cfg.batch_size = 400;
    const auto loss = prober::measure_loss(prober, target, TimePoint(kHour * 14),
                                           TimePoint(kHour * 14 + kSecond * 1200), cfg);
    const double expected = (overload - 1.0) / overload;
    std::cout << strformat("%-10.2f | %-12.3f | %-12.3f\n", overload, expected,
                           loss.average_loss());
  }

  std::cout << "\n[3] probe walk vs scheduled packets (the oracle) on a congested link\n";
  {
    const auto spec = sweep_spec(16.0, 1.08);
    const TimePoint start(kHour * 10);
    const TimePoint end(kHour * 18);
    const Duration round = kMinute * 10;
    auto hot_target = [&](const analysis::ScenarioRuntime& rt) {
      for (const auto& t : rt.topology.interdomain_links_of(spec.vp_asn)) {
        if (t.far_asn == 64801) {
          return prober::MonitorTarget{"hot", t.near_ip, t.far_ip, t.near_asn, t.far_asn,
                                       t.at_ixp};
        }
      }
      return prober::MonitorTarget{};
    };

    // The TSLP driver, walking its probes.
    auto rt = analysis::build_scenario(spec);
    prober::Prober walker(rt->topology.net(), rt->vp_host, 0.0);
    prober::TslpConfig cfg;
    cfg.round_interval = round;
    prober::TslpDriver driver(walker, cfg);
    const auto fast = driver.run({hot_target(*rt)}, start, end);

    // Its rounds replayed as scheduled packets on a twin world.
    auto twin = analysis::build_scenario(spec);
    prober::Prober tracer(twin->topology.net(), twin->vp_host, 0.0);
    const auto slow = oracle::replay_far_rounds(tracer, hot_target(*twin).far_ip, start, end,
                                                round, prober::kTslpMaxTtl);
    double max_dev = 0;
    int n = 0, identical = 0;
    for (std::size_t i = 0; i < fast[0].far_rtt.ms.size() && i < slow.size(); ++i) {
      const double a = fast[0].far_rtt.ms[i];
      const double b = slow[i];
      identical += std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ? 1 : 0;
      if (std::isnan(a) || std::isnan(b)) continue;
      max_dev = std::max(max_dev, std::fabs(a - b));
      ++n;
    }
    std::cout << strformat("  %d rounds compared through the afternoon peak; "
                           "max |walk - packets| = %.2f ms; %d of %zu rounds bit-identical\n",
                           n, max_dev, identical, slow.size());
    std::cout << "  (same fluid queues and random streams; any re-learn by the driver "
                 "would shift the replay)\n";
  }
  return 0;
}
