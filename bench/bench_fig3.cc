// Regenerates Figure 3: the GIXA-KNET link.  From 06/08/2016 to the end of
// the campaign (~8 months) the far-end RTTs show a sustained diurnal
// waveform (A_w = 17.5 ms, dt_UD = 2 h 14 m after sanitization, a dip
// around midnight, an afternoon plateau near 20 ms, identical on business
// days and weekends) while the near end stays below 1 ms; the average loss
// rate is only 0.1 %, so end users were likely unaffected.  The suspected
// cause is the KNET router's control plane (slow ICMP at peak load), which
// is exactly how this scenario generates the waveform.
#include <iostream>

#include "analysis/casebook.h"
#include "bench_common.h"
#include "prober/prober.h"
#include "prober/tslp_driver.h"
#include "tslp/classifier.h"
#include "tslp/loss_analysis.h"

int main(int argc, char** argv) {
  using namespace ixp;
  using topo::date;
  const bool fast = bench::parse_fast_flag(argc, argv, "bench_fig3", "GIXA-KNET (Figure 3)");
  std::cout << "bench_fig3: GIXA-KNET (slow-ICMP diurnal waveform, low loss)\n";

  const auto spec = analysis::make_fig_knet();
  auto result = bench::run_vp(spec, fast ? kDay * 42 : Duration(0), kMinute * 5);

  const auto* link = bench::find_series(result, 33786);
  if (link == nullptr) {
    std::cerr << "KNET link not monitored -- bdrmap failure\n";
    return 1;
  }
  const TimePoint pattern_start = date(6, 8, 2016);
  const TimePoint shown_end = fast ? pattern_start + kDay * 14 : date(1, 10, 2016);
  bench::print_rtt_figure("Fig 3a: RTTs GIXA-KNET from 06/08/2016",
                          tslp::slice(*link, pattern_start, shown_end), 800);

  const auto active = tslp::slice(*link, pattern_start, link->far_rtt.time_of(link->far_rtt.size()));
  tslp::CongestionClassifier classifier;
  const auto report = classifier.classify(active);
  const auto& cs = analysis::case_knet();
  std::cout << "\nWaveform characteristics:\n";
  bench::compare("A_w (avg shift magnitude)", cs.expected_a_w_ms, report.waveform.a_w_ms, "ms");
  bench::compare("dt_UD (avg event width)", to_hours(cs.expected_dt_ud),
                 to_hours(report.waveform.dt_ud), "h");
  std::cout << "  near end stays below 1 ms: "
            << (report.near_shifts.baseline_ms < 1.0 && report.near_clean ? "yes" : "no")
            << "   (paper: yes)\n";
  std::cout << "  weekday vs weekend amplitude: "
            << strformat("%.1f vs %.1f ms", report.waveform.weekday_peak_ms,
                         report.waveform.weekend_peak_ms)
            << "   (paper: same pattern regardless of day type)\n";
  std::cout << "  persistence: "
            << (report.persistence == tslp::Persistence::kSustained ? "sustained" : "transient")
            << "   (paper: sustained)\n";

  // Fig 3b: loss on the link (paper: 0.1 % average from 21/07/2016).
  std::cout << "\nFig 3b: loss rate (batches of 100 probes at 1 pps, subsampled)\n";
  auto rt2 = analysis::build_scenario(spec);
  const TimePoint loss_start = date(10, 8, 2016);
  const TimePoint loss_end = fast ? loss_start + kDay * 7 : date(10, 9, 2016);
  rt2->topology.net().simulator().advance_to(spec.campaign_start);
  rt2->apply_timeline_until(loss_start);
  prober::Prober prober(rt2->topology.net(), rt2->vp_host, 0.0);
  prober::LossConfig lcfg;
  lcfg.batch_gap = kMinute * 30;
  const auto loss = prober::measure_loss(prober, link->far_ip, loss_start, loss_end, lcfg);
  bench::compare("average loss", 100.0 * cs.expected_avg_loss, 100.0 * loss.average_loss(), "%");
  const auto corr = tslp::correlate_loss(loss, active.far_rtt, report.far_shifts);
  std::cout << "  end users likely unaffected (loss < 0.5%): "
            << (corr.users_likely_unaffected() ? "yes" : "no")
            << "   (paper: yes -- no customer complaints)\n";

  const auto check = analysis::check_case(cs, report);
  std::cout << "\nCase-study check vs operators' account: "
            << (check.all() ? "PASS" : "PARTIAL") << "\n";
  std::cout << "Documented cause: " << cs.cause << "\n";
  return 0;
}
