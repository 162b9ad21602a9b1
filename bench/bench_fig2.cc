// Regenerates Figure 2: GIXA-GHANATEL phase 2 (15/06/2016 - 06/08/2016),
// after GHANATEL shut off the transit service and reused the link for
// peering.  The paper reports (a) a diurnal far-end waveform with a 10 ms
// amplitude, and (b) loss rates with visible diurnal structure (plotted up
// to 25 %, raw batches ranging 0-85 %).
#include <iostream>

#include "analysis/casebook.h"
#include "bench_common.h"
#include "prober/prober.h"
#include "prober/tslp_driver.h"
#include "stats/descriptive.h"
#include "tslp/classifier.h"
#include "tslp/loss_analysis.h"

int main(int argc, char** argv) {
  using namespace ixp;
  using topo::date;
  const bool fast =
      bench::parse_fast_flag(argc, argv, "bench_fig2", "GIXA-GHANATEL phase 2 (Figure 2)");
  std::cout << "bench_fig2: GIXA-GHANATEL phase 2 (peering reuse of the 100 Mb/s link)\n";

  const auto spec = analysis::make_fig_ghanatel();
  auto result = bench::run_vp(spec, date(10, 8, 2016) - spec.campaign_start, kMinute * 10);

  const auto* link = bench::find_series(result, 29614, /*want_at_ixp=*/1);
  if (link == nullptr) {
    std::cerr << "GHANATEL LAN link not monitored -- bdrmap failure\n";
    return 1;
  }
  const auto phase2 = tslp::slice(*link, date(16, 6, 2016), date(5, 8, 2016));
  bench::print_rtt_figure("Fig 2a: RTTs GIXA-GHANATEL in phase 2", phase2, 800);

  tslp::CongestionClassifier classifier;
  const auto report = classifier.classify(phase2);
  std::cout << "\nWaveform characteristics (phase 2):\n";
  bench::compare("amplitude (A_w)", 10.0, report.waveform.a_w_ms, "ms");
  std::cout << "  diurnal pattern: " << (report.has_diurnal_pattern() ? "yes" : "no")
            << "   (paper: yes)\n";

  // Figure 2b: loss rate on the link during phase 2, from 1 pps batches of
  // 100 probes (run on a fresh world so the queues replay the phase).
  std::cout << "\nFig 2b: loss rate on the link in phase 2 (batches of 100 probes at 1 pps)\n";
  auto rt2 = analysis::build_scenario(spec);
  const TimePoint loss_start = date(21, 7, 2016);
  const TimePoint loss_end = date(5, 8, 2016);
  rt2->topology.net().simulator().advance_to(spec.campaign_start);
  rt2->apply_timeline_until(loss_start);
  prober::Prober prober(rt2->topology.net(), rt2->vp_host, 0.0);
  prober::LossConfig lcfg;
  lcfg.batch_gap = fast ? kMinute * 60 : kMinute * 15;
  const auto loss = prober::measure_loss(prober, link->far_ip, loss_start, loss_end, lcfg);

  std::vector<double> series;
  series.reserve(loss.batches.size());
  for (const auto& b : loss.batches) series.push_back(100.0 * b.loss_rate());
  AsciiChartOptions opt;
  opt.y_label = "loss [%]";
  opt.x_label = "time (21/07 - 05/08/2016)";
  std::cout << render_ascii_chart({{"loss %", '#', series}}, opt);
  CsvWriter csv(std::cout);
  csv.header({"day", "hour", "loss_pct"});
  for (const auto& b : loss.batches) {
    const auto c = to_calendar(b.at);
    csv.row().cell(static_cast<std::int64_t>(c.day)).cell(c.hour_of_day).cell(100.0 * b.loss_rate());
  }
  csv.end_row();

  const double peak = stats::max_value(series);
  std::cout << strformat("\naverage loss: %.1f%%   peak batch loss: %.1f%%   "
                         "(paper: diurnal loss, batches ranging 0-85%%)\n",
                         100.0 * loss.average_loss(), peak);

  // The paper's reading of Fig 2b: the loss-rate increase *confirms* the
  // diurnal congestion pattern.  Quantify that with the loss/episode
  // correlation over the same window.
  const auto corr = tslp::correlate_loss(loss, phase2.far_rtt, report.far_shifts);
  std::cout << strformat(
      "loss inside congestion episodes: %.1f%%   outside: %.1f%%   correlation: %.2f\n",
      100.0 * corr.loss_in_episodes, 100.0 * corr.loss_outside, corr.correlation);
  std::cout << "loss confirms the diurnal pattern: "
            << (corr.loss_confirms_congestion() ? "yes" : "no") << "   (paper: yes)\n";
  return 0;
}
