// Shared plumbing for the table/figure benches.
//
// Every bench prints (a) the paper's reported values, (b) what this
// reproduction measures, and (c) the raw series as CSV so the figures can
// be re-plotted.  The table benches run the full campaign at a fixed
// 30-minute cadence; `afixp tables` prints the same two tables at any
// cadence, window or fleet width (--round-minutes, --fast, --jobs).  The
// figure 2-4 and detector benches take one flag:
//   --fast               shorten campaigns (smoke-test mode)
// and bench_fig1, bench_bdrmap, bench_ablation_queue and the table benches
// take none.  Each one still parses its argv (parse_flags_or_exit), so a
// mistyped flag is a usage error instead of a silent full run.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/fleet.h"
#include "analysis/tables.h"
#include "tslp/series.h"
#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/strings.h"

namespace ixp::bench {

/// Parses a bench's flags.  A usage error -- an unknown flag, a malformed
/// value, or any positional argument, since no bench takes one -- ends the
/// bench with exit status 2; --help prints the flags and exits 0.
inline void parse_flags_or_exit(Flags& flags, int argc, const char* const* argv) {
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    std::exit(0);
  }
  if (!flags.positional().empty()) {
    std::cerr << "unexpected argument '" << flags.positional().front() << "'\n";
    std::exit(2);
  }
}

/// Parses a figure or detector bench's one flag and returns whether
/// --fast was given.
inline bool parse_fast_flag(int argc, const char* const* argv, const char* name,
                            const char* summary) {
  Flags flags(name, summary);
  flags.add_bool("fast", false, "shorter campaigns and sweeps (smoke-test mode)");
  parse_flags_or_exit(flags, argc, argv);
  return flags.get_bool("fast");
}

/// Runs one VP's campaign over `duration` (0 = the spec's window) at
/// `round_interval`.  Case-study benches probe at a finer cadence than the
/// table campaigns (short congestion events quantize badly at coarse
/// rounds).
inline analysis::VpCampaignResult run_vp(const analysis::VpSpec& spec, Duration duration,
                                         Duration round_interval) {
  auto rt = analysis::build_scenario(spec);
  analysis::CampaignOptions opt;
  opt.round_interval = round_interval;
  opt.duration_override = duration;
  return analysis::run_campaign(*rt, spec, opt);
}

/// Cadence of the table benches' campaigns.
inline constexpr Duration kTableRoundInterval = kMinute * 30;

/// Runs a whole VP fleet in parallel over the full campaign windows at
/// kTableRoundInterval.  Live status and the metrics table render on
/// stderr; stdout stays byte-identical to a serial run, so bench output
/// can still be diffed.
inline analysis::FleetResult run_fleet_vps(const std::vector<analysis::VpSpec>& specs) {
  analysis::FleetOptions opt;
  opt.campaign.round_interval = kTableRoundInterval;
  analysis::FleetStatusPrinter status(std::cerr, specs);
  opt.on_progress = [&status](const analysis::CampaignMetrics& m) { status(m); };
  auto fleet = analysis::run_fleet(specs, opt);
  status.finish();
  analysis::print_fleet_metrics(std::cerr, fleet);
  return fleet;
}

/// First series whose far AS matches (and, optionally, whose IXP flag).
inline const tslp::LinkSeries* find_series(const analysis::VpCampaignResult& r, topo::Asn far_asn,
                                           int want_at_ixp = -1) {
  for (const auto& s : r.series) {
    if (s.far_asn != far_asn) continue;
    if (want_at_ixp >= 0 && s.at_ixp != (want_at_ixp != 0)) continue;
    return &s;
  }
  return nullptr;
}

/// Renders a near/far RTT figure: ASCII to stdout plus CSV rows.
inline void print_rtt_figure(const std::string& title, const tslp::LinkSeries& link,
                             int max_csv_rows = 4000) {
  std::cout << "\n--- " << title << " ---\n";
  AsciiSeries far{"far RTT (ms)", '*', link.far_rtt.ms};
  AsciiSeries near{"near RTT (ms)", '.', link.near_rtt.ms};
  AsciiChartOptions opt;
  opt.y_label = "RTT [ms]";
  opt.x_label = strformat("time (%s total, one column ~ %s)",
                          format_duration(link.far_rtt.interval *
                                          static_cast<std::int64_t>(link.far_rtt.ms.size()))
                              .c_str(),
                          format_duration(link.far_rtt.interval *
                                          std::max<std::int64_t>(
                                              1, static_cast<std::int64_t>(link.far_rtt.ms.size()) /
                                                     opt.width))
                              .c_str());
  std::cout << render_ascii_chart({far, near}, opt);

  std::cout << "CSV (day,hour,near_ms,far_ms) -- decimated to <= " << max_csv_rows << " rows\n";
  CsvWriter csv(std::cout);
  csv.header({"day", "hour", "near_ms", "far_ms"});
  const std::size_t n = link.far_rtt.ms.size();
  const std::size_t step = std::max<std::size_t>(1, n / static_cast<std::size_t>(max_csv_rows));
  for (std::size_t i = 0; i < n; i += step) {
    const CalendarTime c = to_calendar(link.far_rtt.time_of(i));
    csv.row()
        .cell(static_cast<std::int64_t>(c.day))
        .cell(c.hour_of_day)
        .cell(i < link.near_rtt.ms.size() ? link.near_rtt.ms[i] : tslp::kMissing)
        .cell(link.far_rtt.ms[i]);
  }
  csv.end_row();
}

/// Prints a paper-vs-measured comparison line.
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& unit) {
  std::cout << strformat("  %-28s paper: %8.2f %-4s   measured: %8.2f %-4s\n", what.c_str(), paper,
                         unit.c_str(), measured, unit.c_str());
}

}  // namespace ixp::bench
