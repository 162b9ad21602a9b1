// Regenerates Table 1: sensitivity of the "potentially congested" link
// counts (and the with-diurnal-pattern subset) to the level-shift magnitude
// threshold, across all six vantage points.
//
// Methodology is the paper's: run the full TSLP campaign per VP, detect
// level shifts with the rank-based CUSUM at the 5 ms floor, then count, for
// each threshold in {5, 10, 15, 20} ms, the links with any episode at or
// above it.  VP5 is topology-scaled (see DESIGN.md); the printed paper
// column keeps the original values for comparison.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ixp;
  Flags flags("bench_table1",
              "threshold sensitivity of congested-link labeling (Table 1, full campaign)");
  bench::parse_flags_or_exit(flags, argc, argv);
  std::cout << "bench_table1: threshold sensitivity of congested-link labeling\n";
  std::cout << "cadence: " << format_duration(bench::kTableRoundInterval) << "  (full campaign)\n";

  const auto specs = analysis::make_all_vps();
  const auto fleet = bench::run_fleet_vps(specs);
  std::vector<analysis::Table1Row> rows;
  for (const auto& result : fleet.results) {
    rows.push_back(analysis::make_table1_row(result));
    std::cout << result.vp_name << ": monitored links: " << result.series.size()
              << ", probes sent: " << result.probes_sent << "\n";
  }
  std::cout << "\n";
  analysis::print_table1(std::cout, rows);
  std::cout << "\nNote: VP5 runs at 1:" << analysis::kVp5Scale
            << " topology scale, so its measured counts are ~1/" << analysis::kVp5Scale
            << " of the paper's (shape preserved: many flagged, none diurnal).\n";
  return 0;
}
