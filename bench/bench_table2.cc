// Regenerates Table 2: per-VP evolution of discovered IP (peering) links,
// congested links, and AS neighbors (peers) at the paper's snapshot dates,
// plus the §6.1 headline (2.2 % of discovered IP peering links congested)
// and the per-VP congestion fractions.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace ixp;
  Flags flags("bench_table2",
              "evolution of discovered links / neighbors / congestion (Table 2, full campaign)");
  bench::parse_flags_or_exit(flags, argc, argv);
  std::cout << "bench_table2: evolution of discovered links / neighbors / congestion\n";
  std::cout << "cadence: " << format_duration(bench::kTableRoundInterval) << "\n";

  std::vector<analysis::VpSpec> specs = analysis::make_all_vps();
  auto fleet = bench::run_fleet_vps(specs);
  std::vector<analysis::Table2Row> rows;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (auto& row : analysis::make_table2_rows(fleet.results[i], specs[i])) rows.push_back(row);
  }
  std::vector<analysis::VpCampaignResult> results = std::move(fleet.results);
  std::cout << "\n";
  analysis::print_table2(std::cout, rows);

  // §6.1 aggregates.
  const auto headline = analysis::make_headline(results);
  std::cout << "\nHeadline (6.1): " << headline.congested_links << " of "
            << headline.total_peering_links << " monitored IP peering links congested = "
            << strformat("%.1f%%", headline.fraction()) << "   (paper: 2.2%)\n";
  std::cout << "Per-VP fraction of links with any congestion (paper: VP1 7.7%, VP2 3.3%, "
               "VP3 0.6%, VP4 33%, VP5 0%, VP6 0%):\n";
  for (const auto& r : results) {
    std::size_t peering = 0, congested = 0;
    for (std::size_t i = 0; i < r.series.size(); ++i) {
      if (!r.series[i].at_ixp) continue;
      ++peering;
      if (r.reports[i].congested()) ++congested;
    }
    std::cout << strformat("  %s: %zu/%zu = %.1f%%\n", r.vp_name.c_str(), congested, peering,
                           peering ? 100.0 * congested / peering : 0.0);
  }
  return 0;
}
