// Border-mapping accuracy (§4): the paper reports that bdrmap correctly
// discovered 96.2 % of the VP networks' neighbors on average (validated by
// emailing the probe hosts).  This bench scores bdrmap-lite against the
// simulator's ground truth at each VP's first snapshot, and adds two
// ablations: inference without the IXP participant data (PCH's
// ip_asn_mapping role) and without the infrastructure (/30) delegations --
// the two data sources the paper's process leans on hardest.
#include <iostream>

#include "analysis/africa.h"
#include "analysis/scenario.h"
#include "bdrmap/bdrmap.h"
#include "bench_common.h"
#include "registry/registry.h"

int main(int argc, char** argv) {
  using namespace ixp;
  Flags flags("bench_bdrmap", "neighbor/link discovery accuracy vs ground truth");
  bench::parse_flags_or_exit(flags, argc, argv);
  std::cout << "bench_bdrmap: neighbor/link discovery accuracy vs ground truth\n";
  std::cout << "(paper: 96.2% of VP neighbors correctly discovered on average)\n\n";
  std::cout << strformat("%-5s | %9s %9s | %9s | %12s %12s\n", "VP", "nbr", "link", "false",
                         "no-PCH nbr", "no-/30 nbr");
  std::cout << std::string(72, '-') << "\n";

  double recall_sum = 0;
  int count = 0;
  for (const auto& spec : analysis::make_all_vps()) {
    auto rt = analysis::build_scenario(spec);
    rt->topology.net().simulator().advance_to(spec.campaign_start);
    rt->apply_timeline_until(spec.campaign_start);
    prober::Prober prober(rt->topology.net(), rt->vp_host, 0.0);
    const auto data = registry::harvest(rt->topology, *rt->bgp, rt->vp_asn, rt->collectors);
    const auto truth = rt->topology.interdomain_links_of(rt->vp_asn);

    bdrmap::Bdrmap mapper(prober, data, rt->vp_asn);
    const auto full = bdrmap::score(mapper.run(), truth);

    // Ablation 1: no IXP participant mapping.
    auto data_no_pch = data;
    data_no_pch.ixp_participants.clear();
    bdrmap::Bdrmap mapper2(prober, data_no_pch, rt->vp_asn);
    const auto no_pch = bdrmap::score(mapper2.run(), truth);

    // Ablation 2: no infrastructure delegations (/30s vanish).
    auto data_no_infra = data;
    std::erase_if(data_no_infra.delegations,
                  [](const registry::DelegationRecord& d) { return d.prefix.length() >= 30; });
    bdrmap::Bdrmap mapper3(prober, data_no_infra, rt->vp_asn);
    const auto no_infra = bdrmap::score(mapper3.run(), truth);

    std::cout << strformat("%-5s | %8.1f%% %8.1f%% | %9zu | %11.1f%% %11.1f%%\n",
                           spec.vp_name.c_str(), 100.0 * full.neighbor_recall(),
                           100.0 * full.link_recall(), full.false_neighbors,
                           100.0 * no_pch.neighbor_recall(), 100.0 * no_infra.neighbor_recall());
    recall_sum += full.neighbor_recall();
    ++count;
  }
  std::cout << std::string(72, '-') << "\n";
  std::cout << strformat("average neighbor recall: %.1f%%   (paper: 96.2%%)\n",
                         100.0 * recall_sum / count);
  return 0;
}
