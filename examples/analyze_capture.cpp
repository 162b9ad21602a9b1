// Offline re-analysis of a warts-lite capture -- the reason the storage
// format exists: collected measurements can be re-analysed with different
// detector settings without re-running (or re-simulating) the campaign.
//
// Usage: ./build/examples/analyze_capture [capture.wlt] [threshold_ms]
// If the capture does not exist, a small campaign is run first to create
// one (so the example is self-contained).
#include <fstream>
#include <iostream>

#include "analysis/campaign.h"
#include "analysis/scenario.h"
#include "prober/warts_lite.h"
#include "tslp/classifier.h"
#include "util/strings.h"

namespace {

// Creates a demo capture: one congested and two clean links, 21 days.
bool make_demo_capture(const std::string& path) {
  using namespace ixp;
  analysis::VpSpec s;
  s.vp_name = "CAP";
  s.ixp.name = "CAPX";
  s.ixp.country = "GH";
  s.ixp.city = "Accra";
  s.ixp.peering_prefix = *net::Ipv4Prefix::parse("196.49.0.0/24");
  s.ixp.management_prefix = *net::Ipv4Prefix::parse("196.49.1.0/24");
  s.vp_asn = 64700;
  s.vp_as_name = "CAP-IX";
  s.vp_org = "ORG-CAP";
  s.country = "GH";
  s.seed = 5;
  s.campaign_start = TimePoint{};
  s.campaign_end = TimePoint(kDay * 21);
  analysis::NeighborSpec hot;
  hot.name = "HOT";
  hot.asn = 64701;
  hot.country = "GH";
  hot.port_capacity_bps = 100e6;
  analysis::CongestionSpec c;
  c.a_w_ms = 14.0;
  c.dt_ud = kHour * 5;
  c.begin = TimePoint{};
  c.end = analysis::kForever;
  hot.congestion = {c};
  s.neighbors.push_back(hot);
  for (int i = 0; i < 2; ++i) {
    analysis::NeighborSpec ok;
    ok.name = "OK" + std::to_string(i);
    ok.asn = 64702 + static_cast<topo::Asn>(i);
    ok.country = "GH";
    s.neighbors.push_back(ok);
  }
  auto rt = analysis::build_scenario(s);
  analysis::CampaignOptions opt;
  opt.round_interval = kMinute * 10;
  const auto result = analysis::run_campaign(*rt, s, opt);
  prober::WartsLiteFile file;
  file.links = result.series;
  std::ofstream out(path, std::ios::binary);
  return prober::write_warts_lite(out, file);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ixp;
  const std::string path = argc > 1 ? argv[1] : "/tmp/analyze_capture_demo.wlt";
  double threshold = argc > 2 ? std::atof(argv[2]) : 10.0;
  if (threshold <= 0) threshold = 10.0;

  std::ifstream probe_file(path, std::ios::binary);
  if (!probe_file.good()) {
    std::cout << "no capture at " << path << "; running a demo campaign to create one...\n";
    if (!make_demo_capture(path)) {
      std::cerr << "failed to create " << path << "\n";
      return 1;
    }
    probe_file.open(path, std::ios::binary);
  }

  const auto file = prober::read_warts_lite(probe_file);
  if (!file) {
    std::cerr << path << ": not a warts-lite capture\n";
    return 1;
  }
  std::cout << "capture: " << file->links.size() << " link series\n";
  std::cout << "re-analysing at threshold " << threshold << " ms\n\n";

  tslp::ClassifierOptions copt;
  copt.level_shift.threshold_ms = threshold;
  tslp::CongestionClassifier classifier(copt);
  std::size_t flagged = 0, congested = 0;
  for (const auto& link : file->links) {
    const auto rep = classifier.classify(link);
    if (!rep.potentially_congested()) continue;
    ++flagged;
    congested += rep.congested() ? 1 : 0;
    std::cout << link.key << ": "
              << (rep.congested()
                      ? strformat("CONGESTED  A_w=%.1fms dt_UD=%s", rep.waveform.a_w_ms,
                                  format_duration(rep.waveform.dt_ud).c_str())
                      : std::string("level shifts without a diurnal pattern"))
              << "\n";
  }
  std::cout << "\n"
            << flagged << " of " << file->links.size() << " links flagged at " << threshold
            << " ms; " << congested << " congested\n";
  return 0;
}
