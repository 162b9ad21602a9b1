// Probe hot-path benchmark harness: the repo's perf trajectory.
//
// Every PR that touches the probe hot path re-runs these workloads and
// commits the result as BENCH_sim.json, so probes/s and ns/hop are
// comparable across PRs (fixed seeds, fixed topologies, fixed probe
// counts -- only the wall clock varies with the host).  Two workloads,
// from micro to macro:
//   * probe_fabric   -- the TSLP inner loop in isolation: probes across a
//     VP -> border -> IXP fabric -> member topology, TTL expiry at the
//     member router.  Reports probes/s and ns per link crossing.
//   * campaign_six_vp -- the paper's six VP campaigns end to end at the
//     5-minute cadence (the acceptance workload for probe-path PRs).
// See the "Benchmark harness" section of README.md for how to compare
// against the previous PR's numbers; tools/check_bench.sh runs the smoke
// size from CTest and validates the JSON (schema afixp-bench-sim/4).
//
//   bench_probe [--smoke] [--out BENCH_sim.json] [--only <name>] [--repeats N]
//               [--metrics]
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/africa.h"
#include "analysis/fleet.h"
#include "sim/network.h"
#include "util/flags.h"
#include "util/strings.h"

namespace {

using namespace ixp;
using Clock = std::chrono::steady_clock;

struct BenchOptions {
  /// CI-sized workloads (seconds, not minutes); what check_bench runs.
  bool smoke = false;
  /// Seeds the synthetic topologies and every RNG stream.
  std::uint64_t seed = 0x5eed0001u;
  /// Warm passes per micro-benchmark (cold pass is always 1).
  int repeats = 3;
  /// Run only the benchmark with this name (empty = all).
  std::string only;
  /// Collect per-campaign observability registries during campaign_six_vp.
  /// Off by default so the reference numbers (BENCH_sim.json) measure the
  /// instrumentation-free path; check_bench.sh compares both settings to
  /// gate the metrics overhead.
  bool metrics = false;
};

/// One benchmark's numbers.  `items` are probes per pass; `hops` are link
/// crossings per pass (rounds for campaign_six_vp).
struct BenchMeasurement {
  std::string name;
  std::string unit;               ///< "probes_per_sec"
  std::uint64_t items = 0;        ///< work items per pass
  std::uint64_t hops = 0;         ///< link crossings per pass (0 = n/a)
  double cold_per_sec = 0.0;      ///< first pass (cold caches, lazy state)
  double warm_per_sec = 0.0;      ///< best warm pass
  double cold_ns_per_hop = 0.0;   ///< 0 when hops == 0
  double warm_ns_per_hop = 0.0;
  double wall_seconds = 0.0;      ///< total across all passes
};

struct BenchReport {
  std::string workload;  ///< "smoke" | "full"
  std::uint64_t seed = 0;
  /// CPUs the recording host exposed (std::thread::hardware_concurrency),
  /// so a wall-clock record is never read without its parallelism.
  int host_cpus = 0;
  std::vector<BenchMeasurement> benches;
};

// ---------------------------------------------------------------------------
// probe_fabric: the TSLP inner loop in isolation.
//
// VP host -> border router -> IXP fabric -> M member routers, each with a
// stub network behind it.  Alternating probes: a TTL-limited probe that
// expires at the member router after crossing the fabric (the canonical
// TSLP far-end probe) and a full-TTL echo to the member's fabric address.
// Links carry no cross traffic, so the walk itself -- hop resolution, FIB
// lookups, queue queries -- is all that is measured.

struct FabricWorld {
  sim::Network net;
  sim::NodeId vp = sim::kInvalidNode;
  std::vector<net::Ipv4Address> fabric_addrs;  ///< member fabric addresses
  std::vector<net::Ipv4Address> far_addrs;     ///< stub addresses behind members
  net::Ipv4Address vp_addr;
};

void build_fabric_world(FabricWorld& w, int members, std::uint64_t seed) {
  w.net.seed(seed);
  auto& host = w.net.add_host("vp");
  auto& border = w.net.add_router("border", {});
  auto& fabric = w.net.add_switch("fabric");

  const auto lan_subnet = *net::Ipv4Prefix::parse("10.0.0.0/30");
  const auto peering = *net::Ipv4Prefix::parse("196.60.0.0/24");
  w.vp_addr = net::Ipv4Address(10, 0, 0, 2);
  const auto border_lan = net::Ipv4Address(10, 0, 0, 1);
  const auto border_fab = net::Ipv4Address(196, 60, 0, 1);

  sim::LinkConfig lan;
  lan.capacity_bps = 1e9;
  lan.prop_delay = milliseconds(0.1);
  w.net.connect(host.id(), w.vp_addr, border.id(), border_lan, lan, lan_subnet);
  w.net.connect(border.id(), border_fab, fabric.id(), {}, lan, peering);
  border.add_route(lan_subnet, {0, {}});
  border.add_route(peering, {1, {}});

  w.vp = host.id();
  for (int m = 0; m < members; ++m) {
    auto& member = w.net.add_router(strformat("member%d", m), {});
    const auto fab_addr = net::Ipv4Address(196, 60, 0, static_cast<std::uint8_t>(10 + m));
    w.net.connect(member.id(), fab_addr, fabric.id(), {}, lan, peering);
    const auto far_subnet =
        *net::Ipv4Prefix::parse(strformat("10.%d.0.0/30", m + 1));
    const auto member_far = net::Ipv4Address(10, static_cast<std::uint8_t>(m + 1), 0, 1);
    const auto stub_addr = net::Ipv4Address(10, static_cast<std::uint8_t>(m + 1), 0, 2);
    auto& stub = w.net.add_host(strformat("stub%d", m));
    w.net.connect(member.id(), member_far, stub.id(), stub_addr, lan, far_subnet);
    member.add_route(peering, {0, {}});
    member.add_route(far_subnet, {1, {}});
    member.add_route(lan_subnet, {0, border_fab});
    border.add_route(far_subnet, {1, fab_addr});
    w.fabric_addrs.push_back(fab_addr);
    w.far_addrs.push_back(stub_addr);
  }
}

net::Packet make_probe(FabricWorld& w, net::Ipv4Address dst, std::uint8_t ttl,
                       std::uint16_t seq) {
  net::Packet p;
  p.src = w.vp_addr;
  p.dst = dst;
  p.ttl = ttl;
  p.icmp_type = net::IcmpType::kEchoRequest;
  p.ident = 0x8001;
  p.seq = seq;
  p.sent_at = w.net.simulator().now();
  return p;
}

BenchMeasurement bench_probe_fabric(const BenchOptions& opt, std::ostream* log) {
  const int members = opt.smoke ? 8 : 24;
  const std::uint64_t probes_per_pass = opt.smoke ? 20'000 : 200'000;
  FabricWorld w;
  build_fabric_world(w, members, opt.seed);

  BenchMeasurement m;
  m.name = "probe_fabric";
  m.unit = "probes_per_sec";
  m.items = probes_per_pass;

  const int passes = 1 + opt.repeats;
  auto& sim = w.net.simulator();
  for (int pass = 0; pass < passes; ++pass) {
    const std::uint64_t hops_before = w.net.hops_walked;
    std::uint64_t answered = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < probes_per_pass; ++i) {
      const std::size_t member = static_cast<std::size_t>(i % members);
      // Even probes: TTL expiry at the member router, reached across the
      // fabric.  Odd probes: full-TTL echo to the member's fabric address.
      const bool expiry = (i & 1) == 0;
      const auto pkt = expiry
                           ? make_probe(w, w.far_addrs[member], 2, static_cast<std::uint16_t>(i))
                           : make_probe(w, w.fabric_addrs[member], 64, static_cast<std::uint16_t>(i));
      const auto res = w.net.probe(w.vp, pkt);
      answered += res.answered ? 1 : 0;
      // Pace the probes in simulated time, as the real prober's rate limit
      // does: probe bytes occupy queue buffers and must drain between sends.
      sim.advance_to(sim.now() + milliseconds(1.0));
    }
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    const std::uint64_t hops = w.net.hops_walked - hops_before;
    const double per_sec = static_cast<double>(probes_per_pass) / sec;
    const double ns_per_hop = hops > 0 ? sec * 1e9 / static_cast<double>(hops) : 0.0;
    m.wall_seconds += sec;
    m.hops = hops;
    if (pass == 0) {
      m.cold_per_sec = per_sec;
      m.cold_ns_per_hop = ns_per_hop;
      m.warm_per_sec = per_sec;
      m.warm_ns_per_hop = ns_per_hop;
    } else if (per_sec > m.warm_per_sec) {
      m.warm_per_sec = per_sec;
      m.warm_ns_per_hop = ns_per_hop;
    }
    if (log && pass == 0 && answered != probes_per_pass) {
      *log << strformat("  probe_fabric: %llu/%llu probes answered (expected all)\n",
                        static_cast<unsigned long long>(answered),
                        static_cast<unsigned long long>(probes_per_pass));
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// campaign_six_vp: the acceptance workload.  All six paper campaigns at the
// paper's 5-minute cadence, serially (jobs = 1), over a shortened window.
// probes/s here is what the ">= 2x vs. the previous PR" criterion tracks.

BenchMeasurement bench_campaign(const BenchOptions& opt, std::ostream* log) {
  const auto specs = analysis::make_all_vps();
  analysis::FleetOptions fopt;
  fopt.jobs = 1;
  fopt.campaign.round_interval = kMinute * 5;
  fopt.campaign.duration_override = opt.smoke ? kDay : kDay * 7;
  fopt.collect_metrics = opt.metrics;
  const auto fleet = analysis::run_fleet(specs, fopt);

  // Summed from the campaign results, not the metrics views: with
  // collect_metrics off the registries are empty by design.
  std::uint64_t probes = 0;
  std::uint64_t rounds = 0;
  for (const auto& r : fleet.results) {
    probes += r.probes_sent;
    rounds += r.rounds_completed;
  }
  BenchMeasurement m;
  m.name = "campaign_six_vp";
  m.unit = "probes_per_sec";
  m.items = probes;
  m.hops = rounds;  // rounds, not link crossings: fleet wall includes analysis
  m.wall_seconds = fleet.wall_seconds;
  m.cold_per_sec = static_cast<double>(probes) / fleet.wall_seconds;
  m.warm_per_sec = m.cold_per_sec;  // one pass: a campaign is its own warmup
  if (log) {
    *log << strformat("  campaign_six_vp: %llu probes over %llu rounds\n",
                      static_cast<unsigned long long>(probes),
                      static_cast<unsigned long long>(rounds));
  }
  return m;
}

BenchReport run_benchmarks(const BenchOptions& opt, std::ostream* log) {
  BenchReport rep;
  rep.workload = opt.smoke ? "smoke" : "full";
  rep.seed = opt.seed;
  rep.host_cpus = static_cast<int>(std::thread::hardware_concurrency());

  for (const auto& [name, fn] : {std::pair{"probe_fabric", &bench_probe_fabric},
                                 std::pair{"campaign_six_vp", &bench_campaign}}) {
    if (!opt.only.empty() && opt.only != name) continue;
    if (log) *log << "running " << name << " ...\n";
    rep.benches.push_back(fn(opt, log));
    if (log) {
      const auto& m = rep.benches.back();
      *log << strformat("  %-16s cold %12.0f /s   warm %12.0f /s   (%s)\n", m.name.c_str(),
                        m.cold_per_sec, m.warm_per_sec, m.unit.c_str());
      if (m.cold_ns_per_hop > 0) {
        *log << strformat("  %-16s cold %10.1f ns/hop warm %10.1f ns/hop\n", "",
                          m.cold_ns_per_hop, m.warm_ns_per_hop);
      }
    }
  }
  return rep;
}

void write_json(std::ostream& out, const BenchReport& rep) {
  out << "{\n";
  out << "  \"schema\": \"afixp-bench-sim/4\",\n";
  out << strformat("  \"workload\": \"%s\",\n", rep.workload.c_str());
  out << strformat("  \"seed\": %llu,\n", static_cast<unsigned long long>(rep.seed));
  out << strformat("  \"host_cpus\": %d,\n", rep.host_cpus);
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rep.benches.size(); ++i) {
    const auto& m = rep.benches[i];
    out << "    {\n";
    out << strformat("      \"name\": \"%s\",\n", m.name.c_str());
    out << strformat("      \"unit\": \"%s\",\n", m.unit.c_str());
    out << strformat("      \"items_per_pass\": %llu,\n",
                     static_cast<unsigned long long>(m.items));
    out << strformat("      \"hops_per_pass\": %llu,\n", static_cast<unsigned long long>(m.hops));
    out << strformat("      \"cold_per_sec\": %.1f,\n", m.cold_per_sec);
    out << strformat("      \"warm_per_sec\": %.1f,\n", m.warm_per_sec);
    out << strformat("      \"cold_ns_per_hop\": %.2f,\n", m.cold_ns_per_hop);
    out << strformat("      \"warm_ns_per_hop\": %.2f,\n", m.warm_ns_per_hop);
    out << strformat("      \"wall_seconds\": %.3f\n", m.wall_seconds);
    out << (i + 1 < rep.benches.size() ? "    },\n" : "    }\n");
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("bench_probe", "probe hot-path benchmark harness (BENCH_sim.json)");
  flags.add_bool("smoke", false, "CI-sized workloads (seconds, not minutes)");
  flags.add_string("out", "BENCH_sim.json", "output JSON path (empty = stdout)");
  flags.add_string("only", "",
                   "run only the named benchmark (probe_fabric, campaign_six_vp)");
  flags.add_int("repeats", 3, "warm passes per micro-benchmark");
  flags.add_bool("metrics", false,
                 "collect campaign metrics during campaign_six_vp (measures "
                 "the observability overhead; default measures the disabled path)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  BenchOptions opt;
  opt.smoke = flags.get_bool("smoke");
  opt.only = flags.get_string("only");
  opt.repeats = static_cast<int>(flags.get_int("repeats"));
  opt.metrics = flags.get_bool("metrics");
  const auto report = run_benchmarks(opt, &std::cerr);

  const auto out_path = flags.get_string("out");
  if (out_path.empty()) {
    write_json(std::cout, report);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  write_json(out, report);
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}
