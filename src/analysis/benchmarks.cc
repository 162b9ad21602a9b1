#include "analysis/benchmarks.h"

#include <sys/resource.h>

#include <chrono>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "analysis/africa.h"
#include "analysis/campaign.h"
#include "analysis/fleet.h"
#include "analysis/substrate.h"
#include "sim/network.h"
#include "util/strings.h"

namespace ixp::analysis {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

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
  host.set_gateway(0, border_lan);
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
    stub.set_gateway(0, member_far);
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
    const double sec = elapsed_seconds(t0, Clock::now());
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
// event_loop: event-mode echoes through the fabric topology.  Every ping
// fans into a cascade of scheduled events (transmit hops, switch latency,
// ICMP generation, the reply's hops), so this measures the Simulator's
// scheduling throughput with realistic packet-carrying closures.

BenchMeasurement bench_event_loop(const BenchOptions& opt, std::ostream*) {
  const std::uint64_t pings = opt.smoke ? 5'000 : 50'000;
  FabricWorld w;
  build_fabric_world(w, opt.smoke ? 8 : 24, opt.seed + 1);
  auto& host = static_cast<sim::Host&>(w.net.node(w.vp));
  auto& sim = w.net.simulator();

  BenchMeasurement m;
  m.name = "event_loop";
  m.unit = "events_per_sec";

  const int passes = 1 + opt.repeats;
  for (int pass = 0; pass < passes; ++pass) {
    const std::uint64_t executed_before = sim.executed();
    const std::uint64_t hops_before = w.net.hops_walked;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < pings; ++i) {
      auto pkt = make_probe(w, w.fabric_addrs[i % w.fabric_addrs.size()], 64,
                            static_cast<std::uint16_t>(i));
      host.send(w.net, pkt);
      sim.run();
    }
    const double sec = elapsed_seconds(t0, Clock::now());
    const std::uint64_t events = sim.executed() - executed_before;
    m.items = events;
    m.hops = w.net.hops_walked - hops_before;
    const double per_sec = static_cast<double>(events) / sec;
    const double ns_per_hop =
        m.hops > 0 ? sec * 1e9 / static_cast<double>(m.hops) : 0.0;
    m.wall_seconds += sec;
    if (pass == 0) {
      m.cold_per_sec = per_sec;
      m.cold_ns_per_hop = ns_per_hop;
      m.warm_per_sec = per_sec;
      m.warm_ns_per_hop = ns_per_hop;
    } else if (per_sec > m.warm_per_sec) {
      m.warm_per_sec = per_sec;
      m.warm_ns_per_hop = ns_per_hop;
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// campaign_six_vp: the acceptance workload.  All six paper campaigns at the
// paper's 5-minute cadence, serially (jobs = 1), over a shortened window.
// probes/s here is what the ">= 2x vs. the previous PR" criterion tracks.

BenchMeasurement bench_campaign(const BenchOptions& opt, std::ostream* log) {
  const auto specs = make_all_vps();
  FleetOptions fopt;
  fopt.jobs = 1;
  fopt.campaign.round_interval = kMinute * 5;
  fopt.campaign.duration_override = opt.smoke ? kDay : kDay * 7;
  fopt.collect_metrics = opt.metrics;
  const auto fleet = run_fleet(specs, fopt);

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

}  // namespace

BenchReport run_sim_benchmarks(const BenchOptions& opt, std::ostream* log) {
  BenchReport rep;
  rep.workload = opt.smoke ? "smoke" : "full";
  rep.seed = opt.seed;
  rep.host_cpus = static_cast<int>(std::thread::hardware_concurrency());

  struct Entry {
    const char* name;
    BenchMeasurement (*fn)(const BenchOptions&, std::ostream*);
  };
  const Entry entries[] = {
      {"probe_fabric", &bench_probe_fabric},
      {"event_loop", &bench_event_loop},
      {"campaign_six_vp", &bench_campaign},
  };
  for (const auto& e : entries) {
    if (!opt.only.empty() && opt.only != e.name) continue;
    if (log) *log << "running " << e.name << " ...\n";
    rep.benches.push_back(e.fn(opt, log));
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

void write_bench_json(std::ostream& out, const BenchReport& rep) {
  out << "{\n";
  out << "  \"schema\": \"afixp-bench-sim/3\",\n";
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

SubstrateBenchReport run_substrate_benchmark(const SubstrateBenchOptions& opt,
                                             std::ostream* log) {
  topo::TopoSpec spec;
  if (opt.smoke) {
    // CI size: a handful of small exchanges over two days.
    spec = *topo::topo_spec_preset("regional50");
    spec.name = "smoke";
    spec.ixps = 6;
    spec.days = 2;
    spec.members_max = 40;
  } else {
    const auto preset = topo::topo_spec_preset(opt.spec);
    if (!preset) {
      throw std::runtime_error("unknown topology-spec preset: " + opt.spec);
    }
    spec = *preset;
  }
  auto rep = run_substrate_benchmark(spec, opt, log);
  rep.workload = opt.smoke ? "smoke" : "full";
  return rep;
}

SubstrateBenchReport run_substrate_benchmark(const topo::TopoSpec& spec_in,
                                             const SubstrateBenchOptions& opt,
                                             std::ostream* log) {
  topo::TopoSpec spec = spec_in;
  if (opt.seed != 0) spec.seed = opt.seed;

  const auto vps = generate_substrate(spec);
  const auto summary = summarize_substrate(spec, vps);
  if (log) {
    *log << strformat("substrate %s: %d IXPs, %d members, %llu monitored links\n",
                      spec.name.c_str(), summary.ixps, summary.members,
                      static_cast<unsigned long long>(summary.monitored_links()));
  }

  FleetOptions fopt;
  fopt.jobs = opt.jobs;
  fopt.campaign.round_interval = opt.round_interval;
  fopt.campaign.duration_override = opt.duration_override;
  fopt.campaign.columnar = true;  // the whole point: bounded-RSS storage
  fopt.collect_metrics = false;   // measure the instrumentation-free path
  const auto fleet = run_fleet(vps, fopt);

  SubstrateBenchReport rep;
  rep.workload = opt.smoke ? "smoke" : "full";
  rep.spec = spec.name;
  rep.seed = spec.seed;
  rep.jobs = fleet.jobs_used;
  rep.ixps = vps.size();
  rep.wall_seconds = fleet.wall_seconds;
  for (const auto& r : fleet.results) {
    rep.links += r.series.size();
    rep.rounds += r.rounds_completed;
    rep.probes += r.probes_sent;
    if (r.columns != nullptr) {
      rep.samples += r.columns->samples_total();
      rep.resident_bytes += r.columns->resident_bytes();
      rep.raw_bytes += r.columns->raw_bytes();
    }
  }
  // One link-round = one monitored link advanced one probing round; every
  // link-round stores one near and one far sample, so samples/2 counts
  // them exactly even though campaigns monitor different link sets.
  const double link_rounds = static_cast<double>(rep.samples) / 2.0;
  rep.link_rounds_per_sec = rep.wall_seconds > 0 ? link_rounds / rep.wall_seconds : 0.0;
  rep.probes_per_sec =
      rep.wall_seconds > 0 ? static_cast<double>(rep.probes) / rep.wall_seconds : 0.0;
  rep.bytes_per_link =
      rep.links > 0 ? static_cast<double>(rep.resident_bytes) / static_cast<double>(rep.links)
                    : 0.0;
  rep.raw_bytes_per_link =
      rep.links > 0 ? static_cast<double>(rep.raw_bytes) / static_cast<double>(rep.links) : 0.0;
  rep.compression_ratio =
      rep.resident_bytes > 0
          ? static_cast<double>(rep.raw_bytes) / static_cast<double>(rep.resident_bytes)
          : 0.0;
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) rep.peak_rss_kb = ru.ru_maxrss;
  if (log) {
    *log << strformat(
        "  %llu links, %.0f link-rounds/s, %.1f B/link encoded (%.0fx vs raw), "
        "peak RSS %ld MB, %.1fs wall (%d jobs)\n",
        static_cast<unsigned long long>(rep.links), rep.link_rounds_per_sec,
        rep.bytes_per_link, rep.compression_ratio, rep.peak_rss_kb / 1024, rep.wall_seconds,
        rep.jobs);
  }
  return rep;
}

void write_substrate_bench_json(std::ostream& out, const SubstrateBenchReport& rep) {
  out << "{\n";
  out << "  \"schema\": \"afixp-bench-substrate/1\",\n";
  out << strformat("  \"workload\": \"%s\",\n", rep.workload.c_str());
  out << strformat("  \"spec\": \"%s\",\n", rep.spec.c_str());
  out << strformat("  \"seed\": %llu,\n", static_cast<unsigned long long>(rep.seed));
  out << strformat("  \"jobs\": %d,\n", rep.jobs);
  out << strformat("  \"ixps\": %zu,\n", rep.ixps);
  out << strformat("  \"links\": %llu,\n", static_cast<unsigned long long>(rep.links));
  out << strformat("  \"rounds\": %llu,\n", static_cast<unsigned long long>(rep.rounds));
  out << strformat("  \"samples\": %llu,\n", static_cast<unsigned long long>(rep.samples));
  out << strformat("  \"probes\": %llu,\n", static_cast<unsigned long long>(rep.probes));
  out << strformat("  \"wall_seconds\": %.3f,\n", rep.wall_seconds);
  out << strformat("  \"link_rounds_per_sec\": %.1f,\n", rep.link_rounds_per_sec);
  out << strformat("  \"probes_per_sec\": %.1f,\n", rep.probes_per_sec);
  out << strformat("  \"resident_bytes\": %llu,\n",
                   static_cast<unsigned long long>(rep.resident_bytes));
  out << strformat("  \"raw_bytes\": %llu,\n", static_cast<unsigned long long>(rep.raw_bytes));
  out << strformat("  \"bytes_per_link\": %.1f,\n", rep.bytes_per_link);
  out << strformat("  \"raw_bytes_per_link\": %.1f,\n", rep.raw_bytes_per_link);
  out << strformat("  \"compression_ratio\": %.1f,\n", rep.compression_ratio);
  out << strformat("  \"peak_rss_kb\": %ld\n", rep.peak_rss_kb);
  out << "}\n";
}

}  // namespace ixp::analysis
