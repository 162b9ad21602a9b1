#include "analysis/benchmarks.h"

#include <sys/resource.h>

#include <ostream>
#include <stdexcept>

#include "analysis/fleet.h"
#include "analysis/substrate.h"
#include "util/strings.h"

namespace ixp::analysis {

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
