// Continent-scale substrate benchmark.
//
// Generates a substrate from a topology-spec preset or spec file
// (src/topo/gen.h), runs every generated campaign through the fleet with
// the columnar series store handed back, and writes BENCH_substrate.json:
// links simulated per second (one monitored link advanced one probing
// round = one link-round) and resident bytes per monitored link are the
// two numbers docs/SCALING.md sizes campaigns with.  tools/check_bench.sh
// runs the smoke size from CTest and validates the JSON against the field
// table in docs/SCALING.md.
//
//   bench_substrate [--smoke] [--spec continent100|file] [--jobs N] [--seed S]
//                   [--days D] [--out BENCH_substrate.json]
#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "analysis/fleet.h"
#include "analysis/substrate.h"
#include "topo/gen.h"
#include "util/flags.h"
#include "util/strings.h"

namespace {

using namespace ixp;

struct SubstrateBenchReport {
  std::string workload;  ///< "smoke" | "full"
  std::string spec;      ///< preset the substrate came from
  std::uint64_t seed = 0;
  int jobs = 0;
  unsigned host_cpus = 0;  ///< std::thread::hardware_concurrency of the recorder
  std::size_t ixps = 0;
  std::uint64_t links = 0;    ///< monitored links, fleet-wide
  std::uint64_t rounds = 0;   ///< TSLP rounds across all campaigns
  std::uint64_t samples = 0;  ///< stored samples (near+far columns)
  std::uint64_t probes = 0;
  double wall_seconds = 0.0;
  double link_rounds_per_sec = 0.0;  ///< links simulated per wall second
  double probes_per_sec = 0.0;
  std::uint64_t resident_bytes = 0;  ///< encoded columnar footprint
  std::uint64_t raw_bytes = 0;       ///< 8 bytes/sample equivalent
  double bytes_per_link = 0.0;       ///< resident_bytes / links
  double raw_bytes_per_link = 0.0;
  double compression_ratio = 0.0;    ///< raw_bytes / resident_bytes
  long peak_rss_kb = 0;              ///< process peak RSS after the run
};

/// Runs the fleet over `spec` (columnar store handed back, metrics off)
/// and aggregates the report.
SubstrateBenchReport run_substrate_benchmark(const topo::TopoSpec& spec, int jobs,
                                             Duration duration_override) {
  const auto vps = analysis::generate_substrate(spec);
  const auto summary = analysis::summarize_substrate(spec, vps);
  std::cerr << strformat("substrate %s: %d IXPs, %d members, %llu monitored links\n",
                         spec.name.c_str(), summary.ixps, summary.members,
                         static_cast<unsigned long long>(summary.monitored_links()));

  analysis::FleetOptions fopt;
  fopt.jobs = jobs;
  fopt.campaign.duration_override = duration_override;
  fopt.campaign.columnar = true;  // the store's footprint is half the record
  fopt.collect_metrics = false;   // measure the instrumentation-free path
  const auto fleet = analysis::run_fleet(vps, fopt);

  SubstrateBenchReport rep;
  rep.spec = spec.name;
  rep.seed = spec.seed;
  rep.jobs = fleet.jobs_used;
  rep.host_cpus = std::thread::hardware_concurrency();
  rep.ixps = vps.size();
  rep.wall_seconds = fleet.wall_seconds;
  for (const auto& r : fleet.results) {
    rep.links += r.series.size();
    rep.rounds += r.rounds_completed;
    rep.probes += r.probes_sent;
    rep.samples += r.columns->samples_total();
    rep.resident_bytes += r.columns->resident_bytes();
    rep.raw_bytes += r.columns->raw_bytes();
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
  std::cerr << strformat(
      "  %llu links, %.0f link-rounds/s, %.1f B/link encoded (%.0fx vs raw), "
      "peak RSS %ld MB, %.1fs wall (%d jobs)\n",
      static_cast<unsigned long long>(rep.links), rep.link_rounds_per_sec, rep.bytes_per_link,
      rep.compression_ratio, rep.peak_rss_kb / 1024, rep.wall_seconds, rep.jobs);
  return rep;
}

/// Serializes a report as the BENCH_substrate.json document (schema
/// "afixp-bench-substrate/1"; field reference in docs/SCALING.md).
void write_json(std::ostream& out, const SubstrateBenchReport& rep) {
  out << "{\n";
  out << "  \"schema\": \"afixp-bench-substrate/1\",\n";
  out << strformat("  \"workload\": \"%s\",\n", rep.workload.c_str());
  out << strformat("  \"spec\": \"%s\",\n", rep.spec.c_str());
  out << strformat("  \"seed\": %llu,\n", static_cast<unsigned long long>(rep.seed));
  out << strformat("  \"jobs\": %d,\n", rep.jobs);
  out << strformat("  \"host_cpus\": %u,\n", rep.host_cpus);
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

}  // namespace

int main(int argc, char** argv) {
  Flags flags("bench_substrate",
              "continent-scale substrate benchmark (BENCH_substrate.json)");
  flags.add_bool("smoke", false, "CI-sized substrate (seconds, not minutes)");
  flags.add_string("spec", "continent100",
                   "topology-spec preset (paper6, regional50, continent100) or spec file");
  flags.add_int("jobs", 0,
                strformat("fleet workers (0 = hardware concurrency, else 1..%d)",
                          analysis::kMaxThreadsFlag));
  flags.add_int("seed", 0, "override the preset's seed (0 = keep)");
  flags.add_int("days", 0, "override the campaign length in days (0 = spec)");
  flags.add_string("out", "BENCH_substrate.json", "output JSON path (empty = stdout)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  const auto jobs = analysis::thread_count_from_flag(flags.get_int("jobs"), /*zero_is_auto=*/true,
                                                     "--jobs", std::cerr);
  if (!jobs) return 2;

  const bool smoke = flags.get_bool("smoke");
  topo::TopoSpec spec;
  if (smoke) {
    // CI size: a handful of small exchanges over two days.
    spec = *topo::topo_spec_preset("regional50");
    spec.name = "smoke";
    spec.ixps = 6;
    spec.days = 2;
    spec.members_max = 40;
  } else {
    std::string error;
    const auto resolved = topo::resolve_topo_spec(flags.get_string("spec"), &error);
    if (!resolved) {
      std::cerr << "bench_substrate: --spec " << error << "\n";
      return 1;
    }
    spec = *resolved;
  }
  if (flags.get_int("seed") != 0) spec.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  // Generated substrates start their campaigns at the epoch.
  const auto days =
      analysis::campaign_length_from_days(flags.get_int("days"), TimePoint{}, "--days", std::cerr);
  if (!days) return 2;

  SubstrateBenchReport report;
  try {
    report = run_substrate_benchmark(spec, *jobs, *days);
  } catch (const std::exception& e) {
    std::cerr << "bench_substrate: " << e.what() << "\n";
    return 1;
  }
  report.workload = smoke ? "smoke" : "full";

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
