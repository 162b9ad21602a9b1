// Substrate benchmark: the continent-scale acceptance workload.
//
// Generates a substrate from a topology-spec preset (topo/gen.h), runs the
// whole fleet with the columnar series store engaged, and reports the two
// numbers docs/SCALING.md sizes everything with: links simulated per
// second (one monitored link advanced one probing round = one link-round)
// and resident bytes per monitored link.  Entry points: `afixp gen
// --bench` and bench/bench_substrate.cc; results are committed as
// BENCH_substrate.json and linted by tools/check_bench.sh and
// tools/check_docs.sh.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "topo/gen.h"
#include "util/time.h"

namespace ixp::analysis {

struct SubstrateBenchOptions {
  /// CI-sized: a 6-IXP substrate over two days (seconds of wall clock).
  /// Full mode runs the `spec` preset as-is.
  bool smoke = false;
  std::string spec = "continent100";  ///< preset fed to topo_spec_preset()
  std::uint64_t seed = 0;             ///< 0 = keep the preset's seed
  int jobs = 0;                       ///< fleet workers (0 = auto)
  Duration round_interval = kMinute * 5;
  Duration duration_override = Duration(0);  ///< 0 = the spec's `days`
};

struct SubstrateBenchReport {
  std::string workload;  ///< "smoke" | "full"
  std::string spec;      ///< preset the substrate came from
  std::uint64_t seed = 0;
  int jobs = 0;
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

/// Generates the substrate, runs the fleet (columnar store on), and
/// aggregates the report.  Throws std::runtime_error on an unknown preset.
SubstrateBenchReport run_substrate_benchmark(const SubstrateBenchOptions& opt,
                                             std::ostream* log = nullptr);

/// Same harness over an already-resolved spec (a preset or a file the
/// caller parsed -- `afixp gen --bench` lands here).  `opt.spec` and
/// `opt.smoke` are ignored; the report's workload is "full".
SubstrateBenchReport run_substrate_benchmark(const topo::TopoSpec& spec,
                                             const SubstrateBenchOptions& opt,
                                             std::ostream* log = nullptr);

/// Serializes a report as the BENCH_substrate.json document (schema
/// "afixp-bench-substrate/1"; field reference in docs/SCALING.md).
void write_substrate_bench_json(std::ostream& out, const SubstrateBenchReport& rep);

}  // namespace ixp::analysis
