// TSLP statistics benchmark.
//
// Classifies one synthetic link corpus (sized from a topology-spec preset)
// three ways -- the scalar oracle from tests/oracle/, the production
// classifier (CongestionClassifier::classify over detect_fast), and the
// online detector fed day-sized chunks -- and writes BENCH_tslp.json
// (schema afixp-bench-tslp/2): series classified per second for each, the
// fast/scalar and online/scalar speedups, and the equivalence verdict (all
// three must produce byte-identical reports).  tools/check_bench.sh runs
// the smoke size from CTest, validates the JSON, and gates the committed
// reference record on speedup_fast >= 2x.
//
//   bench_tslp [--smoke] [--spec regional50] [--seed S] [--repeats N]
//              [--out BENCH_tslp.json]
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/substrate.h"
#include "oracle/oracle.h"
#include "topo/gen.h"
#include "tslp/classifier.h"
#include "tslp/engine.h"
#include "tslp/online.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace ixp;

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// The corpus is synthetic but sized from the same topology-spec presets
// the substrate benchmark runs: monitored-link count from the generated
// substrate, samples from the spec's campaign length at the 5-minute
// cadence, behaviour mix (congested/noisy fractions) from the spec's
// knobs.  Generating series directly keeps the harness measuring the
// statistics path alone -- no simulator time in the denominator.

/// One synthetic link: clean near side, far side optionally carrying a
/// daily congestion plateau, heavy-tailed ICMP outliers, random unanswered
/// rounds, and occasional maintenance gap runs on both sides.
tslp::LinkSeries make_link(const topo::TopoSpec& spec, std::uint64_t rounds,
                           std::size_t link_index) {
  Rng rng(spec.seed ^ (0x9e3779b97f4a7c15ULL * (link_index + 1)));
  const bool congested = rng.chance(spec.congested_fraction);
  const bool noisy = !congested && rng.chance(spec.noise_fraction);
  const double base = rng.uniform(1.5, 45.0);
  const double outlier_rate = noisy ? 0.15 : 0.01;
  const double magnitude = rng.uniform(12.0, 28.0);
  const double onset_hour = rng.uniform(11.0, 16.0);
  const double width_hours = spec.congested_dtud_hours;

  tslp::LinkSeries ls;
  ls.key = strformat("bench-link-%zu", link_index);
  ls.near_rtt.interval = kMinute * 5;
  ls.far_rtt.interval = kMinute * 5;
  const auto spd = static_cast<std::uint64_t>(kDay.count() / (kMinute * 5).count());
  ls.near_rtt.ms.reserve(rounds);
  ls.far_rtt.ms.reserve(rounds);
  for (std::uint64_t t = 0; t < rounds; ++t) {
    const double hour = 24.0 * static_cast<double>(t % spd) / static_cast<double>(spd);
    if (rng.chance(0.015)) {  // unanswered round: both probes lost
      ls.near_rtt.ms.push_back(tslp::kMissing);
      ls.far_rtt.ms.push_back(tslp::kMissing);
      continue;
    }
    double far = base + 0.3 * std::fabs(rng.normal());
    if (congested && hour >= onset_hour && hour < onset_hour + width_hours) far += magnitude;
    if (rng.chance(outlier_rate)) far += rng.pareto(1.5, 30.0);  // slow ICMP path
    double near = 0.3 + 0.1 * std::fabs(rng.normal());
    if (rng.chance(0.01)) near += rng.pareto(1.5, 10.0);
    ls.near_rtt.ms.push_back(near);
    ls.far_rtt.ms.push_back(far);
  }
  // Maintenance outages: whole-link gap runs long enough to become
  // explicit SeriesGap markers (kGapMinRun is 6).
  const auto outages = 1 + rounds / (spd * 14);
  for (std::uint64_t o = 0; o < outages; ++o) {
    const auto len = static_cast<std::uint64_t>(rng.uniform_int(6, 40));
    const auto at = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rounds > len ? rounds - len : 0)));
    for (std::uint64_t k = at; k < std::min(rounds, at + len); ++k) {
      ls.near_rtt.ms[k] = tslp::kMissing;
      ls.far_rtt.ms[k] = tslp::kMissing;
    }
  }
  return ls;
}

void fingerprint_bits(std::string& out, double v) {
  out += strformat("%016llx,",
                   static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
}

void fingerprint_shifts(std::string& out, const tslp::LevelShiftResult& r) {
  fingerprint_bits(out, r.baseline_ms);
  fingerprint_bits(out, r.coverage);
  out += strformat("ref%d;raw%zu;w%zu/%zu/%zu;", r.refused_low_coverage ? 1 : 0,
                   r.raw_episode_count, r.windows_scanned, r.windows_skipped_dark,
                   r.windows_skipped_quiet);
  for (const auto& g : r.gaps) out += strformat("g%zu+%zu;", g.begin, g.end);
  for (const auto& e : r.episodes) {
    out += strformat("e%zu+%zu:", e.begin, e.end);
    fingerprint_bits(out, e.magnitude_ms);
    fingerprint_bits(out, e.p_value);
  }
}

/// Every field a consumer can observe, bit-exact; two reports with equal
/// fingerprints are interchangeable.
std::string fingerprint_report(const tslp::LinkReport& r) {
  std::string out;
  out += strformat("v%d;p%d;nc%d;diurnal%d/%d/%d;", static_cast<int>(r.verdict),
                   static_cast<int>(r.persistence), r.near_clean ? 1 : 0,
                   r.diurnal.recurring ? 1 : 0, r.diurnal.elevated_days, r.diurnal.days_with_data);
  fingerprint_bits(out, r.diurnal.acf_day);
  fingerprint_bits(out, r.diurnal.elevated_day_frac);
  fingerprint_bits(out, r.waveform.a_w_ms);
  fingerprint_bits(out, r.waveform.weekday_peak_ms);
  fingerprint_bits(out, r.waveform.weekend_peak_ms);
  out += strformat("ud%lld;per%lld;", static_cast<long long>(r.waveform.dt_ud.count()),
                   static_cast<long long>(r.waveform.period.count()));
  out += "far:";
  fingerprint_shifts(out, r.far_shifts);
  out += "near:";
  fingerprint_shifts(out, r.near_shifts);
  return out;
}

using Corpus = std::vector<tslp::LinkSeries>;
using Reports = std::vector<tslp::LinkReport>;

Reports run_scalar(const Corpus& corpus, const tslp::ClassifierOptions& copt) {
  Reports out;
  out.reserve(corpus.size());
  for (const auto& ls : corpus) out.push_back(oracle::classify(ls, copt));
  return out;
}

Reports run_fast(const Corpus& corpus, const tslp::ClassifierOptions& copt) {
  const tslp::CongestionClassifier classifier(copt);
  Reports out;
  out.reserve(corpus.size());
  for (const auto& ls : corpus) out.push_back(classifier.classify(ls));
  return out;
}

Reports run_online(const Corpus& corpus, const tslp::ClassifierOptions& copt) {
  auto near_opts = copt.level_shift;
  near_opts.threshold_ms = copt.near_threshold_ms;
  const tslp::CongestionClassifier classifier(copt);

  // Day-sized chunks model campaign segments arriving between membership
  // events; the online detector's results are chunking-invariant.
  const auto chunk = static_cast<std::size_t>(kDay.count() / (kMinute * 5).count());
  tslp::DetectScratch scratch;
  Reports out;
  out.reserve(corpus.size());
  for (const auto& ls : corpus) {
    tslp::OnlineLevelShift far(copt.level_shift, ls.far_rtt.start, ls.far_rtt.interval);
    tslp::OnlineLevelShift near(near_opts, ls.near_rtt.start, ls.near_rtt.interval);
    for (std::size_t at = 0; at < ls.far_rtt.ms.size(); at += chunk) {
      const auto n = std::min(chunk, ls.far_rtt.ms.size() - at);
      far.push(std::span<const double>(ls.far_rtt.ms.data() + at, n));
      near.push(std::span<const double>(ls.near_rtt.ms.data() + at, n));
    }
    out.push_back(classifier.classify_with_shifts(
        ls, far.finalize(tslp::view_of(ls.far_rtt), scratch),
        near.finalize(tslp::view_of(ls.near_rtt), scratch)));
  }
  return out;
}

/// One engine's throughput.  A "series" is one side of one monitored link
/// (each link contributes a near and a far detection).
struct EngineMeasurement {
  std::string name;
  double cold_series_per_sec = 0.0;
  double warm_series_per_sec = 0.0;  ///< best warm pass (= cold when repeats 0)
  double wall_seconds = 0.0;         ///< total across all passes
};

struct Report {
  std::string workload;  ///< "smoke" | "full"
  std::string spec;
  std::uint64_t seed = 0;
  unsigned host_cpus = 0;
  std::uint64_t links = 0;
  std::uint64_t series = 0;              ///< 2 * links (near + far sides)
  std::uint64_t samples_per_series = 0;  ///< campaign rounds at the 5-min cadence
  std::vector<EngineMeasurement> engines;
  double speedup_fast = 0.0;    ///< fast warm / scalar warm
  double speedup_online = 0.0;  ///< online warm / scalar warm
  bool equivalent = false;      ///< every engine matched scalar on every link
  std::uint64_t episodes = 0;
  std::uint64_t congested_links = 0;
  std::uint64_t windows_scanned = 0;
  std::uint64_t windows_skipped = 0;  ///< dark + quiet skips
  long peak_rss_kb = 0;
};

Report run_benchmark(const topo::TopoSpec& spec, bool smoke, int repeats) {
  const auto vps = analysis::generate_substrate(spec);
  const std::uint64_t links = analysis::summarize_substrate(spec, vps).monitored_links();
  const auto rounds = static_cast<std::uint64_t>(spec.days) *
                      static_cast<std::uint64_t>(kDay.count() / (kMinute * 5).count());
  std::cerr << strformat("tslp corpus from %s: %llu links x %llu rounds\n", spec.name.c_str(),
                         static_cast<unsigned long long>(links),
                         static_cast<unsigned long long>(rounds));
  Corpus corpus;
  corpus.reserve(links);
  for (std::uint64_t i = 0; i < links; ++i) {
    corpus.push_back(make_link(spec, rounds, static_cast<std::size_t>(i)));
  }

  Report rep;
  rep.workload = smoke ? "smoke" : "full";
  rep.spec = spec.name;
  rep.seed = spec.seed;
  rep.host_cpus = std::thread::hardware_concurrency();
  rep.links = links;
  rep.series = links * 2;
  rep.samples_per_series = rounds;

  const tslp::ClassifierOptions copt;  // paper defaults
  struct Engine {
    const char* name;
    Reports (*fn)(const Corpus&, const tslp::ClassifierOptions&);
  };
  const Engine engines[] = {
      {"scalar", &run_scalar},
      {"fast", &run_fast},
      {"online", &run_online},
  };
  const int passes = 1 + std::max(0, repeats);
  std::vector<Reports> first_pass;
  for (const auto& e : engines) {
    std::cerr << "running tslp " << e.name << " ...\n";
    EngineMeasurement m;
    m.name = e.name;
    for (int pass = 0; pass < passes; ++pass) {
      const auto t0 = Clock::now();
      auto reports = e.fn(corpus, copt);
      const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
      const double per_sec = sec > 0 ? static_cast<double>(rep.series) / sec : 0.0;
      m.wall_seconds += sec;
      if (pass == 0) {
        m.cold_series_per_sec = per_sec;
        m.warm_series_per_sec = per_sec;
        first_pass.push_back(std::move(reports));
      } else {
        m.warm_series_per_sec = std::max(m.warm_series_per_sec, per_sec);
      }
    }
    std::cerr << strformat("  %-8s cold %10.1f series/s   warm %10.1f series/s\n",
                           m.name.c_str(), m.cold_series_per_sec, m.warm_series_per_sec);
    rep.engines.push_back(std::move(m));
  }

  // Equivalence: every engine byte-identical to the scalar oracle on every
  // link.
  rep.equivalent = true;
  for (std::size_t i = 0; i < corpus.size() && rep.equivalent; ++i) {
    const auto scalar_fp = fingerprint_report(first_pass[0][i]);
    for (std::size_t k = 1; k < first_pass.size(); ++k) {
      if (fingerprint_report(first_pass[k][i]) != scalar_fp) {
        rep.equivalent = false;
        std::cerr << strformat("  engine %s DIVERGES from scalar on link %zu\n",
                               rep.engines[k].name.c_str(), i);
        break;
      }
    }
  }

  const double scalar = rep.engines[0].warm_series_per_sec;
  rep.speedup_fast = scalar > 0 ? rep.engines[1].warm_series_per_sec / scalar : 0.0;
  rep.speedup_online = scalar > 0 ? rep.engines[2].warm_series_per_sec / scalar : 0.0;

  for (const auto& r : first_pass[1]) {
    rep.windows_scanned += r.far_shifts.windows_scanned + r.near_shifts.windows_scanned;
    rep.windows_skipped += r.far_shifts.windows_skipped_dark + r.far_shifts.windows_skipped_quiet +
                           r.near_shifts.windows_skipped_dark + r.near_shifts.windows_skipped_quiet;
    rep.episodes += r.far_shifts.episodes.size() + r.near_shifts.episodes.size();
    rep.congested_links += r.congested() ? 1 : 0;
  }

  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) rep.peak_rss_kb = ru.ru_maxrss;
  std::cerr << strformat(
      "  speedup: fast %.2fx, online %.2fx (%s); %llu episodes, %llu congested links\n",
      rep.speedup_fast, rep.speedup_online, rep.equivalent ? "equivalent" : "DIVERGENT",
      static_cast<unsigned long long>(rep.episodes),
      static_cast<unsigned long long>(rep.congested_links));
  return rep;
}

void write_json(std::ostream& out, const Report& rep) {
  out << "{\n";
  out << "  \"schema\": \"afixp-bench-tslp/2\",\n";
  out << strformat("  \"workload\": \"%s\",\n", rep.workload.c_str());
  out << strformat("  \"spec\": \"%s\",\n", rep.spec.c_str());
  out << strformat("  \"seed\": %llu,\n", static_cast<unsigned long long>(rep.seed));
  out << strformat("  \"host_cpus\": %u,\n", rep.host_cpus);
  out << strformat("  \"links\": %llu,\n", static_cast<unsigned long long>(rep.links));
  out << strformat("  \"series\": %llu,\n", static_cast<unsigned long long>(rep.series));
  out << strformat("  \"samples_per_series\": %llu,\n",
                   static_cast<unsigned long long>(rep.samples_per_series));
  out << strformat("  \"samples_total\": %llu,\n",
                   static_cast<unsigned long long>(rep.series * rep.samples_per_series));
  out << "  \"engines\": [\n";
  for (std::size_t i = 0; i < rep.engines.size(); ++i) {
    const auto& m = rep.engines[i];
    out << "    {\n";
    out << strformat("      \"name\": \"%s\",\n", m.name.c_str());
    out << strformat("      \"cold_series_per_sec\": %.1f,\n", m.cold_series_per_sec);
    out << strformat("      \"warm_series_per_sec\": %.1f,\n", m.warm_series_per_sec);
    out << strformat("      \"wall_seconds\": %.3f\n", m.wall_seconds);
    out << (i + 1 < rep.engines.size() ? "    },\n" : "    }\n");
  }
  out << "  ],\n";
  out << strformat("  \"speedup_fast\": %.2f,\n", rep.speedup_fast);
  out << strformat("  \"speedup_online\": %.2f,\n", rep.speedup_online);
  out << strformat("  \"equivalent\": %s,\n", rep.equivalent ? "true" : "false");
  out << strformat("  \"episodes\": %llu,\n", static_cast<unsigned long long>(rep.episodes));
  out << strformat("  \"congested_links\": %llu,\n",
                   static_cast<unsigned long long>(rep.congested_links));
  out << strformat("  \"windows_scanned\": %llu,\n",
                   static_cast<unsigned long long>(rep.windows_scanned));
  out << strformat("  \"windows_skipped\": %llu,\n",
                   static_cast<unsigned long long>(rep.windows_skipped));
  out << strformat("  \"peak_rss_kb\": %ld\n", rep.peak_rss_kb);
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("bench_tslp", "TSLP statistics benchmark (BENCH_tslp.json)");
  flags.add_bool("smoke", false, "CI-sized corpus (seconds, not minutes)");
  flags.add_string("spec", "regional50",
                   "topology-spec preset sizing the corpus (paper6, regional50, continent100)");
  flags.add_int("seed", 0, "override the preset's seed (0 = keep)");
  flags.add_int("repeats", 1, "warm passes per engine (cold pass is always 1)");
  flags.add_string("out", "BENCH_tslp.json", "output JSON path (empty = stdout)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }

  // Smoke: a 6-IXP spec over two days.
  topo::TopoSpec spec;
  if (flags.get_bool("smoke")) {
    spec = *topo::topo_spec_preset("regional50");
    spec.name = "smoke";
    spec.ixps = 6;
    spec.days = 2;
    spec.members_max = 40;
  } else {
    const auto preset = topo::topo_spec_preset(flags.get_string("spec"));
    if (!preset) {
      std::cerr << "bench_tslp: unknown topology-spec preset: " << flags.get_string("spec")
                << "\n";
      return 2;
    }
    spec = *preset;
  }
  if (flags.get_int("seed") != 0) spec.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const Report report =
      run_benchmark(spec, flags.get_bool("smoke"), static_cast<int>(flags.get_int("repeats")));

  const auto out_path = flags.get_string("out");
  if (out_path.empty()) {
    write_json(std::cout, report);
    return report.equivalent ? 0 : 1;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  write_json(out, report);
  std::cerr << "wrote " << out_path << "\n";
  return report.equivalent ? 0 : 1;
}
