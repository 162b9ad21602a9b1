// Microbenchmarks of the library's computational kernels (google-benchmark):
// the rank-based CUSUM detector, the online detector's finalize, fluid-queue
// integration, longest-prefix FIB lookups and the serving layer's per-epoch
// fold + freeze.  These are throughput sanity checks for the campaign
// drivers and the daemon, not paper results.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/prefix_map.h"
#include "serve/snapshot.h"
#include "sim/queue.h"
#include "stats/changepoint.h"
#include "tslp/level_shift.h"
#include "tslp/online.h"
#include "util/rng.h"

namespace {

using namespace ixp;

void BM_CusumDetection(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = (i > n / 2 ? 25.0 : 10.0) + rng.normal();
  // The detector's hot-path entry, as the level-shift window scan calls
  // it: indices only, buffers reused across calls.
  const stats::CusumOptions opt;
  stats::ChangePointScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::detect_change_point_indices(v, opt, scratch).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CusumDetection)->Arg(288)->Arg(2016);

void BM_LevelShiftDay(benchmark::State& state) {
  // One year of 5-minute samples with a daily congestion plateau.
  tslp::RttSeries s;
  s.interval = kMinute * 5;
  Rng rng(2);
  for (int d = 0; d < static_cast<int>(state.range(0)); ++d) {
    for (int i = 0; i < 288; ++i) {
      const double hour = i / 12.0;
      s.ms.push_back((hour > 12 && hour < 18 ? 22.0 : 2.0) + 0.3 * std::fabs(rng.normal()));
    }
  }
  tslp::LevelShiftDetector det;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.detect(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.ms.size()));
}
BENCHMARK(BM_LevelShiftDay)->Arg(30)->Arg(365);

void BM_OnlineFinalize(benchmark::State& state) {
  // What a Table-2 snapshot still costs per link at a daily boundary of an
  // online campaign: the far detector, pushed at the 5 ms floor over a
  // prefix of 30-minute rounds with a daily plateau, finalized at the
  // classifier's 10 ms threshold: the prepare pass, the re-gate of the
  // completed windows, the scan of the trailing half-day window no push
  // completed, and the assembly.
  tslp::RttSeries s;
  s.interval = kMinute * 30;
  Rng rng(5);
  for (int d = 0; d < static_cast<int>(state.range(0)); ++d) {
    for (int i = 0; i < 48; ++i) {
      const double hour = i / 2.0;
      s.ms.push_back((hour > 12 && hour < 18 ? 22.0 : 2.0) + 0.3 * std::fabs(rng.normal()));
    }
  }
  tslp::LevelShiftOptions push;
  push.threshold_ms = 5.0;
  tslp::OnlineLevelShift far(push, s.start, s.interval);
  far.push(std::span<const double>(s.ms));
  tslp::DetectScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(far.finalize(tslp::view_of(s), scratch, 10.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.ms.size()));
}
BENCHMARK(BM_OnlineFinalize)->Arg(7);

void BM_FluidQueueAdvance(benchmark::State& state) {
  sim::DiurnalProfile::Config cfg;
  cfg.base_bps = 30e6;
  cfg.peak_bps = 90e6;
  sim::FluidQueue q({100e6, 350e3, std::make_shared<sim::DiurnalProfile>(cfg), kMinute, 0.0});
  TimePoint t{};
  for (auto _ : state) {
    t += kMinute * 5;
    benchmark::DoNotOptimize(q.queuing_delay(t));
  }
}
BENCHMARK(BM_FluidQueueAdvance);

void BM_PrefixLookup(benchmark::State& state) {
  net::PrefixMap<int> m;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    m.insert(net::Ipv4Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng.next())), 22), i);
  }
  std::uint32_t x = 1;
  for (auto _ : state) {
    x = x * 1664525u + 1013904223u;
    benchmark::DoNotOptimize(m.lookup(net::Ipv4Address(x)));
  }
}
BENCHMARK(BM_PrefixLookup);

void BM_EpochBuild(benchmark::State& state) {
  // One live epoch of `afixp serve` on a continent100-sized fleet: 1,024
  // links over 100 VPs, one VP's batch folded, then the epoch frozen.
  constexpr int kVps = 100;
  constexpr int kLinks = 1024;
  serve::SnapshotBuilder builder;
  std::map<std::string, std::string> facilities;
  std::vector<analysis::LiveVerdictBatch> batches(kVps);
  Rng rng(4);
  for (int i = 0; i < kLinks; ++i) {
    const int v = i % kVps;
    analysis::LiveVerdictBatch& b = batches[static_cast<std::size_t>(v)];
    b.vp_name = "VP" + std::to_string(v);
    b.ixp = "IXP" + std::to_string(v);
    analysis::LiveLinkVerdict l;
    l.key = "L" + std::to_string(i);
    l.far_asn = 64512 + static_cast<std::uint32_t>(i);
    l.at_ixp = true;
    l.far.baseline_ms = 2.0;
    l.far.coverage = 0.99;
    if (rng.chance(0.3)) {
      tslp::Episode e;
      e.begin = 10;
      e.end = 40;
      e.magnitude_ms = rng.uniform(2.0, 40.0);
      e.p_value = 1e-6;
      l.far.episodes.push_back(e);
    }
    facilities[b.vp_name + "/" + std::to_string(l.far_asn)] =
        b.ixp + "-F" + std::to_string(i % 3 + 1);
    b.links.push_back(std::move(l));
  }
  builder.set_facilities(std::move(facilities));
  for (const analysis::LiveVerdictBatch& b : batches) builder.fold_live(b.vp_name, b.ixp, b);
  std::size_t v = 0;
  for (auto _ : state) {
    analysis::LiveVerdictBatch& b = batches[v];
    for (analysis::LiveLinkVerdict& l : b.links) ++l.samples;
    builder.fold_live(b.vp_name, b.ixp, b);
    benchmark::DoNotOptimize(builder.build("", false));
    v = (v + 1) % batches.size();
  }
}
BENCHMARK(BM_EpochBuild);

}  // namespace
