// Fleet executor + thread pool: the parallel campaign path must be
// bit-identical to the serial path for any job count (the determinism
// pin behind `afixp tables --jobs N`), and the pool must drain cleanly
// when a campaign throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "analysis/africa.h"
#include "analysis/fleet.h"
#include "analysis/substrate.h"
#include "analysis/tables.h"
#include "obs/export.h"
#include "topo/gen.h"
#include "util/thread_pool.h"

namespace ixp::analysis {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialDegenerateCase) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(8, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  // One thread claims indices strictly in submission order.
  std::vector<int> want(8);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(ThreadPool, DrainsUnderExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> ran(16);
  // Two tasks throw; the lowest index must be the one reported, every
  // other task must still run, and the pool must survive for a new batch.
  EXPECT_THROW(
      {
        try {
          pool.parallel_for(ran.size(), [&](std::size_t i) {
            ++ran[i];
            if (i == 11) throw std::runtime_error("task 11");
            if (i == 3) throw std::runtime_error("task 3");
          });
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task 3");
          throw;
        }
      },
      std::runtime_error);
  for (const auto& h : ran) EXPECT_EQ(h.load(), 1);

  std::atomic<int> count{0};
  pool.parallel_for(32, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, BackToBackBatchesOfChangingSize) {
  // Rapid small batches of shrinking and growing sizes must never claim an
  // out-of-range index or carry a claim from one batch into the next.
  ThreadPool pool(4);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t n = static_cast<std::size_t>(iter * 13 % 7);
    std::atomic<int> count{0};
    std::atomic<bool> out_of_range{false};
    pool.parallel_for(n, [&](std::size_t i) {
      if (i >= n) out_of_range = true;
      ++count;
    });
    ASSERT_FALSE(out_of_range.load()) << "iter " << iter;
    ASSERT_EQ(count.load(), static_cast<int>(n)) << "iter " << iter;
  }
}

TEST(ThreadPool, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(2, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 2);
  pool.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ResolveJobsClamps) {
  EXPECT_EQ(ThreadPool::resolve_jobs(4, 6), 4);
  EXPECT_EQ(ThreadPool::resolve_jobs(16, 6), 6);   // clamp to fleet size
  EXPECT_GE(ThreadPool::resolve_jobs(0, 6), 1);    // auto is at least 1
  EXPECT_LE(ThreadPool::resolve_jobs(0, 2), 2);    // auto is clamped too
  EXPECT_EQ(ThreadPool::resolve_jobs(5, 6), 5);
}

// ---------------------------------------------------------------------------
// Fleet determinism: parallel == serial, any job count.

// Renders the Table 1 + Table 2 rows exactly as the table benches do, so
// "byte-identical" here is the same property the acceptance check pins.
std::string render_tables(const std::vector<VpCampaignResult>& results,
                          const std::vector<VpSpec>& specs) {
  std::vector<Table1Row> t1;
  std::vector<Table2Row> t2;
  for (std::size_t i = 0; i < results.size(); ++i) {
    t1.push_back(make_table1_row(results[i]));
    for (auto& row : make_table2_rows(results[i], specs[i])) t2.push_back(row);
  }
  std::ostringstream out;
  print_table1(out, t1);
  print_table2(out, t2);
  return out.str();
}

TEST(Fleet, ParallelMatchesSerialByteForByte) {
  const auto specs = make_all_vps();
  CampaignOptions copt;
  copt.round_interval = kMinute * 30;
  copt.duration_override = kDay * 14;  // 2-week fast campaigns

  // Serial reference: plain run_campaign per spec, no pool involved.
  std::vector<VpCampaignResult> serial;
  for (const auto& spec : specs) {
    auto rt = build_scenario(spec);
    serial.push_back(run_campaign(*rt, spec, copt));
  }
  const std::string want = render_tables(serial, specs);
  ASSERT_FALSE(want.empty());

  for (const int jobs : {1, 2, 6}) {
    FleetOptions fopt;
    fopt.campaign = copt;
    fopt.jobs = jobs;
    const auto fleet = run_fleet(specs, fopt);
    EXPECT_EQ(fleet.jobs_used, jobs);
    EXPECT_EQ(render_tables(fleet.results, specs), want) << "jobs=" << jobs;
  }
}

TEST(Fleet, MetricsArePopulatedInSpecOrder) {
  const auto specs = make_all_vps();
  FleetOptions fopt;
  fopt.campaign.round_interval = kMinute * 60;
  fopt.campaign.duration_override = kDay * 7;
  fopt.jobs = 2;
  std::atomic<int> progress_events{0};
  fopt.on_progress = [&](const CampaignMetrics& m) {
    ++progress_events;
    EXPECT_LT(m.vp_index, specs.size());
  };
  const auto fleet = run_fleet(specs, fopt);
  ASSERT_EQ(fleet.metrics.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& m = fleet.metrics[i];
    EXPECT_EQ(m.vp_name, specs[i].vp_name);
    EXPECT_EQ(m.vp_index, i);
    EXPECT_TRUE(m.finished);
    EXPECT_GT(m.rounds_completed(), 0u);
    EXPECT_GT(m.probes_sent(), 0u);
    EXPECT_GE(m.bdrmap_runs(), 1u);
    EXPECT_GT(m.monitored_links(), 0u);
    EXPECT_GT(m.peak_rss_kb, 0);
    EXPECT_EQ(m.probes_sent(), fleet.results[i].probes_sent);
    EXPECT_EQ(m.rounds_completed(), fleet.results[i].rounds_completed);
    EXPECT_EQ(m.bdrmap_runs(), fleet.results[i].bdrmap_runs);
  }
  // At minimum the six finished events fired; boundary events add more.
  EXPECT_GE(progress_events.load(), static_cast<int>(specs.size()));
  EXPECT_GT(fleet.wall_seconds, 0.0);
}

TEST(Fleet, RegistryExportIsByteIdenticalAcrossJobCounts) {
  // The determinism guarantee behind `--metrics-out`: the merged fleet
  // registry, rendered by either exporter, is a pure function of the
  // workload -- the job count must never leak into the bytes.
  const auto specs = make_all_vps();
  std::string want;
  for (const int jobs : {1, 3}) {
    FleetOptions fopt;
    fopt.campaign.round_interval = kMinute * 60;
    fopt.campaign.duration_override = kDay * 7;
    fopt.jobs = jobs;
    const auto fleet = run_fleet(specs, fopt);

    // The fleet-wide sums must agree with the per-VP results.
    std::uint64_t probes = 0;
    for (const auto& r : fleet.results) probes += r.probes_sent;
    EXPECT_EQ(fleet.registry.counter_value(metric::kProbesSent), probes);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string vp_label = "vp=\"" + specs[i].vp_name + "\"";
      EXPECT_EQ(fleet.registry.counter_value(metric::kProbesSent, vp_label),
                fleet.results[i].probes_sent)
          << specs[i].vp_name;
    }
    // Gauges too: links and series bytes are held side by side, so the
    // unlabelled value is the sum over VPs, not the last VP merged.
    for (const char* gauge : {metric::kMonitoredLinks, metric::kSeriesResidentBytes,
                              metric::kSeriesRawBytes}) {
      double sum = 0.0;
      for (const auto& s : specs) {
        sum += fleet.registry.gauge_value(gauge, "vp=\"" + s.vp_name + "\"");
      }
      EXPECT_GT(sum, 0.0) << gauge;
      EXPECT_EQ(fleet.registry.gauge_value(gauge), sum) << gauge;
    }

    std::ostringstream json, prom;
    obs::write_json(json, fleet.registry);
    obs::write_prometheus(prom, fleet.registry);
    ASSERT_FALSE(json.str().empty());
    ASSERT_FALSE(prom.str().empty());
    const std::string both = json.str() + "\n---\n" + prom.str();
    if (want.empty()) {
      want = both;
    } else {
      EXPECT_EQ(both, want) << "jobs=" << jobs;
    }
  }
}

// ---------------------------------------------------------------------------
// Cost-model shard assignment

TEST(Fleet, ShardPlanCoversEverySpecExactlyOnce) {
  const auto specs = make_all_vps();
  CampaignOptions copt;
  copt.round_interval = kMinute * 30;
  for (const int jobs : {1, 2, 4, 6, 99}) {
    const auto plan = plan_shards(specs, jobs, copt);
    ASSERT_EQ(plan.cost.size(), specs.size());
    ASSERT_EQ(plan.shard_of.size(), specs.size());
    EXPECT_LE(plan.shards.size(), static_cast<std::size_t>(std::max(jobs, 1)));
    EXPECT_LE(plan.shards.size(), specs.size());  // never more shards than work
    std::vector<int> seen(specs.size(), 0);
    for (std::size_t s = 0; s < plan.shards.size(); ++s) {
      for (const std::size_t i : plan.shards[s]) {
        ASSERT_LT(i, specs.size());
        ++seen[i];
        EXPECT_EQ(plan.shard_of[i], static_cast<int>(s));
      }
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "spec " << i << " at jobs=" << jobs;
      EXPECT_GT(plan.cost[i], 0.0);
    }
    // Pure function of (specs, jobs, options): re-planning is identical.
    const auto again = plan_shards(specs, jobs, copt);
    EXPECT_EQ(again.shards, plan.shards);
    EXPECT_EQ(again.shard_of, plan.shard_of);
    EXPECT_FALSE(plan.to_string(specs).empty());
  }
}

TEST(Fleet, ShardPlanBalancesByEstimatedCost) {
  // LPT with two shards: the heaviest spec must sit alone in one shard
  // unless the remaining specs together are lighter than it.
  const auto specs = make_all_vps();
  CampaignOptions copt;
  const auto plan = plan_shards(specs, 2, copt);
  ASSERT_EQ(plan.shards.size(), 2u);
  double total = 0.0, heaviest = 0.0;
  for (const double c : plan.cost) {
    total += c;
    heaviest = std::max(heaviest, c);
  }
  for (const auto& shard : plan.shards) {
    double load = 0.0;
    for (const std::size_t i : shard) load += plan.cost[i];
    // Greedy LPT bound: no shard exceeds half the total plus one item.
    EXPECT_LE(load, total / 2.0 + heaviest + 1e-9);
  }
  // Cost estimates respect the duration override (half the window, about
  // half the link-rounds, plus the constant per-neighbor charge).
  CampaignOptions half = copt;
  half.duration_override = kDay * 30;
  CampaignOptions full = copt;
  full.duration_override = kDay * 60;
  const double c_half = estimate_campaign_cost(specs[0], half);
  const double c_full = estimate_campaign_cost(specs[0], full);
  EXPECT_GT(c_half, 0.0);
  EXPECT_LT(c_half, c_full);
}

TEST(Fleet, GeneratedSubstrateByteIdenticalAcrossJobCounts) {
  // The continent-scale path: a generated substrate run with the columnar
  // store engaged must produce bit-identical decoded series for any job
  // count, even though the shard plan changes with --jobs.
  auto spec = *topo::topo_spec_preset("regional50");
  spec.ixps = 5;
  spec.days = 2;
  spec.members_max = 30;
  const auto vps = generate_substrate(spec);

  std::string want;
  std::size_t want_shards = 0;
  for (const int jobs : {1, 3}) {
    FleetOptions fopt;
    fopt.campaign.round_interval = kMinute * 30;
    fopt.campaign.columnar = true;
    fopt.jobs = jobs;
    const auto fleet = run_fleet(vps, fopt);
    EXPECT_EQ(fleet.plan.shards.size(), static_cast<std::size_t>(jobs));

    std::ostringstream rendered;
    for (const auto& r : fleet.results) {
      ASSERT_NE(r.columns, nullptr);
      ASSERT_EQ(r.columns->size(), r.series.size());
      for (std::size_t i = 0; i < r.columns->size(); ++i) {
        const auto ls = r.columns->decode(i);
        rendered << ls.key << ":" << ls.near_rtt.ms.size();
        for (const double v : ls.near_rtt.ms) {
          rendered << "," << std::bit_cast<std::uint64_t>(v);
        }
        for (const double v : ls.far_rtt.ms) {
          rendered << "," << std::bit_cast<std::uint64_t>(v);
        }
        rendered << "\n";
      }
      for (const auto& rep : r.reports) rendered << rep.congested() << " ";
    }
    ASSERT_FALSE(rendered.str().empty());
    if (want.empty()) {
      want = rendered.str();
      want_shards = fleet.plan.shards.size();
    } else {
      EXPECT_EQ(rendered.str(), want) << "jobs=" << jobs;
      EXPECT_NE(fleet.plan.shards.size(), want_shards)
          << "plan should differ across job counts while results stay equal";
    }
  }
}

}  // namespace
}  // namespace ixp::analysis
