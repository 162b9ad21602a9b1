// Fleet driver: runs many VP campaigns concurrently.
//
// The paper's measurement plane is embarrassingly parallel -- six Ark
// vantage points probed their IXPs independently for a year -- so the
// fleet fans the campaigns out across a deterministic thread pool
// (util/thread_pool.h).  Each worker builds its *own* ScenarioRuntime, so
// no simulator state is ever shared, and results are merged in spec order:
// the output is bit-identical to the serial path for any job count
// (pinned by tests/test_fleet.cc).
//
// Each campaign carries a per-run metrics struct (rounds, probes/sec,
// bdrmap re-runs, peak RSS sample, wall time) surfaced through a progress
// callback; FleetStatusPrinter renders those as the live per-VP status
// line used by `afixp tables --jobs N` and the table benches.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/campaign.h"

namespace ixp::analysis {

/// Per-campaign run metrics: a snapshot of the campaign's obs::Registry
/// shard plus the host-side values no deterministic registry may carry
/// (wall clock, RSS).  The quantitative accessors are views over the
/// snapshot -- one source of truth, shared with `--metrics-out` exports.
/// Host-side observability only: nothing in here feeds back into the
/// (deterministic) simulation.
struct CampaignMetrics {
  std::string vp_name;
  std::size_t vp_index = 0;      ///< position in the spec list
  obs::Registry counters;        ///< snapshot of the campaign's registry shard
  double wall_seconds = 0.0;     ///< host wall-clock of this campaign
  double probes_per_sec = 0.0;   ///< probes_sent() / wall_seconds
  long peak_rss_kb = 0;          ///< process peak RSS, sampled at completion
  bool finished = false;

  [[nodiscard]] std::uint64_t rounds_completed() const {
    return counters.counter_value(metric::kRounds);
  }
  [[nodiscard]] std::uint64_t probes_sent() const {
    return counters.counter_value(metric::kProbesSent);
  }
  [[nodiscard]] std::uint64_t bdrmap_runs() const {
    return counters.counter_value(metric::kBdrmapRuns);
  }
  [[nodiscard]] std::size_t monitored_links() const {
    return static_cast<std::size_t>(counters.gauge_value(metric::kMonitoredLinks));
  }
  // Fault/retry accounting (zero unless a fault plan was attached).
  [[nodiscard]] std::uint64_t fault_events() const {
    return counters.counter_value(metric::kFaultEvents);
  }
  [[nodiscard]] std::uint64_t probes_suppressed() const {
    return counters.counter_value(metric::kProbesSuppressed);
  }
  [[nodiscard]] std::uint64_t outage_rounds() const {
    return counters.counter_value(metric::kOutageRounds);
  }
  [[nodiscard]] std::uint64_t stale_relearns() const {
    return counters.counter_value(metric::kRelearns, "cause=\"stale\"");
  }
  [[nodiscard]] std::uint64_t loss_relearns() const {
    return counters.counter_value(metric::kRelearns, "cause=\"loss\"");
  }
};

/// Receives a snapshot of one campaign's metrics whenever it progresses.
/// The fleet serializes invocations (never two at once), but they arrive
/// on whichever worker thread made the progress.
using FleetProgressFn = std::function<void(const CampaignMetrics&)>;

/// Cost-model-driven assignment of campaigns to workers.
///
/// Campaign runtimes differ by orders of magnitude once the substrate is
/// generated (a 3-member country IXP vs. a 300-member heavy hitter), so
/// the fleet no longer hands out campaigns one-by-one: it estimates each
/// campaign's cost up front (monitored links x probing rounds, from the
/// spec alone -- nothing is simulated) and packs them onto workers with a
/// greedy longest-processing-time pass.  The plan is a pure function of
/// (specs, jobs, campaign options): stable across machines and runs, so
/// fleet output stays byte-identical for any --jobs (pinned by
/// tests/test_fleet.cc).
struct ShardPlan {
  std::vector<double> cost;                      ///< per spec, link-rounds
  std::vector<std::vector<std::size_t>> shards;  ///< shard -> spec indices, run order
  std::vector<int> shard_of;                     ///< spec index -> shard
  /// Human-readable plan (for `afixp gen --shard-plan`).
  [[nodiscard]] std::string to_string(const std::vector<VpSpec>& specs) const;
};

/// Estimated cost of one campaign in link-rounds: every monitored link
/// contributes its membership-window overlap with the campaign window at
/// one unit per probing round, silent neighbors contribute a reduced
/// simulation-only weight, and each neighbor adds a constant build/bdrmap
/// charge.
double estimate_campaign_cost(const VpSpec& spec, const CampaignOptions& opt);

/// Packs `specs` onto `jobs` shards, heaviest first (greedy LPT with
/// deterministic tie-breaks).  `jobs` is clamped to [1, specs.size()].
ShardPlan plan_shards(const std::vector<VpSpec>& specs, int jobs, const CampaignOptions& opt);

struct FleetOptions {
  CampaignOptions campaign;
  /// Worker threads.  0 = auto: hardware concurrency; always clamped to
  /// the fleet size.
  int jobs = 0;
  FleetProgressFn on_progress;
  /// Give each campaign its own obs::Registry shard and merge them into
  /// FleetResult::registry.  On by default; benches that measure the
  /// instrumentation-free hot path turn it off, which leaves every
  /// CampaignMetrics accessor reading zero.
  bool collect_metrics = true;
  /// When set (and non-empty), every campaign runs under this fault plan:
  /// each worker expands it with a per-VP seed derived from `fault_seed`
  /// and the spec index, so results stay independent of the job count.
  const FaultPlan* fault_plan = nullptr;
  std::uint64_t fault_seed = 1;
};

struct FleetResult {
  std::vector<VpCampaignResult> results;  ///< spec order
  std::vector<CampaignMetrics> metrics;   ///< spec order
  /// Fleet-wide registry: per-VP shards merged in *spec order* after the
  /// pool drains -- once as `vp="<name>"`-labelled copies and once into the
  /// unlabelled fleet totals -- so the merged contents (and any
  /// `--metrics-out` export of them) are byte-identical for any --jobs.
  obs::Registry registry;
  ShardPlan plan;                         ///< how campaigns were packed
  int jobs_used = 1;
  double wall_seconds = 0.0;              ///< whole-fleet wall clock
};

/// Runs every campaign in `specs` across the pool and returns results in
/// spec order.  A campaign that throws does not abort its siblings; the
/// first (lowest-index) exception is rethrown after the fleet drains.
FleetResult run_fleet(const std::vector<VpSpec>& specs, const FleetOptions& opt = {});

/// Renders a live one-line status of every campaign, rewritten in place
/// with '\r' on each progress event.  Point it at stderr so that table
/// output on stdout stays machine-readable and byte-identical across job
/// counts.  Call finish() (or destroy) to end the line.
class FleetStatusPrinter {
 public:
  FleetStatusPrinter(std::ostream& out, const std::vector<VpSpec>& specs);
  ~FleetStatusPrinter();

  /// Bind as the FleetProgressFn: printer(metrics).
  void operator()(const CampaignMetrics& m);
  void finish();

 private:
  void render();

  std::ostream& out_;
  std::vector<std::string> cells_;
  std::size_t last_width_ = 0;
  bool finished_ = false;
};

/// Prints the per-campaign metrics table (rounds, probes, probes/s,
/// bdrmap runs, links, wall, peak RSS) after a fleet run.
void print_fleet_metrics(std::ostream& out, const FleetResult& fleet);

}  // namespace ixp::analysis
