// Immutable epoch snapshots: the serving layer's read model.
//
// The observatory folds detection state into a builder as campaigns
// progress and periodically freezes it into a Snapshot -- an immutable,
// heap-allocated value published through SnapshotStore by atomically
// swapping a shared_ptr.  Readers pin the current epoch with one atomic
// load (a shared_ptr copy) and render JSON from the pinned object; they
// take no lock, never observe a half-written epoch, and keep their epoch
// alive for as long as they hold the pointer even if a hundred newer
// epochs are published meanwhile.  Writers serialize among themselves on
// the builder's mutex -- only the reader side must stay lock-free, because
// readers are the ones sharing cores with the simulation hot path
// (tests/test_serve.cc pins the isolation property under TSan).
//
// Two kinds of epoch feed the builder:
//   * live folds -- LiveVerdictBatch from a running campaign's online
//     detectors (campaign.h): level shifts over the series-so-far;
//   * final folds -- end-of-pass VpCampaignResult reports: the
//     authoritative verdict ladder (diurnality, near-side cleanliness).
// A link keeps its latest live evidence until the pass completes, then
// carries the final verdict until a newer pass overwrites it.
//
// Epoch cost follows what changed, not fleet size.  Each VP's links live
// in an immutable LinkShard; a fold rebuilds only the folded VP's shard
// and merges its links into the maintained global rank order, and the
// facility aggregates move by the folded VP's delta.  build() then freezes
// an epoch by copying two handles: consecutive epochs share every shard no
// fold replaced in between (tests/test_serve.cc pins that sharing and
// holds every body to the copy-and-sort rebuild in tests/oracle/).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/facility.h"
#include "tslp/classifier.h"

namespace ixp::serve {

/// One monitored link's state inside a snapshot.  Immutable once its fold
/// has built it: every epoch until the VP's next fold shares the object.
struct LinkState {
  std::string key;       ///< MonitorTarget key; the <id> in /api/v1/links/<id>
  std::string vp_name;
  std::string ixp;       ///< IXP name; the <id> in /api/v1/ixps/<id>
  std::uint32_t far_asn = 0;
  bool at_ixp = false;
  /// Colocation facility of the far member ("" = unassigned); the grouping
  /// key of /api/v1/facilities/*.  From the spec's substrate metadata, via
  /// SnapshotBuilder::set_facilities().
  std::string facility;
  std::size_t samples = 0;
  double baseline_ms = 0.0;
  double coverage = 1.0;
  bool refused_low_coverage = false;
  std::vector<tslp::Episode> episodes;  ///< sanitized far-side level shifts
  // Authoritative end-of-pass classification; absent (has_verdict=false)
  // while only live evidence has arrived.
  bool has_verdict = false;
  tslp::Verdict verdict = tslp::Verdict::kNotCongested;
  tslp::Persistence persistence = tslp::Persistence::kNone;
  bool diurnal = false;
  bool near_clean = true;
  // Computed once, by the fold that builds the state:
  /// Largest episode magnitude (0 when episode-free): the ranking key.
  double max_magnitude_ms = 0.0;
  /// This link's `/api/v1/links/top` entry (the object without episodes).
  std::string row_json;

  [[nodiscard]] bool congested() const {
    return has_verdict && verdict == tslp::Verdict::kCongested;
  }
};

/// One VP's share of one facility's aggregate.
struct FacilityPart {
  std::size_t links = 0;
  std::size_t congested = 0;
  std::size_t disrupted = 0;
  double max_magnitude_ms = 0.0;
};

/// One VP's share of one IXP's `/api/v1/ixps/<id>/summary` counts.
struct IxpPart {
  std::size_t links = 0;
  std::size_t classified = 0;  ///< with a final verdict
  std::size_t congested = 0;
  std::size_t potentially = 0;
  std::size_t refused = 0;
  std::size_t episodes = 0;
  double max_magnitude_ms = 0.0;
};

/// One VP's links in rank order plus their facility and IXP
/// contributions; built by a fold and never modified after.
struct LinkShard {
  std::vector<LinkState> links;
  std::map<std::string, FacilityPart> facilities;  ///< facility -> this VP's share
  std::size_t disrupted = 0;  ///< disrupted links, unassigned ones included
  std::map<std::string, IxpPart, std::less<>> ixps;  ///< IXP -> this VP's share
};

/// An epoch's links in rank order: a read-only view over the shards it
/// keeps alive.  Indexing and iteration yield `const LinkState&`.
class RankedLinks {
 public:
  struct Frozen {
    std::vector<const LinkState*> order;
    std::vector<std::shared_ptr<const LinkShard>> shards;  ///< what `order` points into
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = LinkState;
    using difference_type = std::ptrdiff_t;
    using pointer = const LinkState*;
    using reference = const LinkState&;
    const_iterator() = default;
    explicit const_iterator(const LinkState* const* p) : p_(p) {}
    reference operator*() const { return **p_; }
    pointer operator->() const { return *p_; }
    const_iterator& operator++() {
      ++p_;
      return *this;
    }
    const_iterator operator++(int) {
      const const_iterator t = *this;
      ++p_;
      return t;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    const LinkState* const* p_ = nullptr;
  };

  RankedLinks() = default;
  explicit RankedLinks(std::shared_ptr<const Frozen> f) : f_(std::move(f)) {}

  [[nodiscard]] std::size_t size() const { return f_ ? f_->order.size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  const LinkState& operator[](std::size_t i) const { return *f_->order[i]; }
  [[nodiscard]] const LinkState& front() const { return *f_->order.front(); }
  [[nodiscard]] const_iterator begin() const {
    return f_ ? const_iterator(f_->order.data()) : const_iterator();
  }
  [[nodiscard]] const_iterator end() const {
    return f_ ? const_iterator(f_->order.data() + f_->order.size()) : const_iterator();
  }
  /// The same links shard by shard (VP-name order, each VP's links
  /// contiguous): for reads that do not depend on rank order.
  [[nodiscard]] std::span<const std::shared_ptr<const LinkShard>> shards() const {
    return f_ ? std::span<const std::shared_ptr<const LinkShard>>(f_->shards)
              : std::span<const std::shared_ptr<const LinkShard>>();
  }

 private:
  std::shared_ptr<const Frozen> f_;
};

/// One colocation facility's aggregate.
struct FacilityState {
  /// Name, link and disrupted counts, and the facility-aggregation
  /// detector's p-value and verdict (analysis/facility.h).
  analysis::FacilityVerdict score;
  std::size_t congested = 0;
  double max_magnitude_ms = 0.0;
  std::string json;  ///< its `/api/v1/facilities/top` entry
};

/// Facilities in analysis::facility_rank_less order of their scores.
using FacilityTable = std::vector<std::shared_ptr<const FacilityState>>;

/// One frozen epoch.  Everything a read needs is reachable from the object
/// -- link states in rank order, facility aggregates, the pre-rendered
/// Prometheus exposition -- so rendering any endpoint touches nothing
/// outside the pinned pointer.
struct Snapshot {
  std::uint64_t epoch = 0;  ///< 0 = the empty pre-first-publish snapshot
  std::uint64_t pass = 0;   ///< fleet pass the state came from (1-based)
  TimePoint sim_time{};     ///< latest simulated time folded in
  bool final_pass = false;  ///< built from end-of-pass reports
  /// Rank order: congested links first, then by descending max episode
  /// magnitude, then (key, vp) for a total order.
  RankedLinks links;
  std::shared_ptr<const FacilityTable> facilities;  ///< null = none yet
  std::string metrics_prom;  ///< Prometheus text of the campaign registry
  /// `/api/v1/links/top` at the default depth, rendered once at freeze
  /// time: the hottest read is a string copy off the pinned epoch instead
  /// of a fresh render per request (bench_serve measures this path).
  static constexpr std::size_t kDefaultTopN = 20;
  std::string links_top_default;
  /// `/api/v1/facilities/top` at the default depth, same treatment.
  std::string facilities_top_default;
};

const char* verdict_name(tslp::Verdict v);
const char* persistence_name(tslp::Persistence p);

// JSON renderers -- pure functions of the snapshot: the same pinned epoch
// renders the same bytes no matter what is published concurrently (the
// snapshot-isolation property test_serve.cc pins).
/// `/api/v1/links/top?n=K`: the first K links in rank order.
std::string render_links_top(const Snapshot& snap, std::size_t n);
/// `/api/v1/ixps/<id>/summary`: per-IXP aggregate.  False = unknown IXP.
bool render_ixp_summary(const Snapshot& snap, std::string_view ixp, std::string* out);
/// `/api/v1/links/<id>/episodes`: one link's episode list.  False =
/// unknown link key.
bool render_link_episodes(const Snapshot& snap, std::string_view key, std::string* out);
/// `/api/v1/facilities/top?n=K`: colocation facilities ranked by the
/// facility-aggregation detector (disruption verdict first, then ascending
/// p-value).  A link counts as disrupted when its far side was refused for
/// low coverage or covers less than 90 % of rounds.
std::string render_facilities_top(const Snapshot& snap, std::size_t n);
/// `/api/v1/facilities/<id>/summary`: one facility's aggregate plus its
/// member links.  False = unknown facility.
bool render_facility_summary(const Snapshot& snap, std::string_view facility, std::string* out);

/// Accumulates detection state across folds and freezes epochs.  All
/// methods serialize on an internal mutex.  A fold copies and re-ranks only
/// the folded VP's links, merges them into the global rank order (pointer
/// moves) and moves the facility aggregates by that VP's delta.  build()
/// copies two handles and does not disturb the accumulated state, so the
/// next fold continues from it.
class SnapshotBuilder {
 public:
  /// Folds a live mid-campaign batch from `vp` (at IXP `ixp`).  Links absent
  /// from the batch keep their state; a live fold never clears a final
  /// verdict from an earlier pass.
  void fold_live(const std::string& vp, const std::string& ixp,
                 const analysis::LiveVerdictBatch& batch);
  /// Folds one VP's end-of-pass result: authoritative reports replace the
  /// link's live evidence.
  void fold_final(const std::string& vp, const std::string& ixp,
                  const analysis::VpCampaignResult& result);
  /// Marks the pass number subsequent folds belong to.
  void begin_pass(std::uint64_t pass);
  /// Installs the "<vp>/<far_asn>" -> facility map folds consult; from the
  /// specs' substrate metadata (NeighborSpec::facility).  Call before the
  /// first fold; links without an entry stay unassigned.
  void set_facilities(std::map<std::string, std::string> by_vp_asn);
  /// Freezes the current state into the next epoch (epochs number from 1).
  [[nodiscard]] std::shared_ptr<const Snapshot> build(std::string metrics_prom,
                                                      bool final_pass);

 private:
  /// Runs `update` over a copy of `vp`'s links (keyed by link key), then
  /// installs the result as the VP's new shard.  Holds the mutex.
  template <class Update>
  void fold(const std::string& vp, TimePoint at, const Update& update);
  /// Moves the facility aggregates by `vp`'s delta from `old` to `next`.
  void update_facilities(const std::string& vp, const LinkShard* old, const LinkShard& next);

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<const LinkShard>> shards_;  ///< by VP
  std::shared_ptr<const RankedLinks::Frozen> ranking_;  ///< every shard's links, ranked
  /// Per facility: each VP's share and the current aggregate.
  struct Facility {
    std::map<std::string, FacilityPart> by_vp;
    std::shared_ptr<const FacilityState> state;
  };
  std::map<std::string, Facility> facilities_;
  std::shared_ptr<const FacilityTable> facility_rank_;
  std::size_t total_links_ = 0;      ///< the detector's substrate totals
  std::size_t total_disrupted_ = 0;
  std::map<std::string, std::string> facility_of_;  ///< "<vp>/<far_asn>" -> facility
  std::uint64_t next_epoch_ = 1;
  std::uint64_t pass_ = 0;
  TimePoint sim_time_{};
};

/// The publication point.  publish() atomically swaps the current-epoch
/// pointer; current() pins it with one atomic shared_ptr load.
class SnapshotStore {
 public:
  SnapshotStore() : current_(std::make_shared<const Snapshot>()) {}

  /// Pins the current epoch: lock-free, never blocks a writer.
  [[nodiscard]] std::shared_ptr<const Snapshot> current() const {
    return current_.load(std::memory_order_acquire);
  }

  void publish(std::shared_ptr<const Snapshot> next) {
    current_.store(std::move(next), std::memory_order_release);
    published_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t epochs_published() const {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::shared_ptr<const Snapshot>> current_;
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace ixp::serve
