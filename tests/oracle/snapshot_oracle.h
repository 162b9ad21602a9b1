// Copy-and-sort epoch builder: the reference for serve::SnapshotBuilder.
//
// The production builder keeps per-VP shards, merges each fold into a
// maintained rank order and moves the facility aggregates by delta.  This
// is the straightforward version it replaced: one map of every link, and
// at every build a deep copy of all of them, a full sort, a fresh facility
// aggregation through analysis::detect_facility_disruptions, and every
// body rendered from scratch.  It never reads LinkState's fold-time caches
// (max_magnitude_ms, row_json).  tests/test_serve.cc holds every served
// body of the production builder to it byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/campaign.h"
#include "serve/snapshot.h"

namespace ixp::oracle {

/// One epoch as the full rebuild freezes it: every link, in rank order.
struct RebuiltEpoch {
  std::uint64_t epoch = 0;
  std::uint64_t pass = 0;
  TimePoint sim_time{};
  bool final_pass = false;
  std::vector<serve::LinkState> links;
  std::string links_top_default;       ///< at serve::Snapshot::kDefaultTopN
  std::string facilities_top_default;  ///< likewise
};

/// serve::SnapshotBuilder's fold semantics over one map of every link.
class RebuildBuilder {
 public:
  void fold_live(const std::string& vp, const std::string& ixp,
                 const analysis::LiveVerdictBatch& batch);
  void fold_final(const std::string& vp, const std::string& ixp,
                  const analysis::VpCampaignResult& result);
  void begin_pass(std::uint64_t pass) { pass_ = pass; }
  void set_facilities(std::map<std::string, std::string> by_vp_asn) {
    facility_of_ = std::move(by_vp_asn);
  }
  /// Copies every link, sorts them all and renders both default bodies.
  RebuiltEpoch build(bool final_pass);

 private:
  serve::LinkState& touch(const std::string& vp, const std::string& ixp, const std::string& key,
                          std::uint32_t far_asn, bool at_ixp);

  std::map<std::string, serve::LinkState> links_;  ///< "<vp>/<key>" -> state
  std::map<std::string, std::string> facility_of_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t pass_ = 0;
  TimePoint sim_time_{};
};

// The serve::render_* bodies, rendered from the full link list.
std::string render_links_top(const RebuiltEpoch& snap, std::size_t n);
bool render_ixp_summary(const RebuiltEpoch& snap, std::string_view ixp, std::string* out);
bool render_link_episodes(const RebuiltEpoch& snap, std::string_view key, std::string* out);
std::string render_facilities_top(const RebuiltEpoch& snap, std::size_t n);
bool render_facility_summary(const RebuiltEpoch& snap, std::string_view facility,
                             std::string* out);

}  // namespace ixp::oracle
