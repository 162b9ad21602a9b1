// Shared kernels for the TSLP fast path (engine.h / online.h).
//
// FiniteIndex is one fused O(n) pass over a series that yields everything
// the detector's bookkeeping needs afterwards in O(1): per-range not-NaN
// counts (window darkness, episode coverage, all-missing bridging) and the
// explicit gap list find_gaps() would have produced.  The scalar oracle
// (tests/oracle/) recomputes each of these with its own loop; the detector
// builds the index once and reuses it, which is exact because every
// consumer only ever needed the count or the run boundaries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tslp/series.h"

namespace ixp::tslp {

class FiniteIndex {
 public:
  /// One pass over `v`: prefix counts of not-NaN samples plus all maximal
  /// NaN runs of at least kGapMinRun samples (identical to
  /// find_gaps(series, kGapMinRun), trailing run included).
  void build(std::span<const double> v);

  /// Number of not-NaN samples in [begin, end).
  [[nodiscard]] std::size_t not_nan(std::size_t begin, std::size_t end) const {
    return prefix_[end] - prefix_[begin];
  }
  /// True when [begin, end) contains no not-NaN sample (an empty range is
  /// all-missing, matching the oracle loop's vacuous truth).
  [[nodiscard]] bool all_missing(std::size_t begin, std::size_t end) const {
    return not_nan(begin, end) == 0;
  }
  [[nodiscard]] std::size_t size() const { return prefix_.empty() ? 0 : prefix_.size() - 1; }
  [[nodiscard]] const std::vector<SeriesGap>& gaps() const { return gaps_; }

 private:
  std::vector<std::uint64_t> prefix_;  ///< prefix_[i] = not-NaN count in [0, i)
  std::vector<SeriesGap> gaps_;
};

}  // namespace ixp::tslp
