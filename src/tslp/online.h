// Incremental (online) level-shift detection.
//
// OnlineLevelShift consumes samples as campaign rounds complete and runs
// the expensive part of the detector -- the per-window rank-CUSUM
// bootstraps -- as soon as each 50%-overlapping analysis window fills.
// finalize() then replays only the cheap O(n) assembly (baseline, segment
// medians, sanitization, significance) against a borrowed view of the full
// series, typically decoded transiently from the columnar store, so no
// per-link raw series is ever materialized long-term.
//
// Equivalence: a window's scan depends only on its samples, its begin
// index, and the options -- never on when the samples arrived -- and every
// order-sensitive decision (the "window end is an implicit change point
// when it is not the series end" rule, trailing truncated windows) is
// deferred to finalize.  Feeding one sample at a time, in chunks at
// arbitrary split points, or all at once therefore yields byte-identical
// results to detect_fast -- and hence to the scalar oracle in tests/oracle/.
// Amortized cost per sample is O(1) bootstraps-per-window aside; retained
// state is O(window) samples plus the accepted change points.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tslp/engine.h"
#include "tslp/level_shift.h"

namespace ixp::tslp {

class OnlineLevelShift {
 public:
  /// `start`/`interval` fix the series time base (must match the view
  /// given to finalize).  The detector keeps no copy of the series:
  /// campaigns finalize against the columnar store's decode buffer.
  OnlineLevelShift(LevelShiftOptions opts, TimePoint start, Duration interval);

  /// Appends one sample (NaN = unanswered probe) and processes any
  /// analysis window it completes.
  void push(double ms);
  /// Appends a chunk of samples.
  void push(std::span<const double> ms);

  /// Samples seen so far.
  [[nodiscard]] std::size_t samples_seen() const { return n_; }
  /// Samples currently buffered (bounded by window + stride regardless of
  /// series length; pinned by OnlineBoundedMemory).
  [[nodiscard]] std::size_t pending_samples() const { return pending_.size(); }
  /// Windows fully processed so far.
  [[nodiscard]] std::size_t windows_processed() const {
    return windows_scanned_ + windows_skipped_dark_ + windows_skipped_quiet_;
  }

  /// Completes trailing (truncated) windows and assembles the result over
  /// `full`, which must hold exactly the samples pushed so far on the same
  /// time base.  Does not mutate detector state: pushing more samples and
  /// finalizing again later is allowed (the always-on observatory mode).
  [[nodiscard]] LevelShiftResult finalize(const SeriesView& full, DetectScratch& scratch) const;

  [[nodiscard]] const LevelShiftOptions& options() const { return opts_; }

 private:
  void process_ready();

  LevelShiftOptions opts_;
  TimePoint start_;
  Duration interval_;
  std::size_t win_ = 2;
  std::size_t stride_ = 1;

  std::vector<double> pending_;   ///< samples [base_, n_)
  std::size_t base_ = 0;
  std::size_t n_ = 0;
  std::size_t next_begin_ = 0;  ///< next window begin awaiting processing

  std::vector<std::size_t> cps_;           ///< accepted global indices
  std::vector<std::size_t> scanned_ends_;  ///< ends of scanned windows
  std::size_t windows_scanned_ = 0;
  std::size_t windows_skipped_dark_ = 0;
  std::size_t windows_skipped_quiet_ = 0;
};

}  // namespace ixp::tslp
