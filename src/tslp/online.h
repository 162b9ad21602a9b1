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
// state is O(window) samples plus, per scanned window, its end, its spread
// and its accepted change points.
//
// Threshold replay: finalize can also judge the series at a threshold T1
// above the push threshold T0, bit-identical to detect_fast at T1 with the
// window counters included.  The threshold enters a window's scan only
// through the quiet gate, which compares the window's p95 - p05 spread to
// T/2 (after a max - min shortcut that is exact because p95 - p05 <=
// max - min).  So a window is scanned at T1 exactly when it was scanned at
// T0 and its recorded spread is >= T1/2; dark windows do not depend on T;
// and a window's change points depend only on its samples, its begin index
// and the CUSUM options, so the ones accepted at T0 are the ones T1 would
// accept.  Campaigns use this to classify Table-2 snapshots at the
// classifier threshold from the far detector that pushes at the 5 ms floor.
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
    return scanned_.size() + windows_skipped_dark_ + windows_skipped_quiet_;
  }

  /// Completes trailing (truncated) windows and assembles the result over
  /// `full`, which must hold exactly the samples pushed so far on the same
  /// time base.  Does not mutate detector state: pushing more samples and
  /// finalizing again later is allowed (the always-on observatory mode).
  [[nodiscard]] LevelShiftResult finalize(const SeriesView& full, DetectScratch& scratch) const;
  /// The same at `threshold_ms`, which must be >= options().threshold_ms:
  /// equals detect_fast with options() at that threshold (the threshold
  /// replay in the header comment).
  [[nodiscard]] LevelShiftResult finalize(const SeriesView& full, DetectScratch& scratch,
                                          double threshold_ms) const;

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

  /// A window that passed the gates at the push threshold.
  struct ScannedWindow {
    std::size_t end = 0;        ///< implicit change point unless the series end
    double spread = 0.0;        ///< p95 - p05 of its samples
    std::size_t cps_begin = 0;  ///< its accepted change points: cps_[cps_begin, cps_end)
    std::size_t cps_end = 0;
  };

  std::vector<std::size_t> cps_;  ///< accepted global indices, window by window
  std::vector<ScannedWindow> scanned_;
  std::size_t windows_skipped_dark_ = 0;
  std::size_t windows_skipped_quiet_ = 0;
};

}  // namespace ixp::tslp
