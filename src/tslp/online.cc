#include "tslp/online.h"

#include <algorithm>

#include "util/simd.h"
#include "util/strings.h"

namespace ixp::tslp {

namespace {

// Window scratch shared by every detector on the thread: scan_window's
// buffers carry no state across calls, so per-detector copies would only
// waste memory on campaigns with one detector pair per link.
struct PushScratch {
  stats::ChangePointScratch cp;
  std::vector<double> finite;
};

PushScratch& push_scratch() {
  thread_local PushScratch s;
  return s;
}

}  // namespace

OnlineLevelShift::OnlineLevelShift(LevelShiftOptions opts, TimePoint start, Duration interval)
    : opts_(opts), start_(start), interval_(interval) {
  IXP_CHECK(interval_.count() > 0,
            strformat("OnlineLevelShift interval must be positive, got %lldns",
                      static_cast<long long>(interval_.count())));
  win_ = std::max<std::size_t>(
      2, static_cast<std::size_t>(kAnalysisWindow.count() / interval_.count()));
  stride_ = win_ / 2;
}

void OnlineLevelShift::push(double ms) {
  pending_.push_back(ms);
  ++n_;
  process_ready();
}

void OnlineLevelShift::push(std::span<const double> ms) {
  pending_.insert(pending_.end(), ms.begin(), ms.end());
  n_ += ms.size();
  process_ready();
}

void OnlineLevelShift::process_ready() {
  auto& s = push_scratch();
  while (next_begin_ + win_ <= n_) {
    const std::span<const double> chunk(pending_.data() + (next_begin_ - base_), win_);
    const std::size_t finite = simd::count_not_nan(chunk);
    const std::size_t cps_begin = cps_.size();
    double spread = 0.0;
    switch (detail::scan_window(chunk, next_begin_, finite, opts_, s.cp, s.finite, cps_,
                                spread)) {
      case detail::WindowOutcome::kDark:
        ++windows_skipped_dark_;
        break;
      case detail::WindowOutcome::kQuiet:
        ++windows_skipped_quiet_;
        break;
      case detail::WindowOutcome::kScanned:
        // Whether this end is an implicit change point depends on the
        // *final* series length, unknown until finalize -- record it, with
        // what a finalize at a higher threshold needs to re-gate it.
        scanned_.push_back({next_begin_ + win_, spread, cps_begin, cps_.size()});
        break;
    }
    next_begin_ += stride_;
    // Samples before the next window's begin are never read again.
    if (next_begin_ > base_) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(next_begin_ - base_));
      base_ = next_begin_;
    }
  }
}

LevelShiftResult OnlineLevelShift::finalize(const SeriesView& full, DetectScratch& scratch) const {
  return finalize(full, scratch, opts_.threshold_ms);
}

LevelShiftResult OnlineLevelShift::finalize(const SeriesView& full, DetectScratch& scratch,
                                            double threshold_ms) const {
  IXP_CHECK(full.ms.size() == n_,
            strformat("online detector saw %zu samples but finalize got a view of %zu", n_,
                      full.ms.size()));
  IXP_CHECK(full.start == start_ && full.interval == interval_,
            "finalize view time base differs from the push time base");
  IXP_CHECK(threshold_ms >= opts_.threshold_ms,
            strformat("finalize threshold %g ms is below the push threshold %g ms", threshold_ms,
                      opts_.threshold_ms));
  LevelShiftOptions opts = opts_;
  opts.threshold_ms = threshold_ms;

  LevelShiftResult out;
  std::size_t win = 0;
  if (!detail::prepare_series(full, scratch, out, win)) return out;
  out.windows_skipped_dark = windows_skipped_dark_;
  out.windows_skipped_quiet = windows_skipped_quiet_;

  // Re-gate the scanned windows at `threshold_ms` (exact: see the header).
  scratch.cps.clear();
  for (const ScannedWindow& w : scanned_) {
    if (!(w.spread >= threshold_ms / 2.0)) {
      ++out.windows_skipped_quiet;
      continue;
    }
    ++out.windows_scanned;
    scratch.cps.insert(scratch.cps.end(), cps_.begin() + static_cast<std::ptrdiff_t>(w.cps_begin),
                       cps_.begin() + static_cast<std::ptrdiff_t>(w.cps_end));
    if (w.end < full.ms.size()) scratch.cps.push_back(w.end);
  }
  // Trailing windows the stream never completed (all truncated at the
  // series end), processed exactly as detect_fast's loop would.
  detail::scan_windows(full, opts, win, next_begin_, scratch, out);
  detail::assemble_result(full, opts, scratch, out);
  return out;
}

}  // namespace ixp::tslp
