#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace ixp::stats {
namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

std::size_t finite_count(std::span<const double> v) {
  std::size_t n = 0;
  for (double x : v) {
    if (std::isfinite(x)) ++n;
  }
  return n;
}

double mean(std::span<const double> v) {
  double sum = 0;
  std::size_t n = 0;
  for (double x : v) {
    if (std::isfinite(x)) {
      sum += x;
      ++n;
    }
  }
  return n == 0 ? kNaN : sum / static_cast<double>(n);
}

double quantile(std::span<const double> v, double q) {
  // Reused scratch: quantile sits inside the level-shift detector's inner
  // loop, so per-call allocation and a full sort both show up in profiles.
  static thread_local std::vector<double> clean;
  clean.clear();
  clean.reserve(v.size());
  for (double x : v) {
    if (std::isfinite(x)) clean.push_back(x);
  }
  return quantile_inplace(clean, q);
}

namespace {

// The k-th and (k+1)-th smallest of a[0..n) (0-based; the second value
// repeats the first when k == n-1).  Branchless three-way quickselect:
// std::nth_element's partition loop mispredicts ~50% of its branches on
// RTT data, and the TSLP window prefilter calls the selection kernel twice
// per window, which made it the single hottest function in the detector
// profile.  Here each pass streams the range into the scratch buffer --
// strict-less values packed at the front, the rest packed at the back --
// with the branch condition folded into the write cursors, so the loop
// carries no unpredictable branches.  Order statistics depend only on the
// multiset of values, so the result is bit-identical to the sort-based
// definition (and to what nth_element returned before).
std::pair<double, double> select_adjacent(const double* a, std::size_t n, std::size_t k) {
  static thread_local std::vector<double> scratch0, scratch1;
  scratch0.resize(n);
  scratch1.resize(n);
  double* buf = scratch0.data();
  double* other = scratch1.data();
  constexpr std::size_t kSortCutoff = 32;
  for (;;) {
    if (n <= kSortCutoff) {
      if (a != buf) std::copy(a, a + n, buf);
      std::sort(buf, buf + n);
      return {buf[k], buf[std::min(k + 1, n - 1)]};
    }
    // Median-of-three pivot; the max/min dance picks one of the three
    // element values, so the pivot is always a member of the multiset and
    // both partition sides shrink strictly (no tie-driven livelock).
    const double p0 = a[0], p1 = a[n / 2], p2 = a[n - 1];
    const double pivot = std::max(std::min(p0, p1), std::min(std::max(p0, p1), p2));
    // Split: x < pivot packs forward from buf[0], x >= pivot packs
    // backward from buf[n).  When the cursors meet, both speculative
    // writes target the same slot with the same value, and only the
    // winning side's cursor moves -- so the collision is benign.
    std::size_t nl = 0;
    std::size_t hj = n;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = a[i];
      const bool lt = x < pivot;
      buf[nl] = x;
      buf[hj - 1] = x;
      nl += static_cast<std::size_t>(lt);
      hj -= static_cast<std::size_t>(!lt);
    }
    if (k + 1 < nl) {
      // Both targets among the strict-less values.
      a = buf;
      std::swap(buf, other);
      n = nl;
      continue;
    }
    if (k + 1 == nl) {
      // The targets straddle the split: k-th = max of the lows,
      // (k+1)-th = min of the rest.
      double first = buf[0];
      for (std::size_t i = 1; i < nl; ++i) first = std::max(first, buf[i]);
      double second = buf[nl];
      for (std::size_t i = nl + 1; i < n; ++i) second = std::min(second, buf[i]);
      return {first, second};
    }
    // Both targets at or above the pivot: peel off the pivot-equal run
    // (their value is known), keep only the strictly-greater values.
    std::size_t ng = 0;
    for (std::size_t i = nl; i < n; ++i) {
      const double x = buf[i];
      other[ng] = x;
      ng += static_cast<std::size_t>(x > pivot);
    }
    const std::size_t ne = (n - nl) - ng;  // >= 1: the pivot is an element
    if (k < nl + ne) {
      if (k + 1 < nl + ne || ng == 0) return {pivot, pivot};
      double second = other[0];
      for (std::size_t i = 1; i < ng; ++i) second = std::min(second, other[i]);
      return {pivot, second};
    }
    // No buffer swap here: the next pass reads `other` and writes `buf`,
    // whose previous contents are dead once a pass consumes its input.
    k -= nl + ne;
    a = other;
    n = ng;
  }
}

}  // namespace

double quantile_inplace(std::span<double> finite, double q) {
  if (finite.empty()) return kNaN;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(finite.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, finite.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Only the lo-th and (lo+1)-th order statistics matter, so select both in
  // one walk instead of sorting: O(n) against O(n log n), bit-identical.
  const auto [at_lo, at_next] = select_adjacent(finite.data(), finite.size(), lo);
  const double at_hi = hi == lo ? at_lo : at_next;
  return at_lo * (1.0 - frac) + at_hi * frac;
}

double median(std::span<const double> v) { return quantile(v, 0.5); }

double max_value(std::span<const double> v) {
  double best = kNaN;
  for (double x : v) {
    if (std::isfinite(x) && (std::isnan(best) || x > best)) best = x;
  }
  return best;
}

}  // namespace ixp::stats
