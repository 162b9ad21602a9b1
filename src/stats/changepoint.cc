#include "stats/changepoint.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "stats/ranks.h"
#include "util/rng.h"
#include "util/simd.h"

namespace ixp::stats {
namespace {

// CUSUM range (max - min of the CUSUM path) -- Taylor's Sdiff statistic.
// Deviations are taken from the mean of the finite entries; NaN entries
// contribute zero so gaps neither create nor destroy apparent shifts.
double cusum_range(std::span<const double> v, double m) {
  double s = 0, lo = 0, hi = 0;
  for (double x : v) {
    if (std::isfinite(x)) s += x - m;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  return hi - lo;
}

// Index of the CUSUM extremum: the last sample of the old level, so the
// change point (first sample of the new level) is extremum + 1.
std::size_t cusum_extremum(std::span<const double> v, double m) {
  double s = 0, best = -1;
  std::size_t at = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::isfinite(v[i])) s += v[i] - m;
    if (std::fabs(s) > best) {
      best = std::fabs(s);
      at = i;
    }
  }
  return at;
}

/// Grows the per-span division tables to cover spans up to `n`.  Each span
/// ever seen pays its two divisions once; the bootstrap then replaces
/// every `v % span` with a multiply-high (exact: mod_magic[s] =
/// ceil(2^64/s) makes the estimated quotient off by at most one, fixed up
/// below).
void ensure_mod_tables(ChangePointScratch& scratch, std::size_t n) {
  if (n + 1 <= scratch.mod_magic.size()) return;
  const std::size_t from = std::max<std::size_t>(2, scratch.mod_magic.size());
  scratch.mod_magic.resize(n + 1, 0);
  scratch.mod_limit.resize(n + 1, 0);
  for (std::size_t s = from; s <= n; ++s) {
    scratch.mod_magic[s] = ~0ULL / s + 1;
    scratch.mod_limit[s] = ~0ULL - ~0ULL % s;
  }
}

// cusum_range over a NaN-presubstituted buffer, compared against
// `observed`.  Missing entries were replaced by the mean when the buffer
// was filled, so each contributes fl(m - m) = +0.0 and the running sum
// takes exactly the values the skip-NaN loop produces (a running CUSUM
// can never be -0.0: it starts at +0.0 and x + (-x) rounds to +0.0).
// Early exit is exact too: the range is monotone over the scan, so once it
// reaches `observed` the comparison outcome is decided.
bool cusum_below(std::span<const double> v, double m, double observed) {
  double s = 0, lo = 0, hi = 0;
  for (double x : v) {
    s += x - m;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    if (hi - lo >= observed) return false;
  }
  return true;
}

// Scale for the exact-integer bootstrap: 2^10.  On the rank path every
// input is a multiple of 1/2, and an exactly-representable window mean is
// a ratio (sum of half-integers) / count whose denominator in lowest terms
// divides 2 * count, i.e. is a power of two <= 1024 for any window the
// detector sees.  Deviations are then multiples of 2^-10 and the scaled
// values are integers.
constexpr double kExactScale = 1024.0;
// Magnitude cap on inputs and the mean for the integer path: scaled
// deviations stay below 2^30 (int32 with headroom), and CUSUM partial sums
// over any practical window stay far inside int64.
constexpr double kExactMax = 524288.0;  // 2^19

// Tries to set up the exact-integer bootstrap for this window: succeeds
// when the CUSUM arithmetic over (v, m) provably never rounds -- every
// finite sample a half-integer, mean and observed range multiples of
// 2^-10, all magnitudes small.  Then fl(x - m) == x - m exactly, every
// partial sum is an integer multiple of 2^-10 well inside the 53-bit
// window, and min/max/comparison decisions are order-independent -- so the
// scaled int32 buffer reproduces the double path's bootstrap verdicts
// bit-for-bit while swapping half the bytes and running the scan on
// 1-cycle integer adds instead of the FP add latency chain.  NaN slots
// become 0, the integer image of the +0.0 they contribute in the double
// path.  The rank path (the TSLP configuration) passes this check for
// every top-level window; recursion sub-segments pass whenever their mean
// happens to divide exactly.
bool build_exact_buffer(std::span<const double> v, double m, double observed,
                        std::vector<std::int32_t>& out, std::int64_t& observed_scaled,
                        bool& prefix_fits_i32) {
  const double m_scaled = m * kExactScale;
  if (!(std::floor(m_scaled) == m_scaled) || !(std::fabs(m) <= kExactMax)) return false;
  const double o_scaled = observed * kExactScale;
  if (!(std::floor(o_scaled) == o_scaled)) return false;
  out.clear();
  out.reserve(v.size());
  std::int64_t amax = 0;
  for (const double x : v) {
    if (!std::isfinite(x)) {
      out.push_back(0);
      continue;
    }
    const double twice = x * 2.0;
    if (!(std::floor(twice) == twice) || !(std::fabs(x) <= kExactMax)) return false;
    const std::int32_t y = static_cast<std::int32_t>(x * kExactScale - m_scaled);
    amax = std::max<std::int64_t>(amax, y < 0 ? -static_cast<std::int64_t>(y) : y);
    out.push_back(y);
  }
  observed_scaled = static_cast<std::int64_t>(o_scaled);
  // Every prefix sum bounded by n * max|y|: when that fits int32, the
  // vectorized scan's int32 prefix arithmetic is exact too.  The bound is
  // shuffle-invariant (same multiset every round), so one check per window
  // covers every bootstrap round.
  prefix_fits_i32 =
      static_cast<std::int64_t>(v.size() + 1) * amax < (std::int64_t{1} << 31);
  return true;
}

// Integer twin of cusum_below: same decision because both compare the same
// exact rational values, merely scaled by 2^10.  `prefix_fits_i32` routes
// to the vectorized prefix-sum scan (see simd.h for the exactness
// argument); the scalar int64 loop is the general fallback.
bool cusum_below_int(std::span<const std::int32_t> v, std::int64_t observed_scaled,
                     bool prefix_fits_i32) {
  if (prefix_fits_i32) return simd::cusum_i32_range_below(v, observed_scaled);
  std::int64_t s = 0, lo = 0, hi = 0;
  for (const std::int32_t y : v) {
    s += y;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    if (hi - lo >= observed_scaled) return false;
  }
  return true;
}

// The bootstrap recursion.  Each confidence test shuffles the window with
// Fisher-Yates draws that follow Rng::uniform_int's rejection rule, so the
// draw stream is the one a plain uniform_int loop would consume.  The
// work per draw is trimmed in ways that cannot change a decision or a draw:
//   * the shuffle buffer is recycled and filled with NaN -> mean
//     substituted values (see cusum_below for why that is bit-exact), or
//     with the exact-integer image of the window when it has one;
//   * the modulo is table-driven (exact multiply-high, ensure_mod_tables);
//   * a bootstrap round whose comparison can no longer affect the verdict
//     (acceptance already sealed) skips the swaps and the CUSUM but still
//     advances the generator through the round's draws, rejections
//     included, so the stream position is what the full round leaves;
//   * the failure exit (r - below >= max_fail + 1) stops drawing only
//     where the plain loop would stop too; a success exit that stopped
//     drawing would desync the stream for the rest of the recursion,
//     which is why sealed rounds drain draws instead of returning.
// tests/oracle/ keeps the plain loop, and ChangePoint.IndicesMatchOracle
// holds this recursion to it index for index.
struct IndexDetector {
  const CusumOptions& opt;
  Rng rng;
  ChangePointScratch& scratch;

  // The shared bootstrap round loop; `scan` judges one shuffled buffer.
  template <class T, class Scan>
  bool bootstrap_rounds(T* data, std::size_t n, Scan&& scan) {
    const int rounds = std::max(1, opt.bootstrap_rounds);
    const int max_fail = static_cast<int>(std::floor((1.0 - opt.confidence) * rounds));
    // Smallest exceedance count that already clears the confidence bar,
    // under the same floating-point comparison the verdict uses.
    int need = rounds + 1;
    for (int b = 0; b <= rounds; ++b) {
      if (static_cast<double>(b) / rounds >= opt.confidence) {
        need = b;
        break;
      }
    }
    const std::uint64_t* magic = scratch.mod_magic.data();
    const std::uint64_t* limit = scratch.mod_limit.data();
    int below = 0;
    for (int r = 0; r < rounds; ++r) {
      if (below >= need) {
        // Sealed: drain this round's draws without shuffling or scanning.
        for (std::size_t i = n; i > 1; --i) {
          while (rng.next() >= limit[i]) {
          }
        }
        continue;
      }
      // Fisher-Yates, one uniform_int(0, i - 1) draw per slot.
      for (std::size_t i = n; i > 1; --i) {
        std::uint64_t u = rng.next();
        if (u >= limit[i]) [[unlikely]] {
          do {
            u = rng.next();
          } while (u >= limit[i]);
        }
        const std::uint64_t q =
            static_cast<std::uint64_t>((static_cast<unsigned __int128>(u) * magic[i]) >> 64);
        std::uint64_t j = u - q * i;
        if (j >= i) j += i;  // estimated quotient overshot by one
        std::swap(data[i - 1], data[j]);
      }
      if (scan()) {
        ++below;
      } else if (r - below >= max_fail + 1) {
        // Even if every remaining round lands below, the bar is missed.
        return false;
      }
    }
    return static_cast<double>(below) / rounds >= opt.confidence;
  }

  bool confident(std::span<const double> v) {
    const double m = mean(v);
    if (std::isnan(m)) return false;
    const double observed = cusum_range(v, m);
    if (observed <= 0) return false;
    std::int64_t observed_scaled = 0;
    bool prefix_i32 = false;
    if (build_exact_buffer(v, m, observed, scratch.shuffled_int, observed_scaled, prefix_i32)) {
      auto& buf = scratch.shuffled_int;
      return bootstrap_rounds(buf.data(), buf.size(), [&buf, observed_scaled, prefix_i32] {
        return cusum_below_int(buf, observed_scaled, prefix_i32);
      });
    }
    auto& shuffled = scratch.shuffled;
    shuffled.clear();
    shuffled.reserve(v.size());
    for (const double x : v) shuffled.push_back(std::isfinite(x) ? x : m);
    return bootstrap_rounds(shuffled.data(), shuffled.size(), [&shuffled, m, observed] {
      return cusum_below(shuffled, m, observed);
    });
  }

  void recurse(std::span<const double> v, std::size_t offset) {
    if (v.size() < 2 * opt.min_segment) return;
    if (!confident(v)) return;
    const double m = mean(v);
    const std::size_t ext = cusum_extremum(v, m);
    const std::size_t split = ext + 1;  // first index of the new level
    if (split < opt.min_segment || v.size() - split < opt.min_segment) return;
    scratch.found.push_back(offset + split);
    recurse(v.subspan(0, split), offset);
    recurse(v.subspan(split), offset + split);
  }
};

}  // namespace

const std::vector<std::size_t>& detect_change_point_indices(std::span<const double> v,
                                                            const CusumOptions& opt,
                                                            ChangePointScratch& scratch) {
  std::span<const double> input = v;
  if (opt.use_ranks) {
    ranks_into(v, scratch.ranks, scratch.order);
    input = scratch.ranks;
  }
  scratch.found.clear();
  ensure_mod_tables(scratch, input.size());
  IndexDetector det{opt, Rng(opt.seed), scratch};
  det.recurse(input, 0);
  std::sort(scratch.found.begin(), scratch.found.end());
  scratch.found.erase(std::unique(scratch.found.begin(), scratch.found.end()), scratch.found.end());
  return scratch.found;
}

std::vector<Segment> to_segments(std::span<const double> v, std::span<const std::size_t> cps) {
  std::vector<Segment> segs;
  std::size_t begin = 0;
  for (const std::size_t cp : cps) {
    if (cp <= begin || cp > v.size()) continue;
    segs.push_back({begin, cp, median(v.subspan(begin, cp - begin))});
    begin = cp;
  }
  if (begin < v.size()) {
    segs.push_back({begin, v.size(), median(v.subspan(begin))});
  }
  return segs;
}

}  // namespace ixp::stats
