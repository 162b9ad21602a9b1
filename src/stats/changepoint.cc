#include "stats/changepoint.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.h"
#include "stats/ranks.h"
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

struct Detector {
  const CusumOptions& opt;
  Rng rng;
  std::vector<std::size_t> found;

  // Bootstrap with early exit: once the number of exceedances guarantees
  // the confidence cannot reach the bar, stop shuffling.
  double confidence_of(std::span<const double> v) {
    const double m = mean(v);
    if (std::isnan(m)) return 0.0;
    const double observed = cusum_range(v, m);
    if (observed <= 0) return 0.0;
    std::vector<double> shuffled(v.begin(), v.end());
    const int rounds = std::max(1, opt.bootstrap_rounds);
    const int max_fail = static_cast<int>(std::floor((1.0 - opt.confidence) * rounds));
    int below = 0;
    for (int r = 0; r < rounds; ++r) {
      // Fisher-Yates; reshuffling the previous permutation stays uniform.
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(shuffled[i - 1], shuffled[j]);
      }
      if (cusum_range(shuffled, m) < observed) {
        ++below;
      } else if (r - below >= max_fail + 1) {
        // Even if every remaining round lands below, the bar is missed.
        return static_cast<double>(below) / rounds;
      }
    }
    return static_cast<double>(below) / rounds;
  }

  void recurse(std::span<const double> v, std::size_t offset) {
    if (v.size() < 2 * opt.min_segment) return;
    const double conf = confidence_of(v);
    if (conf < opt.confidence) return;
    const double m = mean(v);
    const std::size_t ext = cusum_extremum(v, m);
    const std::size_t split = ext + 1;  // first index of the new level
    if (split < opt.min_segment || v.size() - split < opt.min_segment) return;
    found.push_back(offset + split);
    recurse(v.subspan(0, split), offset);
    recurse(v.subspan(split), offset + split);
  }
};

// Bit-exact inline clone of ixp::Rng (splitmix64 seeding + xoshiro256++).
// The index path must replay Detector's draw sequence exactly -- the
// stream spans a whole recursion, so any divergence shifts every later
// decision -- and the out-of-line Rng::next() call is a measurable slice
// of the bootstrap (~57k draws per confident() call at the paper's window
// size).  Any change to util/rng.cc must land here too; the equivalence
// suites in tests/test_tslp.cc, which compare against the scalar oracle in
// tests/oracle/, fail loudly if the streams drift.
class InlineXoshiro {
 public:
  explicit InlineXoshiro(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

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

// The scratch-reusing twin of Detector, producing the identical accepted
// index set from the identical draw stream.  Differences from
// Detector::confidence_of, none of which can change a decision or a draw:
//   * the shuffle buffer is recycled and filled with NaN -> mean
//     substituted values (see cusum_below for why that is bit-exact);
//   * Fisher-Yates draws replay Rng::uniform_int's rejection loop with an
//     inlined generator and a table-driven exact modulo;
//   * a bootstrap round whose comparison can no longer affect the verdict
//     (acceptance already sealed) skips the swaps and the CUSUM but still
//     advances the generator through the round's draws, rejections
//     included, so the stream position stays in lockstep;
//   * the failure exit (r - below >= max_fail + 1) is the one Detector
//     also takes; a success exit that *stopped drawing* would desync the
//     stream for the rest of the recursion, which is why sealed rounds
//     drain draws instead of returning.
struct IndexDetector {
  const CusumOptions& opt;
  InlineXoshiro rng;
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
      // Fisher-Yates; identical draw sequence to Detector::confidence_of.
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

// ranks() with caller-owned buffers; same values in the same order.
void ranks_into(std::span<const double> v, std::vector<double>& out,
                std::vector<std::size_t>& idx) {
  const std::size_t n = v.size();
  out.assign(n, std::numeric_limits<double>::quiet_NaN());
  idx.clear();
  idx.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isfinite(v[i])) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::size_t i = 0;
  while (i < idx.size()) {
    std::size_t j = i;
    while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]]) ++j;
    // Mid-rank for the tie group [i, j].
    const double r = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) out[idx[k]] = r;
    i = j + 1;
  }
}

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
  IndexDetector det{opt, InlineXoshiro(opt.seed), scratch};
  det.recurse(input, 0);
  std::sort(scratch.found.begin(), scratch.found.end());
  scratch.found.erase(std::unique(scratch.found.begin(), scratch.found.end()), scratch.found.end());
  return scratch.found;
}

std::vector<double> cusum_path(std::span<const double> v) {
  const double m = mean(v);
  std::vector<double> path;
  path.reserve(v.size() + 1);
  double s = 0;
  path.push_back(0);
  for (double x : v) {
    if (std::isfinite(x) && !std::isnan(m)) s += x - m;
    path.push_back(s);
  }
  return path;
}

double change_confidence(std::span<const double> v, int rounds, Rng& rng) {
  const double m = mean(v);
  if (std::isnan(m)) return 0.0;
  const double observed = cusum_range(v, m);
  if (observed <= 0) return 0.0;
  std::vector<double> shuffled(v.begin(), v.end());
  int below = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(shuffled[i - 1], shuffled[j]);
    }
    if (cusum_range(shuffled, m) < observed) ++below;
  }
  return static_cast<double>(below) / std::max(1, rounds);
}

std::vector<ChangePoint> detect_change_points(std::span<const double> v, const CusumOptions& opt) {
  std::vector<double> work;
  std::span<const double> input = v;
  if (opt.use_ranks) {
    work = ranks(v);
    input = work;
  }

  Detector det{opt, Rng(opt.seed), {}};
  det.recurse(input, 0);
  std::sort(det.found.begin(), det.found.end());
  det.found.erase(std::unique(det.found.begin(), det.found.end()), det.found.end());

  // Levels are reported in the original units (not ranks): medians of the
  // segments on each side of the split.
  std::vector<ChangePoint> cps;
  cps.reserve(det.found.size());
  std::size_t prev = 0;
  for (std::size_t k = 0; k < det.found.size(); ++k) {
    const std::size_t idx = det.found[k];
    const std::size_t next = (k + 1 < det.found.size()) ? det.found[k + 1] : v.size();
    ChangePoint cp;
    cp.index = idx;
    // Re-estimate confidence on the local window for reporting purposes.
    Rng rng(opt.seed ^ (idx * 0x9e3779b97f4a7c15ULL));
    std::span<const double> window = input.subspan(prev, next - prev);
    cp.confidence = change_confidence(window, opt.bootstrap_rounds, rng);
    cp.level_before = median(v.subspan(prev, idx - prev));
    cp.level_after = median(v.subspan(idx, next - idx));
    cps.push_back(cp);
    prev = idx;
  }
  return cps;
}

std::vector<Segment> to_segments(std::span<const double> v, const std::vector<ChangePoint>& cps) {
  std::vector<Segment> segs;
  std::size_t begin = 0;
  for (const auto& cp : cps) {
    if (cp.index <= begin || cp.index > v.size()) continue;
    segs.push_back({begin, cp.index, median(v.subspan(begin, cp.index - begin))});
    begin = cp.index;
  }
  if (begin < v.size()) {
    segs.push_back({begin, v.size(), median(v.subspan(begin))});
  }
  return segs;
}

}  // namespace ixp::stats
