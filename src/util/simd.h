// Portable SIMD helpers for the TSLP fast path.
//
// Every routine here is *exact*: only comparisons, counting, copying, and
// min/max over finite values -- no floating-point arithmetic whose result
// could depend on lane order.  That property is what lets the vectorized
// detector stay byte-identical to the scalar one (see
// docs/ARCHITECTURE.md, "TSLP fast path").
//
// The AVX2 bodies are compiled only when the target enables them
// (`__AVX2__`); otherwise the scalar fallbacks below are the
// implementation.  Both paths share the same tail handling, so switching
// instruction sets never changes a result.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ixp::simd {

/// Count of entries that are not NaN (the level-shift detector's window
/// "finite" predicate -- note: +/-inf counts, matching `!std::isnan`).
inline std::size_t count_not_nan(std::span<const double> v) {
  std::size_t n = 0;
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= v.size(); i += 4) {
    const __m256d x = _mm256_loadu_pd(v.data() + i);
    // x == x is false exactly for NaN lanes (ordered, quiet compare).
    const __m256d ord = _mm256_cmp_pd(x, x, _CMP_ORD_Q);
    n += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(ord))));
  }
#endif
  for (; i < v.size(); ++i) {
    if (!std::isnan(v[i])) ++n;
  }
  return n;
}

/// Copies the finite entries of `v` into `out` (which must have room for
/// v.size() values), preserving order.  Returns the number written.  Uses
/// `std::isfinite` -- the predicate the quantile/baseline code applies --
/// so the compacted buffer is exactly what stats::quantile would have
/// built internally.
inline std::size_t compact_finite(std::span<const double> v, double* out) {
  std::size_t n = 0;
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  for (; i + 4 <= v.size(); i += 4) {
    const __m256d x = _mm256_loadu_pd(v.data() + i);
    // |x| < inf is true exactly for finite lanes (NaN compares false).
    const __m256d fin = _mm256_cmp_pd(_mm256_and_pd(x, abs_mask), inf, _CMP_LT_OQ);
    const int mask = _mm256_movemask_pd(fin);
    if (mask == 0xf) {
      // Common case on dense series: copy the whole lane group.
      _mm256_storeu_pd(out + n, x);
      n += 4;
    } else if (mask != 0) {
      for (int lane = 0; lane < 4; ++lane) {
        if (mask & (1 << lane)) out[n++] = v[i + static_cast<std::size_t>(lane)];
      }
    }
  }
#endif
  for (; i < v.size(); ++i) {
    if (std::isfinite(v[i])) out[n++] = v[i];
  }
  return n;
}

/// Min and max over the finite entries of `v`.  Returns false (lo/hi
/// untouched) when no entry is finite.  Exactness: min/max over finite
/// doubles is order-independent (a -0.0 vs +0.0 pick cannot change any
/// `hi - lo` comparison the detector makes).
inline bool finite_minmax(std::span<const double> v, double& lo, double& hi) {
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  bool any = false;
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d vinf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d vmn = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d vmx = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  int seen = 0;
  for (; i + 4 <= v.size(); i += 4) {
    const __m256d x = _mm256_loadu_pd(v.data() + i);
    const __m256d fin = _mm256_cmp_pd(_mm256_and_pd(x, abs_mask), vinf, _CMP_LT_OQ);
    seen |= _mm256_movemask_pd(fin);
    // Non-finite lanes are replaced by identity elements before the fold.
    vmn = _mm256_min_pd(vmn, _mm256_blendv_pd(vinf, x, fin));
    vmx = _mm256_max_pd(vmx, _mm256_blendv_pd(_mm256_sub_pd(_mm256_setzero_pd(), vinf), x, fin));
  }
  if (seen != 0) {
    any = true;
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, vmn);
    for (double t : tmp) mn = std::min(mn, t);
    _mm256_store_pd(tmp, vmx);
    for (double t : tmp) mx = std::max(mx, t);
  }
#endif
  for (; i < v.size(); ++i) {
    if (std::isfinite(v[i])) {
      any = true;
      mn = std::min(mn, v[i]);
      mx = std::max(mx, v[i]);
    }
  }
  if (!any) return false;
  lo = mn;
  hi = mx;
  return true;
}

#if defined(__AVX2__)
namespace detail {
inline std::int32_t hmin_epi32(__m256i x) {
  __m128i m = _mm_min_epi32(_mm256_castsi256_si128(x), _mm256_extracti128_si256(x, 1));
  m = _mm_min_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_min_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(m);
}
inline std::int32_t hmax_epi32(__m256i x) {
  __m128i m = _mm_max_epi32(_mm256_castsi256_si128(x), _mm256_extracti128_si256(x, 1));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(m);
}
}  // namespace detail
#endif

/// Exact CUSUM range test over int32 deviations: true iff the running
/// prefix-sum range (including the initial 0) stays strictly below
/// `observed`.  The bootstrap's integer fast path calls this once per
/// shuffle round.  PRECONDITION: every prefix sum fits in int32, i.e.
/// (v.size() + 1) * max|v[i]| < 2^31 -- the caller checks this once per
/// window (the multiset is shuffle-invariant).  Under that bound all
/// arithmetic here is exact integer math, so the vector path computes the
/// identical prefix values the scalar loop does; the range is monotone
/// over the scan, so the periodic early exit cannot change the verdict.
inline bool cusum_i32_range_below(std::span<const std::int32_t> v, std::int64_t observed) {
  std::size_t i = 0;
  std::int64_t s = 0, lo = 0, hi = 0;
#if defined(__AVX2__)
  const std::size_t n = v.size();
  if (n >= 8) {
    __m256i vmin = _mm256_setzero_si256();
    __m256i vmax = _mm256_setzero_si256();
    __m256i vcarry = _mm256_setzero_si256();
    const __m256i seven = _mm256_set1_epi32(7);
    int block = 0;
    for (; i + 8 <= n; i += 8) {
      __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v.data() + i));
      // In-lane inclusive prefix sums (log-shift), ...
      x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
      x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
      // ... then carry the low 128-bit lane's total into the high lane ...
      const __m256i lane_tot = _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
      x = _mm256_add_epi32(x, _mm256_permute2x128_si256(lane_tot, lane_tot, 0x08));
      // ... and the running total of all previous blocks.
      x = _mm256_add_epi32(x, vcarry);
      vmin = _mm256_min_epi32(vmin, x);
      vmax = _mm256_max_epi32(vmax, x);
      vcarry = _mm256_permutevar8x32_epi32(x, seven);
      if (++block == 8) {
        block = 0;
        if (static_cast<std::int64_t>(detail::hmax_epi32(vmax)) - detail::hmin_epi32(vmin) >=
            observed) {
          return false;
        }
      }
    }
    lo = detail::hmin_epi32(vmin);
    hi = detail::hmax_epi32(vmax);
    s = _mm_cvtsi128_si32(_mm256_castsi256_si128(vcarry));
  }
#endif
  for (; i < v.size(); ++i) {
    s += v[i];
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    if (hi - lo >= observed) return false;
  }
  return hi - lo < observed;
}

}  // namespace ixp::simd
