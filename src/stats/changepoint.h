// Change-point analysis after W. A. Taylor ("Change-Point Analysis: A
// Powerful New Tool for Detecting Changes"), the method the paper cites
// [40] for its level-shift algorithm.
//
// Detection works on the CUSUM of deviations from the series mean: a change
// in the *direction* of the CUSUM marks a candidate change point, and a
// bootstrap (random reorderings of the series) estimates the confidence
// that the observed CUSUM range could not have arisen by chance.  Confident
// change points split the series and the procedure recurses on each half.
//
// The paper's level-shift detector runs this on *ranks* of the RTT samples
// (rank-based non-parametric CUSUM), which CusumOptions::use_ranks enables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ixp::stats {

struct CusumOptions {
  /// Apply the rank transform before the CUSUM (the paper's configuration).
  bool use_ranks = true;
  /// Bootstrap reorderings per candidate change point.
  int bootstrap_rounds = 200;
  /// Required bootstrap confidence to accept a change point.
  double confidence = 0.95;
  /// Minimum samples on each side of an accepted change point.
  std::size_t min_segment = 6;
  /// Seed for the bootstrap shuffles (deterministic analysis).
  std::uint64_t seed = 0x5eed5eedULL;
};

/// A maximal run of samples between consecutive change points.
struct Segment {
  std::size_t begin;  ///< inclusive
  std::size_t end;    ///< exclusive
  double level;       ///< median of the finite samples inside
};

/// Reusable buffers for detect_change_point_indices: the TSLP fast path
/// calls it once per analysis window, so the rank array, the bootstrap's
/// shuffle buffer, and the result vector are recycled across calls instead
/// of being reallocated hundreds of times per series.
struct ChangePointScratch {
  std::vector<double> ranks;        ///< rank transform of the window
  std::vector<std::size_t> order;   ///< rank computation ordering scratch
  std::vector<double> shuffled;     ///< bootstrap permutation buffer
  /// Integer twin of `shuffled` for windows whose CUSUM arithmetic is
  /// provably exact (rank inputs with a dyadic mean): the bootstrap then
  /// runs on scaled int32 values with identical decisions and a much
  /// shorter add-latency chain.
  std::vector<std::int32_t> shuffled_int;
  std::vector<std::size_t> found;   ///< accepted indices (sorted, unique)
  /// Per-span division magics for the bootstrap's Fisher-Yates draws
  /// (index = span): mod_magic[s] = ceil(2^64 / s), mod_limit[s] the
  /// rejection threshold Rng::uniform_int uses.  Grown on demand and kept
  /// across windows, so each span pays for its two divisions once ever
  /// instead of once per draw.
  std::vector<std::uint64_t> mod_magic;
  std::vector<std::uint64_t> mod_limit;
};

/// Recursive change-point detection: the accepted change-point indices
/// (first sample of each new level), sorted and unique.  A window is split
/// at its CUSUM extremum when the bootstrap confidence reaches
/// opt.confidence and both sides keep opt.min_segment samples; the two
/// halves then recurse with the same generator, so the result depends only
/// on the input, the options and the seed.  Returns a reference to
/// scratch.found, valid until reuse.
const std::vector<std::size_t>& detect_change_point_indices(std::span<const double> v,
                                                            const CusumOptions& opt,
                                                            ChangePointScratch& scratch);

/// Converts sorted change-point indices into level segments covering
/// [0, n): segment k ends where change point k starts the next level.
std::vector<Segment> to_segments(std::span<const double> v, std::span<const std::size_t> cps);

}  // namespace ixp::stats
