// Scalar reference implementations of the TSLP statistics path.
//
// The production detector (tslp::detect_fast, shared by classification and
// the online detector) is byte-identical to the straightforward per-series
// pipeline below on every input.  These functions are that pipeline,
// written for obviousness rather than speed: the change-point recursion is
// change_point_indices below (a plain bootstrap loop with its own generator
// and one Rng::uniform_int draw per Fisher-Yates slot), every range count
// is a loop, every quantile a fresh stats::quantile call, and the
// weekday/weekend split classifies each sample through to_calendar.  The
// equivalence suites in tests/test_tslp.cc, ChangePoint.IndicesMatchOracle
// in tests/test_stats.cc and bench/bench_tslp's `scalar` row compare
// against them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/changepoint.h"
#include "tslp/classifier.h"
#include "tslp/level_shift.h"
#include "tslp/series.h"

namespace ixp::oracle {

/// Taylor's recursive bootstrap CUSUM, the reference for
/// stats::detect_change_point_indices: sorted, unique change-point indices
/// (first sample of each new level) for the same input, options and seed.
std::vector<std::size_t> change_point_indices(std::span<const double> v,
                                              const stats::CusumOptions& opt);

/// The scalar level-shift pipeline: coverage and gaps, 10th-percentile
/// baseline, 50%-overlapping window scan with the darkness and quiet-spread
/// skips, segments, elevated episodes, sanitization, duration filter,
/// Mann-Whitney significance.
tslp::LevelShiftResult detect_legacy(const tslp::RttSeries& series,
                                     const tslp::LevelShiftOptions& opts);

/// The per-sample weekday/weekend split (tslp::weekday_weekend_peaks'
/// contract, one to_calendar call per sample).
void weekday_weekend_peaks(const tslp::RttSeries& s, double baseline, double& weekday,
                           double& weekend);

/// CongestionClassifier::classify with both detections and the waveform
/// split taken from the oracle.
tslp::LinkReport classify(const tslp::LinkSeries& link, const tslp::ClassifierOptions& opts);

}  // namespace ixp::oracle
