// Descriptive statistics over double sequences.
//
// NaN entries (missing RTT samples -- probe losses) are skipped by every
// function here, matching how the analysis pipeline treats unanswered
// probes.
#pragma once

#include <cstddef>
#include <span>

namespace ixp::stats {

/// Arithmetic mean of finite entries; NaN if none.
double mean(std::span<const double> v);

/// Median of finite entries; NaN if none.
double median(std::span<const double> v);

/// Linear-interpolated quantile q in [0,1] of finite entries; NaN if none.
double quantile(std::span<const double> v, double q);

/// Quantile over an already-compacted buffer of finite values.  Reorders
/// `finite` (selection, not a sort) but uses only its multiset of values,
/// so repeated calls on the same buffer return exactly what fresh calls on
/// the original compaction would -- the property the TSLP fast path's
/// fused p95/p05 prefilter relies on.  quantile() routes through this, so
/// there is a single copy of the interpolation math.
double quantile_inplace(std::span<double> finite, double q);

/// Maximum of finite entries; NaN if none.
double max_value(std::span<const double> v);

/// Count of finite (non-NaN) entries.
std::size_t finite_count(std::span<const double> v);

}  // namespace ixp::stats
