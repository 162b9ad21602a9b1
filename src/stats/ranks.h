// Rank transforms.
//
// The paper's level-shift detector is a *rank-based* non-parametric CUSUM
// (Taylor's change-point analysis on ranks): ranking the samples first makes
// the detector robust to the heavy-tailed RTT outliers that ICMP slow-path
// responses produce.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ixp::stats {

/// Fractional (mid) ranks, 1-based, ties averaged.  NaN entries receive
/// rank NaN and do not consume rank mass.
std::vector<double> ranks(std::span<const double> v);

/// ranks() into caller-owned buffers: `out` receives the ranks, `idx` is
/// sort scratch.  The change-point detector recycles both across windows.
void ranks_into(std::span<const double> v, std::vector<double>& out,
                std::vector<std::size_t>& idx);

/// Mann-Whitney U statistic of `a` against `b` (NaNs skipped).
double mann_whitney_u(std::span<const double> a, std::span<const double> b);

/// Two-sided normal-approximation p-value for the Mann-Whitney U test.
/// Suitable for the segment sizes the TSLP pipeline feeds it (>= ~10).
double mann_whitney_pvalue(std::span<const double> a, std::span<const double> b);

}  // namespace ixp::stats
