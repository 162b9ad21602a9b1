#include "stats/ranks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace ixp::stats {

std::vector<double> ranks(std::span<const double> v) {
  std::vector<double> out;
  std::vector<std::size_t> idx;
  ranks_into(v, out, idx);
  return out;
}

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

double mann_whitney_u(std::span<const double> a, std::span<const double> b) {
  std::vector<double> pooled;
  pooled.reserve(a.size() + b.size());
  std::size_t na = 0, nb = 0;
  for (double x : a) {
    if (std::isfinite(x)) {
      pooled.push_back(x);
      ++na;
    }
  }
  for (double x : b) {
    if (std::isfinite(x)) {
      pooled.push_back(x);
      ++nb;
    }
  }
  if (na == 0 || nb == 0) return std::numeric_limits<double>::quiet_NaN();
  const auto r = ranks(pooled);
  double ra = 0;
  for (std::size_t i = 0; i < na; ++i) ra += r[i];
  return ra - static_cast<double>(na) * (static_cast<double>(na) + 1) / 2.0;
}

double mann_whitney_pvalue(std::span<const double> a, std::span<const double> b) {
  const double na = static_cast<double>(std::count_if(a.begin(), a.end(), [](double x) { return std::isfinite(x); }));
  const double nb = static_cast<double>(std::count_if(b.begin(), b.end(), [](double x) { return std::isfinite(x); }));
  if (na == 0 || nb == 0) return std::numeric_limits<double>::quiet_NaN();
  const double u = mann_whitney_u(a, b);
  const double mu = na * nb / 2.0;
  const double sigma = std::sqrt(na * nb * (na + nb + 1) / 12.0);
  if (sigma == 0) return 1.0;
  const double z = std::fabs(u - mu) / sigma;
  // Two-sided p from the normal tail: erfc(z / sqrt(2)).
  return std::erfc(z / std::sqrt(2.0));
}

}  // namespace ixp::stats
