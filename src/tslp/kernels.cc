#include "tslp/kernels.h"

#include <cmath>

#include "tslp/level_shift.h"

namespace ixp::tslp {

void FiniteIndex::build(std::span<const double> v) {
  prefix_.assign(v.size() + 1, 0);
  gaps_.clear();
  std::uint64_t count = 0;
  std::size_t run_begin = 0;
  bool in_run = false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::isnan(v[i])) {
      if (!in_run) {
        in_run = true;
        run_begin = i;
      }
    } else {
      ++count;
      if (in_run) {
        in_run = false;
        if (i - run_begin >= kGapMinRun) gaps_.push_back({run_begin, i});
      }
    }
    prefix_[i + 1] = count;
  }
  if (in_run && v.size() - run_begin >= kGapMinRun) gaps_.push_back({run_begin, v.size()});
}

}  // namespace ixp::tslp
