// The simulated clock.
//
// A network's notion of "now".  Probes execute analytically at the current
// instant (sim/network.h), so nothing is ever scheduled: callers move the
// clock forward between rounds and probes, and it never runs backwards.
#pragma once

#include "util/time.h"

namespace ixp::sim {

class Simulator {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Moves the clock to `at`; an instant already passed is a no-op.
  void advance_to(TimePoint at) {
    if (at > now_) now_ = at;
  }

 private:
  TimePoint now_{};
};

}  // namespace ixp::sim
