#include "sim/node.h"

#include <algorithm>
#include <cmath>

namespace ixp::sim {

// ---------------------------------------------------------------------------
// Router

Duration Router::icmp_generation_delay(TimePoint t) {
  double ms = to_ms(cfg_.icmp_base_delay);
  if (cfg_.icmp_jitter.count() > 0) {
    ms += to_ms(cfg_.icmp_jitter) * std::fabs(rng_.normal());
  }
  if (cfg_.icmp_load && cfg_.icmp_load_extra.count() > 0) {
    const double load = std::clamp(cfg_.icmp_load->bps(t), 0.0, 1.0);
    ms += to_ms(cfg_.icmp_load_extra) * load;
  }
  return milliseconds(ms);
}

bool Router::icmp_rate_admit(TimePoint t) {
  if (cfg_.icmp_rate_limit_per_sec <= 0) return true;
  const double cap = std::max(1.0, cfg_.icmp_rate_limit_per_sec);  // burst = 1s worth
  if (!icmp_bucket_primed_) {
    icmp_tokens_ = cap;  // the bucket starts full
    icmp_bucket_primed_ = true;
  }
  icmp_tokens_ = std::min(cap, icmp_tokens_ + to_sec(t - icmp_tokens_at_) * cfg_.icmp_rate_limit_per_sec);
  icmp_tokens_at_ = t;
  if (icmp_tokens_ < 1.0) return false;
  icmp_tokens_ -= 1.0;
  return true;
}

}  // namespace ixp::sim
