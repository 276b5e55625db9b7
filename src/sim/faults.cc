#include "src/sim/faults.h"

namespace aitia {

// Mix64 decorrelates (seed, nonce) pairs so nearby nonces (attempt 0 vs
// attempt 1 of the same run) get independent fault streams.
uint64_t FaultNonce(uint64_t run_nonce, int attempt) {
  return Mix64(run_nonce * 0x100000001b3ULL + static_cast<uint64_t>(attempt));
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t nonce)
    : plan_(plan), rng_(Mix64(plan.seed ^ Mix64(nonce))) {
  if (plan_.abort_run > 0) {
    will_abort_ = rng_.Chance(plan_.abort_run, 1000);
    if (will_abort_) {
      abort_step_ =
          plan_.abort_at_step >= 0 ? plan_.abort_at_step : 1 + static_cast<int64_t>(rng_.NextBelow(999));
    }
  }
}

bool FaultInjector::DropPreemptionPoint() {
  if (plan_.drop_preemption_point == 0) {
    return false;
  }
  if (!rng_.Chance(plan_.drop_preemption_point, 1000)) {
    return false;
  }
  ++counters_.points_dropped;
  return true;
}

bool FaultInjector::SpuriousWakeup() {
  if (plan_.spurious_wakeup == 0) {
    return false;
  }
  if (!rng_.Chance(plan_.spurious_wakeup, 1000)) {
    return false;
  }
  ++counters_.spurious_wakeups;
  return true;
}

bool FaultInjector::AbortNow(int64_t step) {
  if (!will_abort_ || step < abort_step_) {
    return false;
  }
  will_abort_ = false;  // fire once
  ++counters_.aborts;
  return true;
}

}  // namespace aitia
