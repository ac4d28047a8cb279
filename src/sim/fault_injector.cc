#include "src/sim/fault_injector.h"

#include "src/common/dcheck.h"

namespace rocksteady {

FaultInjector::Decision FaultInjector::OnMessage(uint32_t from, uint32_t to) {
  const uint64_t link = PackLink(from, to);

  double drop_p = config_.drop_probability;
  double dup_p = config_.duplicate_probability;
  if (const LinkOverride* override = link_overrides_.Find(link); override != nullptr) {
    drop_p = override->drop_probability;
    dup_p = override->duplicate_probability;
  }

  ROCKSTEADY_DCHECK(from < sender_rng_.size());  // Installed on a Network.
  Random& rng = sender_rng_[from];

  Decision decision;
  if (int* remaining = drop_next_.Find(link); remaining != nullptr && *remaining > 0) {
    if (--*remaining == 0) {
      drop_next_.Erase(link);
    }
    decision.copies = 0;
    return decision;
  }
  bool forced_dup = false;
  if (int* remaining = duplicate_next_.Find(link); remaining != nullptr && *remaining > 0) {
    if (--*remaining == 0) {
      duplicate_next_.Erase(link);
    }
    forced_dup = true;
  }

  // One probability draw per configured hazard, in fixed order, so the draw
  // sequence (and thus the whole run) is a pure function of the seed.
  if (drop_p > 0.0 && rng.NextDouble() < drop_p) {
    decision.copies = 0;
    return decision;
  }
  if (forced_dup || (dup_p > 0.0 && rng.NextDouble() < dup_p)) {
    decision.copies = 2;
  }
  if (config_.max_extra_delay_ns > 0) {
    for (int i = 0; i < decision.copies; i++) {
      decision.extra_delay_ns[static_cast<size_t>(i)] =
          rng.Uniform(config_.max_extra_delay_ns + 1);
    }
  }
  return decision;
}

}  // namespace rocksteady
