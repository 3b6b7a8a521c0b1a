#include "lifecycle/lifecycle.h"

namespace infilter::lifecycle {

EntryState idle_state(util::TimeMs last_seen, util::TimeMs now,
                      const LifecycleConfig& config) {
  if (idle_expired(last_seen, now, config.max_idle_ms)) return EntryState::kExpired;
  if (idle_expired(last_seen, now, config.stale_threshold())) return EntryState::kStale;
  return EntryState::kEstablished;
}

}  // namespace infilter::lifecycle
