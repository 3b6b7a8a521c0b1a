#include "hopcount/hopcount.h"

#include <algorithm>

#include "lifecycle/lifecycle.h"

namespace infilter::hopcount {

HopCountTable::HopCountTable(HopCountConfig config) : config_(config) {}

std::uint64_t HopCountTable::key_of(IngressId ingress, net::IPv4Address source) {
  return (std::uint64_t{ingress} << 32) |
         net::to_slash24(source).address().value();
}

bool HopCountTable::stale(const Entry& entry, util::TimeMs now) const {
  // Shared idle-expiry predicate (lifecycle/lifecycle.h): the hop-count
  // decay clock and the EIA entry-aging clock are the same flow-carried
  // virtual time, so the testbed drives both deterministically.
  return config_.decay_ms != 0 &&
         lifecycle::idle_expired(entry.last_seen, now, config_.decay_ms);
}

TtlClass HopCountTable::classify(IngressId ingress, net::IPv4Address source,
                                 std::uint8_t ttl, util::TimeMs now) const {
  ++stats_.classified;
  const int hops = hops_from_ttl(ttl);
  if (hops < 0) {
    ++stats_.unknown;
    return TtlClass::kUnknown;
  }
  const auto it = table_.find(key_of(ingress, source));
  if (it == table_.end() || it->second.count < config_.learn_threshold ||
      stale(it->second, now)) {
    ++stats_.unknown;
    return TtlClass::kUnknown;
  }
  const Entry& entry = it->second;
  if (hops >= int{entry.min_hops} - config_.tolerance &&
      hops <= int{entry.max_hops} + config_.tolerance) {
    ++stats_.consistent;
    return TtlClass::kConsistent;
  }
  ++stats_.misses;
  return TtlClass::kMiss;
}

HopCountTable::Observe HopCountTable::observe(IngressId ingress,
                                              net::IPv4Address source,
                                              std::uint8_t ttl,
                                              util::TimeMs now) {
  const int hops = hops_from_ttl(ttl);
  if (hops < 0) return Observe::kIgnored;

  const auto key = key_of(ingress, source);
  auto it = table_.find(key);
  if (it == table_.end()) {
    if (table_.size() >= config_.max_entries) return Observe::kIgnored;
    it = table_.emplace(key, Entry{}).first;
    it->second.count = 0;
  } else if (stale(it->second, now)) {
    // Idle past the decay deadline: the old range no longer describes the
    // path; start learning over from this observation.
    it->second = Entry{};
    ++stats_.expired_entries;
  }

  ++stats_.observations;
  Entry& entry = it->second;
  entry.last_seen = now;
  const auto hops8 = static_cast<std::uint8_t>(std::clamp(hops, 0, 255));

  if (entry.count < config_.learn_threshold) {
    if (entry.count == 0) {
      entry.min_hops = entry.max_hops = hops8;
    } else {
      entry.min_hops = std::min(entry.min_hops, hops8);
      entry.max_hops = std::max(entry.max_hops, hops8);
    }
    if (++entry.count == config_.learn_threshold) ++stats_.established_keys;
    return Observe::kLearning;
  }

  if (hops >= int{entry.min_hops} - config_.tolerance &&
      hops <= int{entry.max_hops} + config_.tolerance) {
    entry.out_streak = 0;
    return Observe::kInRange;
  }
  if (++entry.out_streak >= config_.relearn_threshold) {
    entry = Entry{hops8, hops8, 1, 0, now};
    ++stats_.relearned_ranges;
    return Observe::kRelearned;
  }
  return Observe::kOutOfRange;
}

void HopCountTable::restore(IngressId ingress, net::IPv4Address source,
                            const Entry& entry) {
  table_[key_of(ingress, source)] = entry;
}

std::vector<HopCountTable::ExportedEntry> HopCountTable::entries() const {
  std::vector<ExportedEntry> out;
  out.reserve(table_.size());
  for (const auto& [key, entry] : table_) {
    out.push_back(ExportedEntry{
        static_cast<IngressId>(key >> 32),
        net::Prefix{net::IPv4Address{static_cast<std::uint32_t>(key)}, 24},
        entry});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.ingress != b.ingress ? a.ingress < b.ingress
                                  : a.slash24.address() < b.slash24.address();
  });
  return out;
}

HopCountAnalysis::HopCountAnalysis(HopCountConfig config) : table_(config) {}

TtlClass HopCountAnalysis::analyze(IngressId ingress, net::IPv4Address source,
                                   std::uint8_t ttl, util::TimeMs now,
                                   bool eia_hit) {
  const TtlClass result = table_.classify(ingress, source, ttl, now);
  // Learn only from flows the EIA sets vouch for, and never from a flow
  // that itself looks like a forged path -- a spoofer must not be able to
  // drag the range toward its own hop count.
  if (eia_hit && result != TtlClass::kMiss) {
    (void)table_.observe(ingress, source, ttl, now);
  }
  return result;
}

}  // namespace infilter::hopcount
