#include "engine/oracle/subsumption_index.h"

#include <algorithm>

#include "support/check.h"
#include "support/codec.h"

namespace ttdim::engine::oracle {

namespace {

std::uint64_t signature_of(const std::vector<std::string>& tokens) {
  std::uint64_t sig = 0;
  for (const std::string& token : tokens)
    sig |= std::uint64_t{1} << (support::codec::fnv1a(token) & 63u);
  return sig;
}

/// Multiset inclusion over sorted token vectors. std::includes on sorted
/// ranges is multiset-aware: a token occurring twice in `small` must
/// occur at least twice in `big`.
bool contains(const std::vector<std::string>& big,
              const std::vector<std::string>& small) {
  return small.size() <= big.size() &&
         std::includes(big.begin(), big.end(), small.begin(), small.end());
}

/// The soundness guards every note shares: subsumption records only
/// canonical (set) keys — an ordered prefix key describes member order a
/// multiset cannot represent — and the key's options suffix must be the
/// group the tokens claim, or entries could be compared across verifier
/// options / state budgets.
void check_note(const SlotConfigKey& key, const SlotPopulationTokens& tokens) {
  TTDIM_EXPECTS(key.canonical.compare(0, 4, "ord:") != 0);
  TTDIM_EXPECTS(key.options_suffix() == tokens.options);
}

}  // namespace

SubsumptionIndex::SubsumptionIndex(std::size_t unsafe_capacity)
    : unsafe_lru_(unsafe_capacity, nullptr,
                  [this](const SlotConfigKey& key, const std::string& options) {
                    // Fires inside note_unsafe/clear, which hold mutex_
                    // (unsafe_lru_ is GUARDED_BY it, so no other path can
                    // trigger this hook). The assertion hands that hold to
                    // the analysis across the type-erased hook boundary;
                    // erase_unsafe_locked's REQUIRES does the rest.
                    mutex_.AssertHeld();
                    erase_unsafe_locked(key, options);
                  }) {}

std::optional<SubsumptionIndex::ProbeAnswer> SubsumptionIndex::probe(
    const SlotPopulationTokens& probe) const {
  probes_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t sig = signature_of(probe.apps);
  support::MutexLock lock(mutex_);
  const auto group_it = groups_.find(probe.options);
  if (group_it == groups_.end()) return std::nullopt;
  const Group& group = group_it->second;
  // Safe side: the probe must fit inside a recorded safe population —
  // its member bits inside the entry's signature, then the exact check.
  // Recency of the match is the caller's job (see ProbeAnswer): the
  // backing verdict lives in the VerdictCache, which must not be called
  // into from under this mutex.
  for (const auto& [key, pop] : group.safe) {
    if ((sig & ~pop.signature) == 0 && contains(pop.apps, probe.apps)) {
      safe_hits_.fetch_add(1, std::memory_order_relaxed);
      return ProbeAnswer{true, key};
    }
  }
  // Unsafe side: a recorded unsafe population must fit inside the probe.
  for (const auto& [key, pop] : group.unsafe) {
    if ((pop.signature & ~sig) == 0 && contains(probe.apps, pop.apps)) {
      unsafe_hits_.fetch_add(1, std::memory_order_relaxed);
      // Refresh the matched population's recency so hot refutations
      // survive the unsafe-side bound.
      (void)unsafe_lru_.lookup(key);
      return ProbeAnswer{false, key};
    }
  }
  return std::nullopt;
}

void SubsumptionIndex::note_safe(const SlotConfigKey& key,
                                 const SlotPopulationTokens& tokens) {
  check_note(key, tokens);
  support::MutexLock lock(mutex_);
  Group& group = groups_[tokens.options];
  const auto [it, inserted] = group.safe.emplace(
      key, Population{tokens.apps, signature_of(tokens.apps)});
  (void)it;
  if (inserted) safe_entries_.fetch_add(1, std::memory_order_relaxed);
}

void SubsumptionIndex::erase_safe(const SlotConfigKey& key) {
  support::MutexLock lock(mutex_);
  const auto group_it = groups_.find(std::string(key.options_suffix()));
  if (group_it == groups_.end()) return;
  Group& group = group_it->second;
  if (group.safe.erase(key) > 0)
    safe_entries_.fetch_sub(1, std::memory_order_relaxed);
  if (group.safe.empty() && group.unsafe.empty()) groups_.erase(group_it);
}

void SubsumptionIndex::note_unsafe(const SlotConfigKey& key,
                                   const SlotPopulationTokens& tokens) {
  check_note(key, tokens);
  support::MutexLock lock(mutex_);
  // The LRU insert may evict the oldest unsafe population first; its
  // hook prunes that entry from groups_ under this same lock.
  if (!unsafe_lru_.insert(key, std::string(tokens.options))) return;
  groups_[tokens.options].unsafe.emplace(
      key, Population{tokens.apps, signature_of(tokens.apps)});
}

void SubsumptionIndex::erase_unsafe_locked(const SlotConfigKey& key,
                                           const std::string& options) {
  const auto group_it = groups_.find(options);
  if (group_it == groups_.end()) return;
  Group& group = group_it->second;
  group.unsafe.erase(key);
  if (group.safe.empty() && group.unsafe.empty()) groups_.erase(group_it);
}

SubsumptionStats SubsumptionIndex::stats() const {
  SubsumptionStats out;
  out.probes = probes_.load(std::memory_order_relaxed);
  out.safe_hits = safe_hits_.load(std::memory_order_relaxed);
  out.unsafe_hits = unsafe_hits_.load(std::memory_order_relaxed);
  out.safe_entries = safe_entries_.load(std::memory_order_relaxed);
  // The unsafe-side snapshot takes the index lock — unsafe_lru_ is
  // guarded so the eviction-hook protocol stays provable — which only
  // orders this read behind in-flight probes (microsecond scans); the
  // plain counters above stay lock-free.
  support::MutexLock lock(mutex_);
  const cache::LruStats lru = unsafe_lru_.stats();
  out.unsafe_entries = lru.entries;
  out.unsafe_evictions = lru.evictions;
  return out;
}

void SubsumptionIndex::clear() {
  support::MutexLock lock(mutex_);
  groups_.clear();
  unsafe_lru_.clear();  // per-entry hooks find nothing left to prune
  probes_.store(0, std::memory_order_relaxed);
  safe_hits_.store(0, std::memory_order_relaxed);
  unsafe_hits_.store(0, std::memory_order_relaxed);
  safe_entries_.store(0, std::memory_order_relaxed);
}

}  // namespace ttdim::engine::oracle
