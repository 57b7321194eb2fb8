// Dedup machinery of the discrete-time verifier's BFS: packed state keys,
// the word-at-a-time key hash, the open-addressing VisitedSet, and the
// striped (sharded-by-hash) variant the breadth-first driver
// deduplicates through when a proof runs on more than one thread.
//
// Everything here used to live in discrete.cpp's anonymous namespace; it
// is a header so (a) the one-table and the striped dedup share one growth /
// load-factor policy, and (b) the striped set's GUARDED_BY/REQUIRES
// contracts are visible to the configure-time thread-safety probes
// (tests/compile_fail/striped_unguarded_fails.cpp must NOT compile under
// clang -Wthread-safety). The types are verifier internals — nothing
// outside src/verify/ and the compile probes should include this.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/check.h"
#include "support/thread_annotations.h"

namespace ttdim::verify::detail {

constexpr std::size_t round8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Fixed-capacity dedup key: three bytes per application (mode and
/// disturbance budget share a byte), zero-padded to the capacity so
/// hashing reads whole 8-byte words without touching the heap. Two
/// capacities are instantiated: 16 bytes covers up to 5 applications (the
/// hot mapping-walk probes — halving the key keeps the visited table and
/// queue cache-resident far longer), 48 bytes covers the full packed cap
/// of DiscreteVerifier::kMaxApps.
template <std::size_t Cap>
struct SmallKey {
  static_assert(Cap % 8 == 0, "hashing reads whole 8-byte words");
  std::array<std::uint8_t, Cap> bytes{};
  std::uint8_t len = 0;  ///< 0 marks an empty visited-table slot

  /// Small capacities hash the whole (zero-padded) array: the trip count
  /// becomes a compile-time constant and padded words mix in nothing but
  /// zeros. Larger capacities hash only the occupied words.
  static constexpr std::size_t kFixedHashSpan = Cap <= 16 ? Cap : 0;

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return bytes.data();
  }
  [[nodiscard]] std::uint8_t* data() noexcept { return bytes.data(); }
  [[nodiscard]] bool empty() const noexcept { return len == 0; }

  friend bool operator==(const SmallKey& a, const SmallKey& b) {
    // Fixed-size compare inlines to a couple of word compares; the
    // padding beyond len is zero on both sides, so it never flips the
    // answer for keys of equal length (all keys of one run share len).
    return a.len == b.len &&
           std::memcmp(a.bytes.data(), b.bytes.data(), Cap) == 0;
  }
  friend bool operator!=(const SmallKey& a, const SmallKey& b) {
    return !(a == b);
  }
};

/// Heap-backed key for populations beyond the packed cap (> kMaxApps
/// applications): same 3-bytes-per-app layout, storage rounded up to whole
/// words and zero-padded so the shared hash loop applies unchanged. This
/// is the compatibility fallback — per-state allocation is acceptable
/// because the disturbance branching dominates long before key traffic
/// does at such sizes.
struct HeapKey {
  std::vector<std::uint8_t> bytes;  ///< size == round8(len), zero-padded
  std::uint16_t len = 0;

  static constexpr std::size_t kFixedHashSpan = 0;  ///< length-bounded hashing

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return bytes.data();
  }
  [[nodiscard]] std::uint8_t* data() noexcept { return bytes.data(); }
  [[nodiscard]] bool empty() const noexcept { return len == 0; }

  friend bool operator==(const HeapKey& a, const HeapKey& b) {
    return a.len == b.len && a.bytes == b.bytes;
  }
  friend bool operator!=(const HeapKey& a, const HeapKey& b) {
    return !(a == b);
  }
};

/// Word-at-a-time mix (splitmix-style) over the zero-padded key, bounded
/// by the words the key actually occupies — all keys of one run share a
/// length, so the trailing zero padding inside the last word is
/// collision-neutral and the loop trip count is minimal.
template <typename Key>
struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    std::uint64_t h = 0x9E3779B97F4A7C15ull ^ k.len;
    const std::uint8_t* data = k.data();
    const std::size_t words = Key::kFixedHashSpan != 0
                                  ? Key::kFixedHashSpan  // constant trip count
                                  : round8(k.len);
    for (std::size_t off = 0; off < words; off += 8) {
      std::uint64_t w;
      std::memcpy(&w, data + off, 8);
      h = (h ^ w) * 0xFF51AFD7ED558CCDull;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Open-addressing visited set: linear probing over flat key slots
/// (emptiness is the key's own len == 0 marker, so a slot carries no
/// metadata beyond the key bytes — at 17 bytes per 5-app slot the table
/// stays several times smaller than a node-based set and the BFS's tens
/// of millions of membership-or-insert probes stay in cache accordingly).
///
/// Growth policy (shared by the one-table and the striped dedup):
/// capacity is always a power of two sized once, up front, to the 0.75
/// load-factor bound — reserve()/ensure_room() round the expected key
/// count up to the bound, so the hot probe loop (insert_hashed) carries
/// no growth check at all. Callers either use the checked insert()
/// convenience, or batch: hash a block of candidates, ensure_room(block),
/// prefetch() every home slot, then insert_hashed() in order — the
/// prefetches overlap the probe loop's dependent loads, hiding the
/// memory latency that dominates once the table outgrows the cache.
template <typename Key>
class VisitedSet {
 public:
  /// Default sizing matches the BFS workloads (a few hundred thousand
  /// states); the striped set passes a smaller initial capacity since it
  /// splits one logical table 64 ways.
  explicit VisitedSet(std::size_t initial_capacity = std::size_t{1} << 16) {
    rehash(initial_capacity);
  }

  [[nodiscard]] static std::size_t hash_of(const Key& k) noexcept {
    return KeyHash<Key>{}(k);
  }

  /// Pre-sizes for `n` expected keys: rounds the capacity up (power-of-two
  /// doubling) until `n` keys fit under the 0.75 load-factor bound. This
  /// is the one place the growth decision lives — insert_hashed() never
  /// re-checks it.
  void reserve(std::size_t n) {
    std::size_t capacity = mask_ + 1;
    while (capacity - capacity / 4 < n) capacity *= 2;
    if (capacity > mask_ + 1) rehash(capacity);
  }

  /// Guarantees the next `n` insert_hashed() calls stay under the load
  /// bound without any per-insert growth check.
  void ensure_room(std::size_t n) {
    if (size_ + n > grow_at_) reserve(size_ + n);
  }

  /// Pulls the home slot of `hash` toward the cache ahead of its
  /// insert_hashed() probe. Only valid between an ensure_room() covering
  /// the pending block and the inserts themselves (a rehash in between
  /// would re-home every slot).
  void prefetch(std::size_t hash) const {
    __builtin_prefetch(&slots_[hash & mask_]);
  }

  /// True when the key was newly inserted (i.e. not seen before). The
  /// caller guarantees room via a preceding ensure_room()/reserve() —
  /// the probe loop itself never grows the table.
  bool insert_hashed(std::size_t hash, const Key& k) {
    std::size_t i = hash & mask_;
    for (;;) {
      Key& s = slots_[i];
      if (s.empty()) {
        s = k;
        ++size_;
        return true;
      }
      if (s == k) return false;
      i = (i + 1) & mask_;
    }
  }

  /// Checked single-key convenience (seeding, cold paths).
  bool insert(const Key& k) {
    ensure_room(1);
    return insert_hashed(hash_of(k), k);
  }

 private:
  void rehash(std::size_t capacity) {
    std::vector<Key> old = std::move(slots_);
    slots_.assign(capacity, Key{});
    mask_ = capacity - 1;
    grow_at_ = capacity - capacity / 4;  // load factor 0.75
    for (Key& k : old) {
      if (k.empty()) continue;
      std::size_t i = KeyHash<Key>{}(k)&mask_;
      while (!slots_[i].empty()) i = (i + 1) & mask_;
      slots_[i] = std::move(k);
    }
  }

  std::vector<Key> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t grow_at_ = 0;
};

constexpr std::size_t log2_floor(std::size_t n) {
  std::size_t b = 0;
  while (n > 1) {
    n >>= 1;
    ++b;
  }
  return b;
}

/// The multi-threaded proofs' visited set: one VisitedSet per stripe,
/// sharded by the TOP bits of the key hash (the per-stripe tables index
/// by the low bits, so the two selections never alias). Per-thread
/// frontier chunks batch their candidate keys by stripe and take each
/// stripe lock once per flush — with 64 stripes and a handful of worker
/// threads, lock contention is negligible next to the expansion work.
///
/// The locking discipline is machine-checked: each stripe's table is
/// GUARDED_BY its mutex and the batched helpers carry REQUIRES, so the
/// clang -Wthread-safety lane proves every access path — the negative
/// configure probe (striped_unguarded_fails.cpp) proves the proof is
/// alive by failing to compile an unguarded stripe access.
template <typename Key, std::size_t kStripes = 64>
class StripedVisitedSet {
  static_assert(kStripes >= 2 && (kStripes & (kStripes - 1)) == 0,
                "stripe count must be a power of two");

 public:
  struct Stripe {
    support::Mutex mu;
    VisitedSet<Key> set GUARDED_BY(mu) =
        VisitedSet<Key>(std::size_t{1} << 10);
  };

  static constexpr std::size_t kNumStripes = kStripes;
  static constexpr std::size_t kStripeBits = log2_floor(kStripes);

  /// Stripe selector: top hash bits, disjoint from the in-table index
  /// bits (hash & mask), so shard skew never correlates with probe
  /// clustering.
  [[nodiscard]] static constexpr std::size_t stripe_index(
      std::size_t hash) noexcept {
    return hash >> (sizeof(std::size_t) * 8 - kStripeBits);
  }

  [[nodiscard]] Stripe& stripe_of(std::size_t hash) noexcept {
    return stripes_[stripe_index(hash)];
  }
  [[nodiscard]] Stripe& stripe_at(std::size_t index) noexcept {
    return stripes_[index];
  }

  /// Batched-flush protocol, under one lock acquisition per stripe:
  /// reserve_in_stripe(count) once, then insert_in_stripe() for each
  /// candidate — the growth check runs once per flush, not once per
  /// probe, exactly like the one-table ensure_room()/insert_hashed() pair.
  void reserve_in_stripe(Stripe& stripe, std::size_t n) REQUIRES(stripe.mu) {
    stripe.set.ensure_room(n);
  }

  /// True when newly inserted. Requires a preceding reserve_in_stripe()
  /// covering the flush (same contract as VisitedSet::insert_hashed).
  bool insert_in_stripe(Stripe& stripe, std::size_t hash, const Key& k)
      REQUIRES(stripe.mu) {
    return stripe.set.insert_hashed(hash, k);
  }

  /// Checked single-key convenience (seeding the initial state).
  bool insert(std::size_t hash, const Key& k) {
    Stripe& stripe = stripe_of(hash);
    support::MutexLock lock(stripe.mu);
    stripe.set.ensure_room(1);
    return stripe.set.insert_hashed(hash, k);
  }

 private:
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace ttdim::verify::detail
