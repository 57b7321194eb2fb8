#include "verify/discrete.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bitset>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

// The breadth-first driver fans each level's chunks out on the
// process-wide work-stealing pool. This is the one place src/verify/
// reaches into src/engine/ (cpp-only; the header stays engine-free).
#include "engine/executor.h"
#include "support/check.h"
#include "verify/visited_set.h"

namespace ttdim::verify {

namespace {

using detail::HeapKey;
using detail::KeyHash;
using detail::SmallKey;
using detail::VisitedSet;
using detail::round8;

/// Application mode within the slot-sharing protocol.
enum Loc : uint8_t { kSteady = 0, kWait = 1, kTt = 2, kSafe = 3 };

/// Packed per-application state: mode, samples since the disturbance was
/// seen, wait at grant time (TT only), disturbance count (bounded mode).
struct AppState {
  uint8_t loc = kSteady;
  uint8_t elapsed = 0;
  uint8_t wt_grant = 0;
  uint8_t dist_count = 0;
};

/// State-representation policy: the search below is written once against
/// this shape and instantiated per key capacity.
template <size_t KeyCap>
struct PackedShape {
  using Key = SmallKey<KeyCap>;
  using State = std::array<AppState, DiscreteVerifier::kMaxApps>;
  /// Most applications this key capacity can pack (3 bytes per app).
  static constexpr size_t kKeyApps = KeyCap / 3;
  static State blank(size_t) { return State{}; }
  static Key make_key(size_t len) {
    Key k;
    k.len = static_cast<uint8_t>(len);
    return k;
  }
};

struct HeapShape {
  using Key = HeapKey;
  using State = std::vector<AppState>;
  static constexpr size_t kKeyApps = DiscreteVerifier::kMaxAppsUnpacked;
  static State blank(size_t napps) { return State(napps); }
  static Key make_key(size_t len) {
    Key k;
    k.len = static_cast<uint16_t>(len);
    k.bytes.assign(round8(len), 0);
    return k;
  }
};

template <typename Shape>
typename Shape::Key encode(const typename Shape::State& s, size_t napps) {
  TTDIM_EXPECTS(napps <= Shape::kKeyApps);  // dispatch picked this shape
  typename Shape::Key key = Shape::make_key(3 * napps);
  uint8_t* b = key.data();
  for (size_t i = 0; i < napps; ++i) {
    const AppState& a = s[i];
    b[3 * i] = static_cast<uint8_t>(a.loc | (a.dist_count << 2));
    b[3 * i + 1] = a.elapsed;
    b[3 * i + 2] = a.wt_grant;
  }
  return key;
}

template <typename Shape>
void decode(const typename Shape::Key& key, size_t napps,
            typename Shape::State& s) {
  TTDIM_EXPECTS(napps <= Shape::kKeyApps);
  const uint8_t* b = key.data();
  for (size_t i = 0; i < napps; ++i) {
    const uint8_t packed = b[3 * i];
    s[i].loc = packed & 0x03;
    s[i].dist_count = packed >> 2;
    s[i].elapsed = b[3 * i + 1];
    s[i].wt_grant = b[3 * i + 2];
  }
}

/// Enumerating 2^k disturbance subsets from one state is pointless beyond
/// this width — a single expansion would dwarf any realistic state budget.
constexpr size_t kMaxSteadyBranching = 26;

/// Successor probes buffered per flush into the visited set. Large enough
/// to amortize ensure_room() and give the prefetches time to land, small
/// enough to stay cache-resident.
constexpr size_t kProbeBlock = 512;

/// Minimum level states per chunk — below this the chunking
/// overhead beats the win.
constexpr long kParallelGrain = 8;

inline size_t ctz(size_t bits) {
  return static_cast<size_t>(__builtin_ctzll(bits));
}

/// A hashed-up-front candidate successor awaiting its visited-set probe.
template <typename Key>
struct Probe {
  size_t hash;
  Key key;
};

/// One-state-to-all-successors generator, shared by the breadth-first and
/// the depth-first driver (which is what makes their reachable sets, and
/// hence their verdicts, provably identical).
///
/// Two interior paths:
///  - expand_fast(): the kPaper no-witness hot path. Works directly on
///    the packed key bytes — encode the post-elapse base once, then each
///    disturbance subset is a word-level copy of that 16/48-byte
///    encoding plus popcount-many byte patches, and grants patch two
///    more bytes. No AppState walk, no re-encode, no per-successor
///    dispatch: the inner loops are straight-line copies and table
///    lookups the compiler auto-vectorizes.
///  - expand_generic(): the reference path (witness recording, and the
///    kSlackAware policy whose preemption test needs full waiter views).
///
/// Emission order is identical across both paths and matches the
/// original one-state-at-a-time code exactly: subsets in ascending mask
/// order, grant ties in ascending app index. Everything downstream
/// (discovery order, fingerprints, snapshots, DFS traversal) depends on
/// that order, so it is part of this class's contract.
template <typename Shape>
class Expander {
 public:
  using Key = typename Shape::Key;
  using State = typename Shape::State;

  Expander(const std::vector<AppTiming>& apps,
           const DiscreteVerifier::Options& options)
      : apps_(apps),
        options_(options),
        napps_(apps.size()),
        bounded_(options.max_disturbances_per_app >= 0),
        base_(Shape::blank(napps_)),
        s_(Shape::blank(napps_)),
        granted_(Shape::blank(napps_)) {}

  struct Violation {
    int violator = -1;
    std::string action;  ///< only materialized when Record
  };

  /// Expands `cur_key`. Returns false when the elapse phase reaches the
  /// Error location (violation filled); otherwise feeds every successor
  /// key to `sink` — sink(Key&&) normally, or sink(Key&&, action, tick)
  /// when Record — and returns true. `seed_pop`/`prefix_napps` carry the
  /// prefix-extension subset restriction (see run_breadth_first).
  template <bool Record, typename Sink>
  bool expand(const Key& cur_key, bool seed_pop, size_t prefix_napps,
              Violation& violation, Sink&& sink) {
    decode<Shape>(cur_key, napps_, base_);

    // ---- Phase 1: one sample elapses. -----------------------------------
    bool error_now = false;
    for (size_t i = 0; i < napps_; ++i) {
      AppState& a = base_[i];
      switch (a.loc) {
        case kSteady:
          break;
        case kWait:
          ++a.elapsed;
          // Clock passed T*w while still waiting: the application automaton
          // reaches Error (paper Fig. 5).
          if (a.elapsed > apps_[i].t_star_w) {
            error_now = true;
            violation.violator = static_cast<int>(i);
            if (Record)
              violation.action = apps_[i].name + " exceeded T*w=" +
                                 std::to_string(apps_[i].t_star_w) +
                                 " while waiting";
          }
          break;
        case kTt:
          ++a.elapsed;
          break;
        case kSafe:
          ++a.elapsed;
          if (a.elapsed >= apps_[i].min_interarrival) {
            a.loc = kSteady;
            a.elapsed = 0;
            a.wt_grant = 0;
          }
          break;
      }
    }
    if (error_now) {
      // A seeded state cannot reach Error in phase 1: the prefix proof
      // already expanded it without one, and appended (steady) apps never
      // wait. Anything else would mean the snapshot belongs to different
      // timings than this prefix.
      TTDIM_CHECK(!seed_pop);
      return false;
    }

    // ---- Subset-invariant occupant facts. -------------------------------
    // A disturbance subset only moves kSteady apps to kWait, so the slot
    // occupant, its continuous time in the slot and its dwell-row bounds
    // are identical across all subsets of this pop — hoisted out of the
    // expansion loop (phase 3 consumes them).
    occupant0_ = -1;
    for (size_t i = 0; i < napps_; ++i)
      if (base_[i].loc == kTt) {
        TTDIM_CHECK(occupant0_ < 0);  // single-slot invariant
        occupant0_ = static_cast<int>(i);
      }
    occ_ct_ = occ_dtm_ = occ_dtp_ = 0;
    if (occupant0_ >= 0) {
      const AppState& o = base_[static_cast<size_t>(occupant0_)];
      occ_ct_ = o.elapsed - o.wt_grant;
      occ_dtm_ = apps_[static_cast<size_t>(occupant0_)].t_minus[o.wt_grant];
      occ_dtp_ = apps_[static_cast<size_t>(occupant0_)].t_plus[o.wt_grant];
      TTDIM_CHECK(occ_ct_ >= 0 && occ_ct_ <= occ_dtp_);
    }
    base_waiters_ = 0;
    for (size_t i = 0; i < napps_; ++i)
      if (base_[i].loc == kWait) ++base_waiters_;

    // ---- Phase 2 setup: which apps can be disturbed. --------------------
    steady_.clear();
    for (size_t i = 0; i < napps_; ++i) {
      if (base_[i].loc != kSteady) continue;
      if (bounded_ &&
          base_[i].dist_count >=
              static_cast<uint8_t>(options_.max_disturbances_per_app))
        continue;
      steady_.push_back(i);
    }
    if (steady_.size() > kMaxSteadyBranching)
      throw std::runtime_error(
          "DiscreteVerifier: disturbance branching too wide (" +
          std::to_string(steady_.size()) +
          " simultaneously disturbable applications)");

    // Subsets that disturb no appended application map a seeded state to
    // another seeded state (the prefix is closed under its own
    // transitions), so re-expanding a seed only needs the branches that
    // involve an appended app. Skipping the rest emits nothing new by
    // construction — the skipped successors are already in the visited
    // set — and leaves the discovery order of genuinely new states
    // untouched.
    size_t appended_mask = 0;
    if (seed_pop)
      for (size_t b = 0; b < steady_.size(); ++b)
        if (steady_[b] >= prefix_napps) appended_mask |= size_t{1} << b;

    if constexpr (Record) {
      expand_generic<true>(appended_mask, seed_pop, sink);
    } else if (options_.policy == SlotPolicy::kSlackAware) {
      expand_generic<false>(appended_mask, seed_pop, sink);
    } else {
      expand_fast(appended_mask, seed_pop, sink);
    }
    return true;
  }

 private:
  // Phases 2–4 over full AppState copies: the reference expansion, kept
  // for witness recording (action strings, tick contents — a handful of
  // heap allocations per successor) and for the slack-aware policy.
  template <bool Record, typename Sink>
  void expand_generic(size_t appended_mask, bool seed_pop, Sink&& sink) {
    const size_t subsets = size_t{1} << steady_.size();
    for (size_t mask = 0; mask < subsets; ++mask) {
      if (seed_pop && (mask & appended_mask) == 0) continue;
      s_ = base_;
      std::string action;
      if (Record) action = "tick";
      WitnessTick tick;
      for (size_t b = 0; b < steady_.size(); ++b) {
        if (!(mask & (size_t{1} << b))) continue;
        AppState& a = s_[steady_[b]];
        a.loc = kWait;
        a.elapsed = 0;
        if (bounded_) ++a.dist_count;
        if (Record) {
          action += " disturb(" + apps_[steady_[b]].name + ")";
          tick.disturbed.push_back(static_cast<int>(steady_[b]));
        }
      }

      // ---- Phase 3: slot occupant bookkeeping. --------------------------
      int occupant = occupant0_;
      // Waiters in s = waiters surviving phase 1 + the just-disturbed.
      const bool any_waiter =
          base_waiters_ + std::bitset<64>(mask).count() > 0;
      auto leave_slot = [&](size_t i, const char* why) {
        AppState& a = s_[i];
        if (a.elapsed >= apps_[i].min_interarrival) {
          a.loc = kSteady;
          a.elapsed = 0;
        } else {
          a.loc = kSafe;
        }
        a.wt_grant = 0;
        if (Record)
          action += std::string(" ") + why + "(" + apps_[i].name + ")";
      };
      if (occupant >= 0) {
        if (occ_ct_ == occ_dtp_) {
          leave_slot(static_cast<size_t>(occupant), "evict");
          occupant = -1;
        } else if (occ_ct_ >= occ_dtm_ && any_waiter) {
          bool preempt = true;
          if (options_.policy == SlotPolicy::kSlackAware) {
            waiters_.clear();
            for (size_t i = 0; i < napps_; ++i)
              if (s_[i].loc == kWait)
                waiters_.push_back({static_cast<int>(i), s_[i].elapsed});
            preempt = !preemption_postponable(apps_, waiters_, occupant);
          }
          if (preempt) {
            leave_slot(static_cast<size_t>(occupant), "preempt");
            occupant = -1;
          }
        }
      }

      // ---- Phase 4: grant (EDF on remaining deadline, ties explored). ---
      if (occupant < 0) {
        int best_remaining = INT32_MAX;
        candidates_.clear();
        for (size_t i = 0; i < napps_; ++i) {
          if (s_[i].loc != kWait) continue;
          const int remaining = apps_[i].t_star_w - s_[i].elapsed;
          TTDIM_CHECK(remaining >= 0);
          if (remaining < best_remaining) {
            best_remaining = remaining;
            candidates_.clear();
            candidates_.push_back(i);
          } else if (remaining == best_remaining) {
            candidates_.push_back(i);
          }
        }
        if (!candidates_.empty()) {
          for (size_t c : candidates_) {
            granted_ = s_;
            granted_[c].loc = kTt;
            granted_[c].wt_grant = granted_[c].elapsed;
            if constexpr (Record) {
              WitnessTick grant_tick = tick;
              grant_tick.granted = static_cast<int>(c);
              sink(encode<Shape>(granted_, napps_),
                   action + " grant(" + apps_[c].name +
                       ",Tw=" + std::to_string(granted_[c].elapsed) + ")",
                   std::move(grant_tick));
            } else {
              sink(encode<Shape>(granted_, napps_));
            }
          }
          continue;  // grant branches cover this subset
        }
      }
      if constexpr (Record) {
        sink(encode<Shape>(s_, napps_), action, std::move(tick));
      } else {
        sink(encode<Shape>(s_, napps_));
      }
    }
  }

  // Phases 2–4 straight over the packed key bytes (kPaper, no witness).
  template <typename Sink>
  void expand_fast(size_t appended_mask, bool seed_pop, Sink&& sink) {
    base_key_ = encode<Shape>(base_, napps_);

    // Hoisted per-pop constants. Base waiters are gathered in ascending
    // app index with their remaining deadlines; a freshly disturbed app's
    // remaining deadline is its full T*w (elapsed resets to 0).
    bw_idx_.clear();
    bw_rem_.clear();
    int base_best = INT32_MAX;
    for (size_t i = 0; i < napps_; ++i) {
      if (base_[i].loc != kWait) continue;
      const int remaining = apps_[i].t_star_w - base_[i].elapsed;
      TTDIM_CHECK(remaining >= 0);
      bw_idx_.push_back(i);
      bw_rem_.push_back(remaining);
      base_best = std::min(base_best, remaining);
    }
    dist_rem_.clear();
    disturb_b0_.clear();  // disturbed mode byte: kWait + bumped budget
    for (size_t b = 0; b < steady_.size(); ++b) {
      const size_t i = steady_[b];
      dist_rem_.push_back(apps_[i].t_star_w);
      const uint8_t dist =
          static_cast<uint8_t>(base_[i].dist_count + (bounded_ ? 1 : 0));
      disturb_b0_.push_back(static_cast<uint8_t>(kWait | (dist << 2)));
    }

    // The occupant's fate is subset-invariant except through "is any
    // waiter present": eviction always fires, preemption fires iff a
    // waiter exists (kPaper never postpones). Its leave bytes are a
    // constant triple.
    bool evict = false;
    bool preempt_on_waiter = false;
    uint8_t leave_b0 = 0;
    uint8_t leave_b1 = 0;
    if (occupant0_ >= 0) {
      const size_t o = static_cast<size_t>(occupant0_);
      evict = occ_ct_ == occ_dtp_;
      preempt_on_waiter = !evict && occ_ct_ >= occ_dtm_;
      const AppState& ost = base_[o];
      if (ost.elapsed >= apps_[o].min_interarrival) {
        leave_b0 = static_cast<uint8_t>(kSteady | (ost.dist_count << 2));
        leave_b1 = 0;
      } else {
        leave_b0 = static_cast<uint8_t>(kSafe | (ost.dist_count << 2));
        leave_b1 = ost.elapsed;
      }
    }

    const size_t subsets = size_t{1} << steady_.size();
    for (size_t mask = 0; mask < subsets; ++mask) {
      if (seed_pop && (mask & appended_mask) == 0) continue;
      out_key_ = base_key_;  // word-level copy of the packed encoding
      uint8_t* b = out_key_.data();
      for (size_t bits = mask; bits != 0; bits &= bits - 1) {
        const size_t bi = ctz(bits);
        const size_t app = steady_[bi];
        b[3 * app] = disturb_b0_[bi];
        b[3 * app + 1] = 0;  // wt_grant byte is already 0 for steady apps
      }

      const bool any_waiter = !bw_idx_.empty() || mask != 0;
      bool slot_free = occupant0_ < 0;
      if (!slot_free && (evict || (preempt_on_waiter && any_waiter))) {
        uint8_t* ob = b + 3 * static_cast<size_t>(occupant0_);
        ob[0] = leave_b0;
        ob[1] = leave_b1;
        ob[2] = 0;
        slot_free = true;
      }

      if (slot_free) {
        int best = base_best;
        for (size_t bits = mask; bits != 0; bits &= bits - 1)
          best = std::min(best, dist_rem_[ctz(bits)]);
        if (best != INT32_MAX) {
          // Tie candidates in ascending app index — the exact order the
          // reference scan produces — by merging the two sorted waiter
          // streams (base waiters and this subset's fresh waiters are
          // disjoint).
          size_t wi = 0;
          size_t bits = mask;
          while (wi < bw_idx_.size() || bits != 0) {
            const size_t app_w = wi < bw_idx_.size() ? bw_idx_[wi] : SIZE_MAX;
            const size_t bi = bits != 0 ? ctz(bits) : 0;
            const size_t app_d = bits != 0 ? steady_[bi] : SIZE_MAX;
            size_t app;
            int remaining;
            if (app_w < app_d) {
              app = app_w;
              remaining = bw_rem_[wi];
              ++wi;
            } else {
              app = app_d;
              remaining = dist_rem_[bi];
              bits &= bits - 1;
            }
            if (remaining != best) continue;
            grant_key_ = out_key_;
            uint8_t* gb = grant_key_.data() + 3 * app;
            gb[0] = static_cast<uint8_t>((gb[0] & ~0x03) | kTt);
            gb[2] = gb[1];  // wt_grant := elapsed at grant time
            sink(std::move(grant_key_));
          }
          continue;  // grant branches cover this subset
        }
      }
      sink(Key(out_key_));
    }
  }

  const std::vector<AppTiming>& apps_;
  const DiscreteVerifier::Options& options_;
  const size_t napps_;
  const bool bounded_;

  // Post-elapse facts of the state being expanded.
  State base_;
  int occupant0_ = -1;
  int occ_ct_ = 0;
  int occ_dtm_ = 0;
  int occ_dtp_ = 0;
  size_t base_waiters_ = 0;
  std::vector<size_t> steady_;

  // Generic-path scratch.
  State s_;
  State granted_;
  std::vector<size_t> candidates_;
  std::vector<WaiterView> waiters_;

  // Fast-path scratch.
  Key base_key_;
  Key out_key_;
  Key grant_key_;
  std::vector<size_t> bw_idx_;
  std::vector<int> bw_rem_;
  std::vector<int> dist_rem_;
  std::vector<uint8_t> disturb_b0_;
};

/// Batched dedup: successors are hashed at emission and flushed
/// kProbeBlock at a time; new keys append to `out`. Over one VisitedSet
/// (`ordered`) a flush reserves room once, prefetches every home slot,
/// then inserts in emission order, so batching only hides the probes'
/// memory latency. Over the `striped` set a flush locks each stripe once
/// for its candidates, so order follows the stripes.
template <typename Key>
struct ProbeBatch {
  using Striped = detail::StripedVisitedSet<Key>;
  VisitedSet<Key>* ordered = nullptr;
  Striped* striped = nullptr;
  std::vector<Key>* out = nullptr;
  std::array<std::vector<Probe<Key>>, Striped::kNumStripes> buckets;
  size_t pending = 0;

  void operator()(Key&& key) {
    const size_t hash = VisitedSet<Key>::hash_of(key);
    buckets[ordered != nullptr ? 0 : Striped::stripe_index(hash)].push_back(
        Probe<Key>{hash, std::move(key)});
    if (++pending >= kProbeBlock) flush();
  }

  void flush() {
    if (pending == 0) return;
    pending = 0;
    if (ordered != nullptr) {
      std::vector<Probe<Key>>& block = buckets[0];
      ordered->ensure_room(block.size());
      for (const Probe<Key>& p : block) ordered->prefetch(p.hash);
      for (Probe<Key>& p : block)
        if (ordered->insert_hashed(p.hash, p.key))
          out->push_back(std::move(p.key));
      block.clear();
      return;
    }
    for (size_t si = 0; si < Striped::kNumStripes; ++si) {
      std::vector<Probe<Key>>& bucket = buckets[si];
      if (bucket.empty()) continue;
      typename Striped::Stripe& stripe = striped->stripe_at(si);
      support::MutexLock lock(stripe.mu);
      striped->reserve_in_stripe(stripe, bucket.size());
      for (Probe<Key>& p : bucket)
        if (striped->insert_in_stripe(stripe, p.hash, p.key))
          out->push_back(std::move(p.key));
      bucket.clear();
    }
  }
};

/// Witness bookkeeping: a state's first discoverer, with the tick's
/// description and structured content.
template <typename Key>
struct Parenthood {
  Key from;
  std::string action;
  WitnessTick tick;
};
template <typename Key>
using Parents = std::unordered_map<Key, Parenthood<Key>, KeyHash<Key>>;

/// Fills the witness of `leaf`, the state whose expansion reached Error
/// by `final_action`, by walking its discoverers back to `init_key`.
template <typename Key>
void fill_witness(const Parents<Key>& parents, const Key& leaf,
                  const std::string& final_action, const Key& init_key,
                  SlotVerdict& verdict) {
  verdict.witness = {final_action};
  for (Key cur = leaf; cur != init_key;) {
    const auto it = parents.find(cur);
    if (it == parents.end()) break;
    verdict.witness.push_back(it->second.action);
    verdict.witness_ticks.push_back(it->second.tick);
    cur = it->second.from;
  }
  verdict.witness.push_back("all applications steady");
  std::reverse(verdict.witness.begin(), verdict.witness.end());
  std::reverse(verdict.witness_ticks.begin(), verdict.witness_ticks.end());
}

/// Level-synchronous breadth-first search (Leiserson & Schardl, "A
/// work-efficient parallel breadth-first search algorithm", SPAA 2010),
/// the driver of every breadth-first query at every thread count. Level
/// 0 is the initial state or a prefix snapshot's records; each level is
/// expanded in chunks on engine::Executor. `log` holds the levels back to
/// back: the discovery order, and the snapshot a safe run captures.
///
/// At one thread, and for witness queries, chunks run in order and
/// insert into one VisitedSet in emission order: exactly a FIFO queue's
/// discovery order, unsafe verdicts and witnesses included. With more
/// threads chunks run concurrently over the striped set. Exact dedup
/// keeps each level's set of states, hence safe verdicts and snapshots'
/// record sets, independent of the thread count; an unsafe proof may
/// meet a different violation first. max_states is charged once per
/// expanded state (the FIFO pop-count rule), and a violation found in
/// the same level wins over a concurrent budget trip (the sounder
/// answer).
template <typename Shape>
SlotVerdict run_breadth_first(const std::vector<AppTiming>& apps,
                              const DiscreteVerifier::Options& options,
                              const ExplorationState* extend_from,
                              ExplorationState* capture) {
  using Key = typename Shape::Key;
  const size_t napps = apps.size();
  const int threads =
      options.want_witness ? 1 : std::max(1, options.proof_threads);

  // Exactly one of the two is allocated.
  using Striped = detail::StripedVisitedSet<Key>;
  const auto visited =
      threads == 1 ? std::make_unique<VisitedSet<Key>>() : nullptr;
  const auto striped = threads == 1 ? nullptr : std::make_unique<Striped>();
  const auto insert = [&](const Key& k) {
    return visited ? visited->insert(k)
                   : striped->insert(VisitedSet<Key>::hash_of(k), k);
  };

  std::vector<Key> log;
  size_t prefix_napps = 0;
  const Key init_key = encode<Shape>(Shape::blank(napps), napps);
  if (extend_from != nullptr) {
    const ExplorationState& base = *extend_from;
    // Soundness invariants of "appending is conservative" (discrete.h):
    // a strict prefix of this population, at least one record, whole
    // records only, and the prefix run's own initial state leading the
    // discovery order (the true initial state must be among the seeds).
    TTDIM_EXPECTS(base.napps >= 1 && base.napps < napps);
    const size_t stride = 3 * base.napps;
    TTDIM_EXPECTS(!base.packed.empty() && base.packed.size() % stride == 0);
    for (size_t i = 0; i < stride; ++i) TTDIM_EXPECTS(base.packed[i] == 0);
    prefix_napps = base.napps;
    const size_t seeds = base.packed.size() / stride;
    if (visited) visited->reserve(seeds);
    log.reserve(seeds);
    for (size_t r = 0; r < seeds; ++r) {
      Key k = Shape::make_key(3 * napps);
      std::memcpy(k.data(), base.packed.data() + r * stride, stride);
      // Appended applications start steady == all-zero record bytes, so
      // zero-extension *is* the embedding of the prefix state.
      TTDIM_CHECK(insert(k));  // prefix snapshot holds no duplicates
      log.push_back(std::move(k));
    }
  } else {
    insert(init_key);
    log.push_back(init_key);
  }

  // Chunk scratch, kept across levels: chunk c of every level runs on
  // lanes[c], and the one-table block is reserved up front. Small blocks
  // allocated and regrown between the log's and the table's regrowth
  // raised peak RSS by 5-12 MB.
  struct Lane {
    Expander<Shape> expander;
    ProbeBatch<Key> batch;
    std::vector<Key> next;  ///< the chunk's new keys (striped dedup)
  };
  std::deque<Lane> lanes;

  Parents<Key> parents;
  std::atomic<long> expanded{0};
  std::atomic<bool> over_budget{false};
  std::atomic<int> violator{-1};
  size_t leaf = 0;  // log index of the state that reached Error
  std::string leaf_action;
  engine::Executor& executor = engine::Executor::global();
  for (size_t begin = 0, end = log.size(); begin < end && violator < 0;
       begin = end, end = log.size()) {
    // Level 0 of an extension re-expands the seeds (Expander::expand).
    const bool seed_level = begin == 0 && extend_from != nullptr;
    const long level_size = static_cast<long>(end - begin);
    const size_t chunks = static_cast<size_t>(
        engine::Executor::chunk_count(threads, level_size, kParallelGrain));
    while (lanes.size() < chunks) {
      lanes.push_back({Expander<Shape>(apps, options),
                       ProbeBatch<Key>{visited.get(), striped.get(), nullptr,
                                       {}, 0},
                       {}});
      if (visited) lanes.back().batch.buckets[0].reserve(kProbeBlock);
    }
    executor.run_chunks(
        threads, level_size, kParallelGrain,
        [&](int chunk, long lo, long hi) {
          Lane& lane = lanes[static_cast<size_t>(chunk)];
          // Over one table the chunks run one after another and append
          // straight to the log, exactly as a FIFO queue would.
          std::vector<Key>& out = visited ? log : lane.next;
          lane.batch.out = &out;
          Key cur;
          // Witness queries insert per emission, so parenthood is
          // recorded exactly for the keys that are new.
          auto record = [&](Key&& key, const std::string& action,
                            WitnessTick&& tick) {
            if (!visited->insert(key)) return;
            parents.emplace(key,
                            Parenthood<Key>{cur, action, std::move(tick)});
            out.push_back(std::move(key));
          };
          typename Expander<Shape>::Violation violation;
          for (long i = lo; i < hi; ++i) {
            if (violator.load(std::memory_order_relaxed) >= 0 ||
                over_budget.load(std::memory_order_relaxed))
              return;  // another chunk already decided the proof's fate
            if (expanded.fetch_add(1, std::memory_order_relaxed) >=
                options.max_states) {
              over_budget.store(true, std::memory_order_relaxed);
              return;
            }
            cur = log[begin + static_cast<size_t>(i)];  // appends move the log
            const bool ok =
                options.want_witness
                    ? lane.expander.template expand<true>(
                          cur, seed_level, prefix_napps, violation, record)
                    : lane.expander.template expand<false>(
                          cur, seed_level, prefix_napps, violation,
                          lane.batch);
            if (!ok) {
              int none = -1;
              if (violator.compare_exchange_strong(
                      none, violation.violator, std::memory_order_relaxed)) {
                leaf = begin + static_cast<size_t>(i);
                leaf_action = std::move(violation.action);
              }
              return;
            }
          }
          lane.batch.flush();
        });
    // run_chunks is a barrier (the Executor joins every chunk), so plain
    // reads observe everything the chunks wrote.
    if (over_budget.load() && violator.load() < 0)
      throw std::runtime_error("DiscreteVerifier: state budget exhausted");
    for (Lane& lane : lanes) {
      log.insert(log.end(), std::make_move_iterator(lane.next.begin()),
                 std::make_move_iterator(lane.next.end()));
      lane.next.clear();
    }
  }

  SlotVerdict verdict;
  verdict.violator = violator.load();
  verdict.safe = verdict.violator < 0;
  verdict.states_explored = expanded.load();
  if (!verdict.safe && options.want_witness)
    fill_witness(parents, log[leaf], leaf_action, init_key, verdict);
  if (verdict.safe && capture != nullptr) {
    // Safe == every level expanded == the log is the full reachable set.
    capture->napps = napps;
    capture->packed.clear();
    capture->packed.reserve(log.size() * 3 * napps);
    for (const Key& k : log)
      capture->packed.insert(capture->packed.end(), k.data(),
                             k.data() + 3 * napps);
  }
  return verdict;
}

/// Depth-first search, the oracle's refutation dive: a stack walk on the
/// calling thread (proof_threads does not apply). Successors are pushed
/// in emission order and the newest is popped first, so the walk plunges
/// into the simultaneous-disturbance branches.
template <typename Shape>
SlotVerdict run_depth_first(const std::vector<AppTiming>& apps,
                            const DiscreteVerifier::Options& options) {
  using Key = typename Shape::Key;
  const Key init_key = encode<Shape>(Shape::blank(apps.size()), apps.size());
  VisitedSet<Key> visited;
  visited.insert(init_key);
  std::vector<Key> stack{init_key};
  ProbeBatch<Key> batch{&visited, nullptr, &stack, {}, 0};
  batch.buckets[0].reserve(kProbeBlock);
  Parents<Key> parents;
  Key cur;
  auto record = [&](Key&& key, const std::string& action,
                    WitnessTick&& tick) {
    if (!visited.insert(key)) return;
    parents.emplace(key, Parenthood<Key>{cur, action, std::move(tick)});
    stack.push_back(std::move(key));
  };
  Expander<Shape> expander(apps, options);
  typename Expander<Shape>::Violation violation;
  SlotVerdict verdict;
  while (!stack.empty()) {
    cur = std::move(stack.back());
    stack.pop_back();
    if (++verdict.states_explored > options.max_states)
      throw std::runtime_error("DiscreteVerifier: state budget exhausted");
    const bool ok =
        options.want_witness
            ? expander.template expand<true>(cur, false, 0, violation, record)
            : expander.template expand<false>(cur, false, 0, violation,
                                              batch);
    if (!ok) {
      verdict.violator = violation.violator;
      if (options.want_witness)
        fill_witness(parents, cur, violation.action, init_key, verdict);
      return verdict;
    }
    batch.flush();  // the next pop takes the newest successor
  }
  verdict.safe = true;
  return verdict;
}

}  // namespace

DiscreteVerifier::DiscreteVerifier(std::vector<AppTiming> apps)
    : apps_(std::move(apps)) {
  TTDIM_EXPECTS(!apps_.empty());
  if (apps_.size() > kMaxAppsUnpacked)
    throw std::invalid_argument(
        "DiscreteVerifier: " + std::to_string(apps_.size()) +
        " applications in one slot exceeds the supported maximum of " +
        std::to_string(kMaxAppsUnpacked) +
        " (the search explores 2^napps disturbance subsets per state and "
        "is intractable long before this bound)");
  for (const AppTiming& a : apps_) {
    a.validate();
    TTDIM_EXPECTS(a.min_interarrival < kInterarrivalLimit);
    TTDIM_EXPECTS(a.t_star_w + a.t_plus[static_cast<size_t>(a.t_star_w)] <
                  kInterarrivalLimit);
  }
}

SlotVerdict DiscreteVerifier::verify(const Options& options) const {
  return verify(options, nullptr, nullptr);
}

SlotVerdict DiscreteVerifier::verify(const Options& options,
                                     const ExplorationState* extend_from,
                                     ExplorationState* capture) const {
  // Seeds carry no parenthood, and a stack walk keeps no discovery log.
  if (extend_from != nullptr)
    TTDIM_EXPECTS(!options.depth_first && !options.want_witness);
  if (capture != nullptr) TTDIM_EXPECTS(!options.depth_first);
  TTDIM_EXPECTS(options.max_disturbances_per_app <= kMaxDisturbanceBudget);
  const auto run = [&](auto shape) {
    using Shape = decltype(shape);
    return options.depth_first
               ? run_depth_first<Shape>(apps_, options)
               : run_breadth_first<Shape>(apps_, options, extend_from,
                                          capture);
  };
  const size_t napps = apps_.size();
  if (options.backend == StateBackend::kUnpacked || napps > kMaxApps)
    return run(HeapShape{});
  if (3 * napps <= 16) return run(PackedShape<16>{});
  return run(PackedShape<48>{});
}

void encode(support::codec::Encoder& enc, const SlotVerdict& verdict) {
  enc.u8(verdict.safe ? 1 : 0);
  enc.i64(verdict.states_explored);
  enc.u32(static_cast<std::uint32_t>(verdict.witness.size()));
  for (const std::string& line : verdict.witness) enc.str(line);
  enc.u32(static_cast<std::uint32_t>(verdict.witness_ticks.size()));
  for (const WitnessTick& tick : verdict.witness_ticks) {
    enc.ints(tick.disturbed);
    enc.i32(tick.granted);
  }
  enc.i32(verdict.violator);
}

bool decode(support::codec::Decoder& dec, SlotVerdict& verdict) {
  verdict = SlotVerdict{};
  std::uint8_t safe = 0;
  if (!dec.u8(safe) || safe > 1) return false;
  verdict.safe = safe != 0;
  std::int64_t states = 0;
  if (!dec.i64(states)) return false;
  verdict.states_explored = static_cast<long>(states);
  std::uint32_t nwitness = 0;
  if (!dec.u32(nwitness) || nwitness > dec.remaining() / 4) return false;
  verdict.witness.resize(nwitness);
  for (std::string& line : verdict.witness)
    if (!dec.str(line)) return false;
  std::uint32_t nticks = 0;
  if (!dec.u32(nticks) || nticks > dec.remaining() / 8) return false;
  verdict.witness_ticks.resize(nticks);
  for (WitnessTick& tick : verdict.witness_ticks)
    if (!dec.ints(tick.disturbed) || !dec.i32(tick.granted)) return false;
  return dec.i32(verdict.violator);
}

}  // namespace ttdim::verify
