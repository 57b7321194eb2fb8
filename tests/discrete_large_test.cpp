// DiscreteVerifier beyond the packed cap and across state backends: >16
// applications must solve (heap fallback) instead of throwing, the packed
// and unpacked encodings must be observably identical, and the
// prefix-extension entry point must reproduce from-scratch results
// byte-for-byte on safe configurations — the invariant the incremental
// admission oracle rests on.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"
#include "verify/app_timing.h"
#include "verify/discrete.h"

namespace ttdim::verify {
namespace {

AppTiming uniform_app(const std::string& name, int t_star, int t_minus,
                      int t_plus, int r) {
  AppTiming a;
  a.name = name;
  a.t_star_w = t_star;
  a.t_minus.assign(static_cast<size_t>(t_star) + 1, t_minus);
  a.t_plus.assign(static_cast<size_t>(t_star) + 1, t_plus);
  a.min_interarrival = r;
  return a;
}

std::vector<AppTiming> clones(int n, int t_star, int t_minus, int t_plus,
                              int r) {
  std::vector<AppTiming> apps;
  for (int i = 0; i < n; ++i)
    apps.push_back(
        uniform_app("L" + std::to_string(i), t_star, t_minus, t_plus, r));
  return apps;
}

// ------------------------------------------------- beyond the packed cap --

TEST(DiscreteLarge, SeventeenAppsVerifyInsteadOfThrowing) {
  // One more app than the packed representation holds. A slot shared by
  // 17 tight-deadline apps is hopeless, and the depth-first dive finds
  // the violation without enumerating the full breadth of 2^17
  // disturbance subsets per level. Distinct T*w values keep the EDF grant
  // unambiguous, so the all-disturbed branch stays narrow.
  std::vector<AppTiming> apps;
  for (int i = 0; i < 17; ++i)
    apps.push_back(
        uniform_app("L" + std::to_string(i), 1 + (i % 4), 1, 1, 8));
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options options;
  options.depth_first = true;
  const SlotVerdict verdict = verifier.verify(options);
  EXPECT_FALSE(verdict.safe);
  EXPECT_GE(verdict.violator, 0);
}

TEST(DiscreteLarge, SeventeenAppsSafeUnderZeroDisturbanceBudget) {
  // Degenerate but exercises the full heap search path to a safe verdict:
  // with no disturbances allowed the reachable set is the initial state.
  const std::vector<AppTiming> apps = clones(17, 1, 1, 1, 3);
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options options;
  options.max_disturbances_per_app = 0;
  const SlotVerdict verdict = verifier.verify(options);
  EXPECT_TRUE(verdict.safe);
  EXPECT_EQ(verdict.states_explored, 1);
}

TEST(DiscreteLarge, AbsoluteCapStillRefuses) {
  EXPECT_THROW(DiscreteVerifier(clones(
                   static_cast<int>(DiscreteVerifier::kMaxAppsUnpacked) + 1, 1,
                   1, 1, 3)),
               std::invalid_argument);
}

// ----------------------------------------------------- backend equality --

TEST(DiscreteLarge, UnpackedBackendMatchesPackedVerdicts) {
  // Same configurations through the packed tiers and the forced heap
  // fallback: verdicts (including witnesses) must be indistinguishable.
  const std::vector<std::vector<AppTiming>> configs = {
      {uniform_app("A", 3, 2, 4, 10)},
      {uniform_app("A", 3, 2, 4, 10), uniform_app("B", 5, 1, 2, 9)},
      // Unsafe triple (same as the oracle tests): two back-to-back TT
      // episodes outlast the third app's T*w.
      {uniform_app("A", 2, 2, 2, 7), uniform_app("B", 2, 2, 2, 7),
       uniform_app("C", 2, 2, 2, 7)},
      // Six apps lands in the wide packed tier; bounded to stay quick.
      clones(6, 2, 1, 2, 6),
  };
  for (size_t c = 0; c < configs.size(); ++c) {
    const DiscreteVerifier verifier(configs[c]);
    for (const bool witness : {false, true}) {
      DiscreteVerifier::Options packed;
      packed.want_witness = witness;
      if (configs[c].size() >= 6) packed.max_disturbances_per_app = 1;
      DiscreteVerifier::Options unpacked = packed;
      unpacked.backend = DiscreteVerifier::StateBackend::kUnpacked;
      EXPECT_EQ(verifier.verify(packed), verifier.verify(unpacked))
          << "config " << c << " witness " << witness;
    }
  }
}

// ------------------------------------------------------ prefix extension --

TEST(DiscreteLarge, ExtensionFromCapturedPrefixIsByteIdentical) {
  // Grow a slot one app at a time, as a first-fit walk does. At every
  // step, the verdict of the seeded extension must equal the from-scratch
  // verdict byte-for-byte (safe proofs count exactly the reachable set
  // regardless of seeding), and the captured snapshot must chain.
  const std::vector<AppTiming> all = {uniform_app("A", 3, 2, 4, 10),
                                      uniform_app("B", 5, 1, 2, 9),
                                      uniform_app("C", 4, 2, 2, 8)};
  const DiscreteVerifier::Options options;
  ExplorationState prev;
  for (size_t n = 1; n <= all.size(); ++n) {
    const std::vector<AppTiming> apps(all.begin(),
                                      all.begin() + static_cast<long>(n));
    const DiscreteVerifier verifier(apps);
    const SlotVerdict scratch = verifier.verify(options);
    ASSERT_TRUE(scratch.safe) << n;

    ExplorationState captured;
    const SlotVerdict extended = verifier.verify(
        options, n == 1 ? nullptr : &prev, &captured);
    EXPECT_EQ(extended, scratch) << n;
    EXPECT_EQ(captured.napps, n);
    EXPECT_EQ(captured.state_count(),
              static_cast<size_t>(scratch.states_explored));
    // First record is the all-steady initial state — the invariant the
    // next extension asserts before seeding.
    for (size_t b = 0; b < 3 * n; ++b) EXPECT_EQ(captured.packed[b], 0) << b;
    prev = std::move(captured);
  }
}

TEST(DiscreteLarge, ExtensionAgreesOnUnsafeConfigs) {
  // Unsafe extensions agree on the admission answer; the violation found
  // may differ (documented — unsafe verdicts are never cached).
  const std::vector<AppTiming> pair = {uniform_app("A", 2, 2, 2, 7),
                                       uniform_app("B", 2, 2, 2, 7)};
  const std::vector<AppTiming> triple = {uniform_app("A", 2, 2, 2, 7),
                                         uniform_app("B", 2, 2, 2, 7),
                                         uniform_app("C", 2, 2, 2, 7)};
  const DiscreteVerifier::Options options;
  ExplorationState snapshot;
  const SlotVerdict safe_pair =
      DiscreteVerifier(pair).verify(options, nullptr, &snapshot);
  ASSERT_TRUE(safe_pair.safe);
  const DiscreteVerifier verifier(triple);
  EXPECT_FALSE(verifier.verify(options).safe);
  EXPECT_FALSE(verifier.verify(options, &snapshot, nullptr).safe);
}

TEST(DiscreteLarge, ExtensionRejectsWitnessAndDepthFirst) {
  const std::vector<AppTiming> pair = {uniform_app("A", 3, 2, 4, 10),
                                       uniform_app("B", 5, 1, 2, 9)};
  ExplorationState snapshot;
  const DiscreteVerifier::Options options;
  ASSERT_TRUE(DiscreteVerifier({pair[0]})
                  .verify(options, nullptr, &snapshot)
                  .safe);
  const DiscreteVerifier verifier(pair);
  DiscreteVerifier::Options witness;
  witness.want_witness = true;
  EXPECT_THROW(static_cast<void>(verifier.verify(witness, &snapshot, nullptr)),
               std::logic_error);
  DiscreteVerifier::Options dfs;
  dfs.depth_first = true;
  EXPECT_THROW(static_cast<void>(verifier.verify(dfs, &snapshot, nullptr)),
               std::logic_error);
  ExplorationState capture;
  EXPECT_THROW(static_cast<void>(verifier.verify(dfs, nullptr, &capture)),
               std::logic_error);
}

// -------------------------------------------------------- parallel proofs --

TEST(DiscreteLarge, ParallelMatchesSerialOnSafeConfigs) {
  // Completed safe proofs: the parallel driver promises full structural
  // verdict equality with serial at any thread count — same safe flag and
  // the same states_explored, because level-synchronous exact dedup makes
  // the count the (order-independent) reachable-set size. Checked across
  // both packed tiers and the forced heap fallback, at 2 and 8 threads
  // (8 on a small box exercises chunk counts far above the worker count).
  struct Config {
    std::vector<AppTiming> apps;
    int bound;
  };
  const std::vector<Config> configs = {
      {clones(3, 4, 1, 1, 9), 2},  // SmallKey<16> tier
      {clones(4, 4, 1, 1, 8), 2},  // SmallKey<16> tier, ~150k states
      {clones(5, 4, 1, 1, 8), 1},  // SmallKey<48> tier, ~123k states
  };
  for (size_t c = 0; c < configs.size(); ++c) {
    const DiscreteVerifier verifier(configs[c].apps);
    DiscreteVerifier::Options serial;
    serial.max_disturbances_per_app = configs[c].bound;
    const SlotVerdict reference = verifier.verify(serial);
    ASSERT_TRUE(reference.safe) << c;
    for (const int threads : {2, 8}) {
      for (const bool unpacked : {false, true}) {
        DiscreteVerifier::Options parallel = serial;
        parallel.proof_threads = threads;
        if (unpacked)
          parallel.backend = DiscreteVerifier::StateBackend::kUnpacked;
        EXPECT_EQ(verifier.verify(parallel), reference)
            << "config " << c << " threads " << threads << " unpacked "
            << unpacked;
      }
    }
  }
}

TEST(DiscreteLarge, ParallelAgreesOnUnsafeConfigs) {
  // Unsafe verdicts agree on `safe` and report a real violator; the
  // violation found (and the states charged on the way) may differ —
  // exactly like depth-first vs breadth-first, and documented as such.
  const std::vector<AppTiming> apps = clones(5, 3, 1, 1, 8);
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options serial;
  serial.max_disturbances_per_app = 1;
  ASSERT_FALSE(verifier.verify(serial).safe);
  for (const int threads : {2, 8}) {
    DiscreteVerifier::Options parallel = serial;
    parallel.proof_threads = threads;
    const SlotVerdict verdict = verifier.verify(parallel);
    EXPECT_FALSE(verdict.safe) << threads;
    EXPECT_GE(verdict.violator, 0) << threads;
    EXPECT_LT(verdict.violator, static_cast<int>(apps.size())) << threads;
  }
}

TEST(DiscreteLarge, ParallelBudgetExhaustionParity) {
  // max_states runs through a shared atomic budget with the serial
  // charging rule (one unit per expanded state), so for a safe proof the
  // throw fires at exactly the same budget serial fires it: the full
  // reachable set fits, one state fewer throws — at every thread count.
  const std::vector<AppTiming> apps = clones(4, 4, 1, 1, 8);
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options exact;
  exact.max_disturbances_per_app = 1;
  const SlotVerdict reference = verifier.verify(exact);
  ASSERT_TRUE(reference.safe);
  exact.max_states = reference.states_explored;
  DiscreteVerifier::Options starved = exact;
  starved.max_states = reference.states_explored - 1;
  for (const int threads : {1, 2, 8}) {
    exact.proof_threads = threads;
    starved.proof_threads = threads;
    EXPECT_EQ(verifier.verify(exact), reference) << threads;
    EXPECT_THROW(static_cast<void>(verifier.verify(starved)),
                 std::runtime_error)
        << threads;
  }
}

TEST(DiscreteLarge, ParallelHeapFallbackMatchesSerial) {
  // Past the packed cap the parallel driver runs the same heap-backed
  // shape as serial; a zero disturbance budget keeps the 17-app space to
  // its single initial state while still driving the full level loop.
  std::vector<AppTiming> apps;
  for (int i = 0; i < 17; ++i)
    apps.push_back(uniform_app("L" + std::to_string(i), 1 + (i % 4), 1, 1, 8));
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options options;
  options.max_disturbances_per_app = 0;
  const SlotVerdict reference = verifier.verify(options);
  ASSERT_TRUE(reference.safe);
  options.proof_threads = 8;
  EXPECT_EQ(verifier.verify(options), reference);
}

/// A snapshot's records, sorted: equal sets of records compare equal
/// whatever their discovery order within a level.
std::vector<std::vector<uint8_t>> record_set(const ExplorationState& s) {
  const size_t stride = 3 * s.napps;
  std::vector<std::vector<uint8_t>> records;
  for (size_t off = 0; off < s.packed.size(); off += stride)
    records.emplace_back(s.packed.begin() + static_cast<long>(off),
                         s.packed.begin() + static_cast<long>(off + stride));
  std::sort(records.begin(), records.end());
  return records;
}

TEST(DiscreteLarge, ParallelExtendsCapturesAndWitnessesLikeSerial) {
  // proof_threads changes wall time only. Prefix-seeded and capturing
  // proofs at 2 and 8 threads return serial's safe verdict, and capture
  // the same set of records (their order within a level may differ; the
  // initial state still leads). Witness and depth-first queries at 2
  // threads return serial's verdict and witness byte for byte.
  const std::vector<AppTiming> apps = clones(4, 4, 1, 1, 8);
  const std::vector<AppTiming> prefix(apps.begin(), apps.end() - 1);
  const DiscreteVerifier verifier(apps);
  DiscreteVerifier::Options serial;
  serial.max_disturbances_per_app = 1;
  ExplorationState seed;
  ASSERT_TRUE(DiscreteVerifier(prefix).verify(serial, nullptr, &seed).safe);
  ExplorationState serial_capture;
  const SlotVerdict reference =
      verifier.verify(serial, &seed, &serial_capture);
  ASSERT_TRUE(reference.safe);
  ASSERT_EQ(reference, verifier.verify(serial));
  for (const int threads : {2, 8}) {
    DiscreteVerifier::Options parallel = serial;
    parallel.proof_threads = threads;
    ExplorationState parallel_seed;
    ASSERT_TRUE(DiscreteVerifier(prefix)
                    .verify(parallel, nullptr, &parallel_seed)
                    .safe);
    EXPECT_EQ(record_set(parallel_seed), record_set(seed)) << threads;
    for (const ExplorationState* from : {&seed, &parallel_seed}) {
      ExplorationState captured;
      EXPECT_EQ(verifier.verify(parallel, from, &captured), reference)
          << threads;
      EXPECT_EQ(captured.napps, apps.size());
      EXPECT_EQ(record_set(captured), record_set(serial_capture)) << threads;
      for (size_t b = 0; b < 3 * apps.size(); ++b)
        EXPECT_EQ(captured.packed[b], 0) << b;
    }
    // A snapshot captured in parallel seeds a serial extension too.
    EXPECT_EQ(verifier.verify(serial, &parallel_seed, nullptr), reference)
        << threads;
  }

  const DiscreteVerifier unsafe({uniform_app("A", 2, 2, 2, 7),
                                 uniform_app("B", 2, 2, 2, 7),
                                 uniform_app("C", 2, 2, 2, 7)});
  DiscreteVerifier::Options witness;
  witness.want_witness = true;
  DiscreteVerifier::Options dive;
  dive.depth_first = true;
  DiscreteVerifier::Options dive_witness = dive;
  dive_witness.want_witness = true;
  for (DiscreteVerifier::Options query : {witness, dive, dive_witness}) {
    const SlotVerdict expected = unsafe.verify(query);
    ASSERT_FALSE(expected.safe);
    EXPECT_EQ(expected.witness.empty(), !query.want_witness);
    query.proof_threads = 2;
    EXPECT_EQ(unsafe.verify(query), expected)
        << query.depth_first << query.want_witness;
  }
}

}  // namespace
}  // namespace ttdim::verify
