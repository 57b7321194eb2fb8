// Edge-case suite for DimensioningSession::redimension (core/session.h)
// and the solve() façade equivalence (ISSUE 10 satellite):
//  - the façade and a session pass produce byte-identical fingerprints,
//    serial and parallel;
//  - an empty delta is the identity (byte-identical standing solution);
//  - removal-only deltas are proof-free and keep every remaining slot
//    byte-identical at the application level;
//  - remove-then-re-add round trips;
//  - a re-rate that no longer fits its slot falls back to first-fit
//    re-placement, an addition that fits nowhere opens a new slot;
//  - every redimensioned assignment passes fresh admission proofs run
//    by a from-scratch DiscreteVerifier (no session caches involved);
//  - delta validation and the no-standing-solution precondition throw.
//
// All solves use the bounded verifier (max_disturbances_per_app = 1)
// to stay inside the tier-1 budget; the conflict scenarios below were
// chosen because they are conflicts *under that bound* (the 4-app case
// study first-fit already splits C3 into its own slot).
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casestudy/apps.h"
#include "core/dimensioning.h"
#include "core/session.h"
#include "engine/fingerprint.h"
#include "verify/discrete.h"

namespace ttdim {
namespace {

core::AppSpec spec_of(const casestudy::App& app) {
  return {app.name, app.plant, app.kt,
          app.ke,   app.min_interarrival, app.settling_requirement};
}

/// First `count` case-study applications (paper order C1..C6).
std::vector<core::AppSpec> case_specs(int count) {
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  std::vector<core::AppSpec> specs;
  for (int i = 0; i < count; ++i)
    specs.push_back(spec_of(pool[static_cast<std::size_t>(i)]));
  return specs;
}

/// Bounded verification keeps each admission proof inside the tier-1
/// budget (the warm-start suites use the same bound).
core::SolveOptions base_options() {
  core::SolveOptions options;
  options.max_disturbances_per_app = 1;
  return options;
}

/// Slot memberships by application name, in slot/member order — the
/// index-free view that survives the removal renumbering.
std::vector<std::vector<std::string>> slot_names(
    const core::Solution& solution) {
  std::vector<std::vector<std::string>> names;
  for (const std::vector<int>& slot : solution.proposed.slots) {
    std::vector<std::string> members;
    for (int m : slot)
      members.push_back(solution.apps[static_cast<std::size_t>(m)].spec.name);
    names.push_back(std::move(members));
  }
  return names;
}

/// Re-prove every proposed slot with a from-scratch DiscreteVerifier
/// (same options, none of the session's caches): the redimension
/// contract is that the standing assignment always passes the proofs a
/// cold verifier would run.
void expect_fresh_proofs_pass(const core::Solution& solution,
                              const core::SolveOptions& options) {
  verify::DiscreteVerifier::Options vopt;
  vopt.max_disturbances_per_app = options.max_disturbances_per_app;
  vopt.policy = options.policy;
  for (std::size_t s = 0; s < solution.proposed.slots.size(); ++s) {
    std::vector<verify::AppTiming> population;
    for (int m : solution.proposed.slots[s])
      population.push_back(
          solution.apps[static_cast<std::size_t>(m)].timing);
    verify::DiscreteVerifier verifier(population);
    EXPECT_TRUE(verifier.verify(vopt).safe) << "slot " << s;
  }
}

const core::AppSolution& app_named(const core::Solution& solution,
                                   const std::string& name) {
  for (const core::AppSolution& app : solution.apps)
    if (app.spec.name == name) return app;
  throw std::logic_error("test: no app named " + name);
}

TEST(RedimensionTest, SessionSolveMatchesFacadeFingerprint) {
  const std::vector<core::AppSpec> specs = case_specs(3);
  const core::SolveOptions options = base_options();
  const core::Solution via_facade = core::solve(specs, options);
  core::DimensioningSession session(options);
  const core::Solution via_session = session.solve(specs);
  EXPECT_EQ(engine::fingerprint(via_facade), engine::fingerprint(via_session));
  EXPECT_TRUE(session.has_solution());
  EXPECT_EQ(engine::fingerprint(session.solution()),
            engine::fingerprint(via_facade));
}

TEST(RedimensionTest, ParallelSessionFingerprintMatchesSerial) {
  const std::vector<core::AppSpec> specs = case_specs(3);
  core::DimensioningSession serial(base_options());
  core::SolveOptions parallel_options = base_options();
  parallel_options.analysis_threads = 0;
  parallel_options.proof_threads = 0;
  core::DimensioningSession parallel(parallel_options);
  const std::string serial_fp = engine::fingerprint(serial.solve(specs));
  EXPECT_EQ(serial_fp, engine::fingerprint(parallel.solve(specs)));

  // Redimension results are thread-count independent too: same delta on
  // both sessions, same fingerprint.
  core::Delta delta;
  delta.remove.push_back("C2");
  delta.add.push_back(case_specs(4)[3]);
  EXPECT_EQ(engine::fingerprint(serial.redimension(delta)),
            engine::fingerprint(parallel.redimension(delta)));
}

TEST(RedimensionTest, EmptyDeltaIsByteIdenticalIdentity) {
  core::DimensioningSession session(base_options());
  const core::Solution solved = session.solve(case_specs(3));
  const core::Solution unchanged = session.redimension({});
  EXPECT_EQ(engine::fingerprint(unchanged), engine::fingerprint(solved));
  EXPECT_EQ(unchanged.stats.redimension_events, 0);
  EXPECT_EQ(unchanged.stats.redimension_removals, 0);
  EXPECT_EQ(unchanged.stats.redimension_refits, 0);
  EXPECT_EQ(unchanged.stats.redimension_conflicts, 0);
  EXPECT_EQ(unchanged.stats.redimension_new_slots, 0);
  EXPECT_EQ(unchanged.stats.oracle_calls, 0);
  // The standing solution is untouched.
  EXPECT_EQ(engine::fingerprint(session.solution()),
            engine::fingerprint(solved));
}

TEST(RedimensionTest, RemovalIsProofFreeAndKeepsRemainingSlotsIdentical) {
  core::DimensioningSession session(base_options());
  const core::Solution base = session.solve(case_specs(3));
  core::Delta delta;
  delta.remove.push_back("C2");
  const core::Solution after = session.redimension(delta);

  // Proof-free: antitone admission needs no oracle traffic at all.
  EXPECT_EQ(after.stats.oracle_calls, 0);
  EXPECT_EQ(after.stats.verifier_states, 0);
  EXPECT_EQ(after.stats.redimension_events, 1);
  EXPECT_EQ(after.stats.redimension_removals, 1);
  EXPECT_EQ(after.stats.redimension_refits, 0);
  EXPECT_EQ(after.stats.redimension_conflicts, 0);
  EXPECT_EQ(after.stats.redimension_new_slots, 0);

  // Remaining slots are the original ones with C2 dropped (emptied slots
  // removed), in the original member order…
  std::vector<std::vector<std::string>> expected = slot_names(base);
  for (std::vector<std::string>& slot : expected)
    slot.erase(std::remove(slot.begin(), slot.end(), "C2"), slot.end());
  expected.erase(
      std::remove_if(expected.begin(), expected.end(),
                     [](const std::vector<std::string>& slot) {
                       return slot.empty();
                     }),
      expected.end());
  EXPECT_EQ(slot_names(after), expected);

  // …and each surviving application's artefacts are byte-identical to
  // the standing ones (the removal rewrote indices, nothing else).
  for (const core::AppSolution& survivor : after.apps) {
    const core::AppSolution& original = app_named(base, survivor.spec.name);
    EXPECT_EQ(survivor.timing.t_star_w, original.timing.t_star_w);
    EXPECT_EQ(survivor.timing.t_minus, original.timing.t_minus);
    EXPECT_EQ(survivor.timing.t_plus, original.timing.t_plus);
    EXPECT_EQ(survivor.timing.min_interarrival,
              original.timing.min_interarrival);
  }
  expect_fresh_proofs_pass(after, session.options());
}

TEST(RedimensionTest, RemoveThenReAddRoundTrips) {
  const std::vector<core::AppSpec> specs = case_specs(3);
  core::DimensioningSession session(base_options());
  (void)session.solve(specs);

  core::Delta remove_c2;
  remove_c2.remove.push_back("C2");
  (void)session.redimension(remove_c2);

  core::Delta re_add;
  re_add.add.push_back(specs[1]);
  const core::Solution after = session.redimension(re_add);

  EXPECT_EQ(after.apps.size(), 3u);
  const core::AppSolution& restored = app_named(after, "C2");
  EXPECT_EQ(restored.spec.min_interarrival, specs[1].min_interarrival);
  // One remove + one add also works as a single atomic delta (removals
  // apply first, so the name never collides).
  core::Delta swap;
  swap.remove.push_back("C2");
  swap.add.push_back(specs[1]);
  const core::Solution swapped = session.redimension(swap);
  EXPECT_EQ(swapped.stats.redimension_events, 2);
  EXPECT_EQ(swapped.stats.redimension_removals, 1);
  EXPECT_EQ(swapped.apps.size(), 3u);
  expect_fresh_proofs_pass(swapped, session.options());
}

TEST(RedimensionTest, AdditionOpensNewSlotOnlyOnConflict) {
  // Under the bounded verifier the 4-app case study splits: C3 does not
  // fit next to {C1, C4, C2} (the cold 4-app solve pins this), so adding
  // C3 to the standing 3-app population must open a dedicated slot.
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  core::DimensioningSession session(base_options());
  (void)session.solve(
      {spec_of(pool[0]), spec_of(pool[3]), spec_of(pool[1])});

  core::Delta delta;
  delta.add.push_back(spec_of(pool[2]));
  const core::Solution after = session.redimension(delta);
  EXPECT_EQ(after.stats.redimension_events, 1);
  EXPECT_EQ(after.stats.redimension_refits, 0);
  EXPECT_EQ(after.stats.redimension_new_slots, 1);
  EXPECT_EQ(slot_names(after),
            (std::vector<std::vector<std::string>>{{"C1", "C4", "C2"},
                                                   {"C3"}}));
  expect_fresh_proofs_pass(after, session.options());
}

TEST(RedimensionTest, RerateConflictFallsBackToFirstFit) {
  // Re-rating C5 to C2's plant/gains/rate makes its standing slot
  // {C1, C5, C4, C3} carry the timing multiset {C1, C2, C4, C3} — which
  // the bounded verifier rejects (same population the 4-app solve
  // refuses to co-locate). The session must record the conflict and
  // first-fit C5 elsewhere; under the 5-app case study it lands next to
  // the real C2.
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  core::DimensioningSession session(base_options());
  const core::Solution base = session.solve(case_specs(5));
  ASSERT_EQ(slot_names(base),
            (std::vector<std::vector<std::string>>{{"C1", "C5", "C4", "C3"},
                                                   {"C2"}}));

  core::AppSpec c5_as_c2 = spec_of(pool[1]);
  c5_as_c2.name = "C5";
  core::Delta delta;
  delta.rerate.push_back(c5_as_c2);
  const core::Solution after = session.redimension(delta);

  EXPECT_EQ(after.stats.redimension_events, 1);
  EXPECT_EQ(after.stats.redimension_conflicts, 1);
  EXPECT_EQ(after.stats.redimension_refits, 1);
  EXPECT_EQ(after.stats.redimension_new_slots, 0);
  EXPECT_EQ(slot_names(after),
            (std::vector<std::vector<std::string>>{{"C1", "C4", "C3"},
                                                   {"C2", "C5"}}));
  EXPECT_EQ(app_named(after, "C5").timing.min_interarrival,
            pool[1].min_interarrival);
  expect_fresh_proofs_pass(after, session.options());
}

TEST(RedimensionTest, InPlaceRerateKeepsSlotWhenStillAdmitted) {
  // Re-rating C2 to a slightly smaller (still admitted) rate keeps it in
  // its slot: one refit, no conflict, no membership change.
  const std::vector<core::AppSpec> specs = case_specs(3);
  core::DimensioningSession session(base_options());
  const core::Solution base = session.solve(specs);

  core::AppSpec slower = specs[1];
  slower.min_interarrival += 10;
  core::Delta delta;
  delta.rerate.push_back(slower);
  const core::Solution after = session.redimension(delta);

  EXPECT_EQ(after.stats.redimension_events, 1);
  EXPECT_EQ(after.stats.redimension_refits, 1);
  EXPECT_EQ(after.stats.redimension_conflicts, 0);
  EXPECT_EQ(after.stats.redimension_new_slots, 0);
  EXPECT_EQ(slot_names(after), slot_names(base));
  EXPECT_EQ(app_named(after, "C2").timing.min_interarrival,
            specs[1].min_interarrival + 10);
  expect_fresh_proofs_pass(after, session.options());
}

TEST(RedimensionTest, MixedDeltaCountersBalanceAndProofsPass) {
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  core::DimensioningSession session(base_options());
  (void)session.solve(case_specs(3));

  core::AppSpec slower_c3 = spec_of(pool[2]);
  slower_c3.min_interarrival += 5;
  core::Delta delta;
  delta.remove.push_back("C1");
  delta.rerate.push_back(slower_c3);
  delta.add.push_back(spec_of(pool[3]));
  const core::Solution after = session.redimension(delta);

  EXPECT_EQ(after.stats.redimension_events, 3);
  // Invariant: every event is accounted for exactly once.
  EXPECT_EQ(after.stats.redimension_removals + after.stats.redimension_refits +
                after.stats.redimension_new_slots,
            after.stats.redimension_events);
  EXPECT_EQ(after.apps.size(), 3u);
  (void)app_named(after, "C2");
  (void)app_named(after, "C3");
  (void)app_named(after, "C4");
  expect_fresh_proofs_pass(after, session.options());
  // The session's standing solution is the returned one.
  EXPECT_EQ(engine::fingerprint(session.solution()),
            engine::fingerprint(after));
}

TEST(RedimensionTest, RedimensionBeforeSolveThrows) {
  core::DimensioningSession session(base_options());
  EXPECT_FALSE(session.has_solution());
  EXPECT_THROW((void)session.redimension({}), std::logic_error);
  EXPECT_THROW((void)session.solution(), std::logic_error);
  EXPECT_THROW((void)session.specs(), std::logic_error);
}

TEST(RedimensionTest, DeltaValidationRejectsMalformedDeltas) {
  const std::vector<core::AppSpec> specs = case_specs(3);
  core::DimensioningSession session(base_options());
  const core::Solution base = session.solve(specs);

  const auto expect_rejected = [&](const core::Delta& delta) {
    EXPECT_THROW((void)session.redimension(delta), std::invalid_argument);
    // A rejected delta leaves the standing solution untouched.
    EXPECT_EQ(engine::fingerprint(session.solution()),
              engine::fingerprint(base));
  };

  core::Delta unknown_removal;
  unknown_removal.remove.push_back("C9");
  expect_rejected(unknown_removal);

  core::Delta duplicate_removal;
  duplicate_removal.remove = {"C2", "C2"};
  expect_rejected(duplicate_removal);

  core::Delta unknown_rerate;
  unknown_rerate.rerate.push_back(specs[1]);
  unknown_rerate.rerate.back().name = "C9";
  expect_rejected(unknown_rerate);

  core::Delta removed_and_rerated;
  removed_and_rerated.remove.push_back("C2");
  removed_and_rerated.rerate.push_back(specs[1]);
  expect_rejected(removed_and_rerated);

  core::Delta colliding_addition;
  colliding_addition.add.push_back(specs[1]);
  expect_rejected(colliding_addition);

  core::Delta emptying;
  emptying.remove = {"C1", "C2", "C3"};
  expect_rejected(emptying);

  // Re-rated and added specs pass the same boundary check as solve():
  // finite gains shaped for their plant.
  core::Delta non_finite_rerate;
  non_finite_rerate.rerate.push_back(specs[1]);
  non_finite_rerate.rerate.back().kt(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  expect_rejected(non_finite_rerate);

  core::Delta misshapen_addition;
  misshapen_addition.add.push_back(spec_of(casestudy::c4()));
  misshapen_addition.add.back().ke = casestudy::c6().ke;  // 1 x 2, needs 1 x 3
  expect_rejected(misshapen_addition);

  core::Delta byte_overflowing_rerate;  // counters are kept in one byte
  byte_overflowing_rerate.rerate.push_back(specs[1]);
  byte_overflowing_rerate.rerate.back().min_interarrival = 300;
  expect_rejected(byte_overflowing_rerate);
}

}  // namespace
}  // namespace ttdim
