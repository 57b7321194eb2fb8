#include "engine/fuzz/soundness_fuzzer.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "casestudy/apps.h"
#include "core/dimensioning.h"
#include "core/session.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/cache/disk_cache.h"
#include "engine/cache/solution_cache.h"
#include "engine/fingerprint.h"
#include "engine/oracle/incremental_oracle.h"
#include "engine/oracle/snapshot_cache.h"
#include "engine/oracle/verdict_cache.h"
#include "engine/scenario_generator.h"
#include "mapping/first_fit.h"
#include "support/check.h"

namespace ttdim::engine::fuzz {

namespace {

using Population = std::vector<verify::AppTiming>;
using ClaimFn = std::function<bool(const Population&)>;

/// splitmix64: the per-iteration seed derivation. Each iteration's PRNG is
/// a pure function of (campaign seed, iteration index), so a wall-clock
/// budget that stops the campaign early yields a strict prefix of the
/// unbudgeted trajectory — never a different one.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

int pick(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// Random per-wait timing tables. The sporadic model requires every TT
/// episode to finish before the next disturbance (w + T+dw(w) < r), so r
/// is drawn above that floor; keeping it close to the floor is what makes
/// roughly half the generated pairs unsafe — both oracle answers stay
/// well-exercised.
verify::AppTiming random_app(std::mt19937_64& rng, int index) {
  verify::AppTiming app;
  app.name = "F" + std::to_string(index);
  app.t_star_w = pick(rng, 0, 3);
  const std::size_t waits = static_cast<std::size_t>(app.t_star_w) + 1;
  app.t_minus.resize(waits);
  app.t_plus.resize(waits);
  int floor = 0;
  for (std::size_t w = 0; w < waits; ++w) {
    app.t_minus[w] = 1 + pick(rng, 0, 2);
    app.t_plus[w] = app.t_minus[w] + pick(rng, 0, 2);
    floor = std::max(floor, static_cast<int>(w) + app.t_plus[w]);
  }
  app.min_interarrival = floor + 1 + pick(rng, 0, 9);
  app.validate();
  return app;
}

struct SimOutcome {
  bool violated = false;
  int violator = -1;
  int tick = -1;
};

/// Simulate, treating the scheduler's mid-run stream rejection as
/// violation evidence: a generator-well-formed scenario (sorted, spaced
/// >= r) is only ever rejected when an earlier deadline miss left the
/// re-disturbed application stuck in its episode. Encoded as violator -2
/// (the Artifact convention). Any other rejection is a harness bug and
/// propagates.
SimOutcome simulate_checked(const Population& apps,
                            const sched::Scenario& scenario,
                            verify::SlotPolicy policy) {
  try {
    const sched::ScheduleResult out =
        sched::simulate_slot(apps, scenario, policy);
    return {out.deadline_violated, out.violator, out.violation_tick};
  } catch (const std::invalid_argument& e) {
    if (std::string(e.what()).find("still being handled") !=
        std::string::npos)
      return {true, -2, -1};
    throw;
  }
}

/// Fresh verifier run with the state budget turned into a skip signal
/// (nullopt) instead of an exception — budget exhaustion is counted, never
/// silently conflated with a verdict.
std::optional<verify::SlotVerdict> guarded_verify(
    const Population& pop, verify::DiscreteVerifier::Options opt,
    bool want_witness) {
  opt.want_witness = want_witness;
  opt.depth_first = false;
  try {
    return verify::DiscreteVerifier(pop).verify(opt);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// The bounded-disturbance verifier option is an under-approximation by
/// design (the paper's Sec. 5 accelerator): a "safe" claim made under
/// max_disturbances_per_app = k covers exactly the streams with at most k
/// instances per application. Cross-checking such a claim against an
/// unclipped generated stream would "refute" it with behaviour the claim
/// never spoke about, so every simulated scenario is clipped to the bound
/// first (truncation keeps streams well-formed: sorted, spaced, inside
/// the horizon). Unbounded claims (k < 0) are checked against the full
/// streams.
sched::Scenario clip_to_bound(sched::Scenario scenario, int bound) {
  if (bound < 0) return scenario;
  for (std::vector<int>& row : scenario.disturbances)
    if (row.size() > static_cast<std::size_t>(bound))
      row.resize(static_cast<std::size_t>(bound));
  return scenario;
}

void note_scenario(FuzzReport* report, const std::string& kind) {
  if (report == nullptr) return;
  ++report->scenarios_simulated;
  ++report->scenario_kind_counts[kind];
}

/// One confirmed disagreement, carrying everything an Artifact needs.
struct Finding {
  std::string what;   ///< category, becomes the artifact description
  std::string kind;   ///< scenario provenance (kind name / witness / ...)
  bool claimed_safe = false;
  Population pop;
  sched::Scenario scenario;
  int violator = -1;
  int tick = -1;
};

/// The oracle-vs-verifier-vs-simulator cross-check for one population.
///
/// Compares the claim (whatever oracle tier or injected hook produced it)
/// against a fresh breadth-first proof, then grounds whichever side of the
/// agreement is falsifiable in the runtime scheduler: safe populations are
/// simulated against every generator kind plus the hyperperiod sweep (no
/// deadline may be missed), unsafe ones must reproduce their violation
/// when the verifier witness is replayed with forced grants. Returns the
/// disagreement, or nullopt when everything agrees (or a state budget cut
/// the check short — counted by the caller via skipped_budget).
///
/// The same predicate drives shrinking: a candidate population "still
/// fails" exactly when this returns a finding, so the minimal artifact is
/// re-validated end to end at every shrink step (report == nullptr there,
/// to keep the coverage accounting to first discoveries).
std::optional<Finding> find_disagreement(
    const Population& pop, const ClaimFn& claim_fn,
    const verify::DiscreteVerifier::Options& vopt, std::uint64_t scan_seed,
    FuzzReport* report) {
  bool claim = false;
  try {
    claim = claim_fn(pop);
  } catch (const std::runtime_error&) {
    if (report != nullptr) ++report->skipped_budget;
    return std::nullopt;
  }
  const std::optional<verify::SlotVerdict> fresh =
      guarded_verify(pop, vopt, false);
  if (!fresh) {
    if (report != nullptr) ++report->skipped_budget;
    return std::nullopt;
  }

  if (claim != fresh->safe) {
    Finding f;
    f.claimed_safe = claim;
    f.pop = pop;
    if (!fresh->safe) {
      f.what = "claim-safe-but-verifier-unsafe";
      const std::optional<verify::SlotVerdict> wit =
          guarded_verify(pop, vopt, true);
      if (!wit) {
        if (report != nullptr) ++report->skipped_budget;
        return std::nullopt;
      }
      f.kind = "witness";
      f.scenario = witness_scenario(*wit, pop.size());
      note_scenario(report, "witness");
      const SimOutcome out = simulate_checked(pop, f.scenario, vopt.policy);
      f.violator = out.violated ? out.violator : wit->violator;
      f.tick = out.violated ? out.tick : -1;
    } else {
      f.what = "claim-unsafe-but-verifier-safe";
      f.kind = "hyperperiod";
      f.scenario = hyperperiod_scenario(pop);
      note_scenario(report, "hyperperiod");
    }
    return f;
  }

  if (fresh->safe) {
    // Both sides say safe: no sporadic scenario whatsoever may miss a
    // deadline. Scan every generator kind plus the max-rate sweep.
    ScenarioGenerator gen(pop, scan_seed);
    for (const ScenarioKind kind : kAllScenarioKinds) {
      const sched::Scenario sc =
          clip_to_bound(gen.make(kind, 2), vopt.max_disturbances_per_app);
      note_scenario(report, scenario_kind_name(kind));
      const SimOutcome out = simulate_checked(pop, sc, vopt.policy);
      if (out.violated)
        return Finding{"verifier-safe-but-simulation-violates",
                       scenario_kind_name(kind),
                       true,
                       pop,
                       sc,
                       out.violator,
                       out.tick};
    }
    const sched::Scenario sweep =
        clip_to_bound(hyperperiod_scenario(pop), vopt.max_disturbances_per_app);
    note_scenario(report, "hyperperiod");
    const SimOutcome out = simulate_checked(pop, sweep, vopt.policy);
    if (out.violated)
      return Finding{"verifier-safe-but-simulation-violates", "hyperperiod",
                     true,           pop,
                     sweep,          out.violator,
                     out.tick};
    return std::nullopt;
  }

  // Both sides say unsafe: the structured witness must reproduce the
  // violation on the runtime scheduler (same disturbances, same grants).
  const std::optional<verify::SlotVerdict> wit =
      guarded_verify(pop, vopt, true);
  if (!wit) {
    if (report != nullptr) ++report->skipped_budget;
    return std::nullopt;
  }
  const sched::Scenario sc = witness_scenario(*wit, pop.size());
  note_scenario(report, "witness");
  const SimOutcome out = simulate_checked(pop, sc, vopt.policy);
  if (!out.violated)
    return Finding{"witness-does-not-replay", "witness", false, pop,
                   sc,                        wit->violator, -1};
  return std::nullopt;
}

/// Greedy counterexample minimization. Population level first: drop one
/// application at a time while *a* disagreement persists (the category may
/// shift — the smaller case wins either way, since find_disagreement
/// rebuilds the evidence scenario for every candidate). Then scenario
/// level, for simulator-violation evidence without forced grants: truncate
/// arrivals after the violation, drop surviving arrivals one at a time,
/// clamp the horizon just past the miss. Witness scenarios are left alone
/// (their forced grants are tick-indexed, and BFS witnesses are already
/// shortest).
Finding shrink_finding(Finding f, const ClaimFn& claim_fn,
                       const verify::DiscreteVerifier::Options& vopt,
                       std::uint64_t scan_seed) {
  bool improved = true;
  while (improved && f.pop.size() > 1) {
    improved = false;
    for (std::size_t i = 0; i < f.pop.size(); ++i) {
      Population cand = f.pop;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      if (std::optional<Finding> smaller =
              find_disagreement(cand, claim_fn, vopt, scan_seed, nullptr)) {
        f = std::move(*smaller);
        improved = true;
        break;
      }
    }
  }

  if (f.tick < 0 || !f.scenario.forced_grants.empty()) return f;
  const auto still_violates =
      [&](const sched::Scenario& sc) -> std::optional<SimOutcome> {
    const SimOutcome out = simulate_checked(f.pop, sc, vopt.policy);
    if (!out.violated) return std::nullopt;
    return out;
  };
  {
    sched::Scenario cand = f.scenario;
    for (std::vector<int>& row : cand.disturbances)
      row.erase(std::remove_if(row.begin(), row.end(),
                               [&](int t) { return t > f.tick; }),
                row.end());
    if (const auto out = still_violates(cand)) {
      f.scenario = std::move(cand);
      f.violator = out->violator;
      f.tick = out->tick;
    }
  }
  improved = true;
  while (improved) {
    improved = false;
    for (std::size_t a = 0; a < f.scenario.disturbances.size() && !improved;
         ++a) {
      for (std::size_t j = 0; j < f.scenario.disturbances[a].size(); ++j) {
        sched::Scenario cand = f.scenario;
        cand.disturbances[a].erase(cand.disturbances[a].begin() +
                                   static_cast<std::ptrdiff_t>(j));
        if (const auto out = still_violates(cand)) {
          f.scenario = std::move(cand);
          f.violator = out->violator;
          f.tick = out->tick;
          improved = true;
          break;
        }
      }
    }
  }
  if (f.tick >= 0) {
    sched::Scenario cand = f.scenario;
    cand.horizon = f.tick + 2;
    for (std::vector<int>& row : cand.disturbances)
      row.erase(std::remove_if(row.begin(), row.end(),
                               [&](int t) { return t >= cand.horizon; }),
                row.end());
    if (const auto out = still_violates(cand)) {
      f.scenario = std::move(cand);
      f.violator = out->violator;
      f.tick = out->tick;
    }
  }
  return f;
}

void record_finding(const Finding& f, const FuzzConfig& config,
                    long iteration,
                    const verify::DiscreteVerifier::Options& vopt,
                    FuzzReport& report) {
  ++report.disagreements;
  std::ostringstream line;
  line << "iteration " << iteration << ": " << f.what << " ("
       << f.pop.size() << " apps, kind " << f.kind << ", violator "
       << f.violator << ", tick " << f.tick << ")";
  if (!config.artifacts_dir.empty()) {
    Artifact a;
    a.description = f.what;
    a.seed = config.seed;
    a.iteration = iteration;
    a.scenario_kind = f.kind;
    a.policy = vopt.policy;
    a.max_disturbances_per_app = vopt.max_disturbances_per_app;
    a.max_states = vopt.max_states;
    a.claimed_safe = f.claimed_safe;
    a.apps = f.pop;
    a.scenario = f.scenario;
    a.expect_violator = f.violator;
    a.expect_violation_tick = f.tick;
    const std::string path = save_artifact(a, config.artifacts_dir);
    ++report.artifacts_written;
    report.artifact_paths.push_back(path);
    line << " -> " << path;
  }
  report.disagreement_summaries.push_back(line.str());
}

/// Caches shared across the whole campaign ("batch job" sharing): the
/// fourth oracle configuration and the solve cross-checks reuse these, so
/// cross-iteration subsumption and prefix reuse are genuinely exercised.
///
/// Concurrency contract: the campaign loop is serial, but the solve
/// cross-check's parallel variants fan analysis work out across the
/// shared Executor pool with these same caches attached — every member
/// is an internally-synchronized type on the annotated support::Mutex
/// (the clang -Wthread-safety lane proves their locking), so this struct
/// needs no lock of its own and carries no GUARDED_BY state.
struct FamilyCaches {
  std::shared_ptr<oracle::VerdictCache> verdicts =
      std::make_shared<oracle::VerdictCache>();
  std::shared_ptr<oracle::SnapshotCache> snapshots =
      std::make_shared<oracle::SnapshotCache>();
  std::shared_ptr<analysis::AnalysisCache> analysis =
      std::make_shared<analysis::AnalysisCache>();
  /// Whole-solve result memoization for the solve cross-check's fourth
  /// variant (its hit must fingerprint-match a from-scratch solve).
  std::shared_ptr<cache::SolutionCache> solutions =
      std::make_shared<cache::SolutionCache>();
  /// Persistent tier; null unless the campaign configured a directory.
  std::shared_ptr<cache::DiskCache> disk;
};

void aggregate_tiers(const oracle::IncrementalAdmissionOracle& o,
                     FuzzReport& report) {
  report.probes += o.calls();
  report.exact_hits += o.exact_hits();
  report.subsumption_hits += o.subsumption_hits();
  report.subsumption_cuts += o.subsumption_cuts();
  report.prefix_hits += o.prefix_hits();
  report.fresh_proofs += o.misses() - o.prefix_hits();
  report.disk_hits += o.disk_hits();
}

void run_iteration(long it, const FuzzConfig& config, FamilyCaches& family,
                   FuzzReport& report) {
  std::mt19937_64 rng(splitmix64(
      config.seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(it + 1)));
  const int max_apps = std::clamp(config.max_apps, 2, 8);
  const int n = pick(rng, 2, max_apps);
  Population apps;
  apps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) apps.push_back(random_app(rng, i));

  verify::DiscreteVerifier::Options vopt;
  vopt.policy = pick(rng, 0, 1) == 0 ? verify::SlotPolicy::kPaper
                                     : verify::SlotPolicy::kSlackAware;
  vopt.max_disturbances_per_app = pick(rng, 0, 1) == 0 ? -1 : pick(rng, 1, 3);
  vopt.max_states = 2'000'000;
  ++report.systems;

  const std::uint64_t scan_seed = splitmix64(
      config.seed ^ (0xD1B54A32D192ED03ull * static_cast<std::uint64_t>(it + 1)));

  // The mapping-level SolveOptions matrix: the same population walked under
  // every admission-oracle configuration. Tier answers are identical by
  // construction, so the slot assignments must match byte for byte.
  std::vector<std::unique_ptr<oracle::IncrementalAdmissionOracle>> oracles;
  oracles.push_back(std::make_unique<oracle::IncrementalAdmissionOracle>(
      vopt, nullptr, nullptr, false));
  oracles.push_back(std::make_unique<oracle::IncrementalAdmissionOracle>(
      vopt, std::make_shared<oracle::VerdictCache>(), nullptr, false));
  oracles.push_back(std::make_unique<oracle::IncrementalAdmissionOracle>(
      vopt, std::make_shared<oracle::VerdictCache>(),
      std::make_shared<oracle::SnapshotCache>(), true));
  oracles.push_back(std::make_unique<oracle::IncrementalAdmissionOracle>(
      vopt, family.verdicts, family.snapshots, true, family.disk));
  const std::size_t family_idx = oracles.size() - 1;
  // Disk-backed configuration: fresh memory caches over the campaign
  // directory, walked after the family config has written this walk's
  // proofs through — every probe it can answer from disk is a persisted
  // verdict cross-checked against the live trajectory via the assignment
  // comparison below.
  if (family.disk != nullptr)
    oracles.push_back(std::make_unique<oracle::IncrementalAdmissionOracle>(
        vopt, std::make_shared<oracle::VerdictCache>(),
        std::make_shared<oracle::SnapshotCache>(), true, family.disk));
  // Parallel-verifier configuration: private exact and snapshot caches,
  // so every miss of this walk is a proof at proof_threads = 2, fresh or
  // extended from a snapshot captured at 2 threads. Its verdicts are
  // contractually identical to serial ones, so its slot assignment must
  // match the reference byte for byte — every admission of the walk
  // cross-checks the multi-threaded BFS against the serial trajectory.
  verify::DiscreteVerifier::Options pvopt = vopt;
  pvopt.proof_threads = 2;
  oracles.push_back(std::make_unique<oracle::IncrementalAdmissionOracle>(
      pvopt, std::make_shared<oracle::VerdictCache>(),
      std::make_shared<oracle::SnapshotCache>(), false));

  const std::vector<int> order = mapping::paper_sort_order(apps);
  std::vector<mapping::SlotAssignment> assignments;
  std::vector<Population> rejected;
  bool aborted = false;
  for (std::size_t c = 0; c < oracles.size() && !aborted; ++c) {
    oracle::IncrementalAdmissionOracle& oc = *oracles[c];
    const bool record = c == family_idx;
    const mapping::SlotOracle probe = [&, record](const Population& pop) {
      bool safe = oc.admit(pop);
      if (config.inject_unsound && !safe && pop.size() >= 2) safe = true;
      if (record && !safe && rejected.size() < 4) rejected.push_back(pop);
      return safe;
    };
    try {
      assignments.push_back(mapping::first_fit(apps, order, probe));
    } catch (const std::runtime_error&) {
      aborted = true;  // state budget; caches may legitimately diverge here
    }
  }
  if (aborted) {
    ++report.skipped_budget;
    for (const auto& o : oracles) aggregate_tiers(*o, report);
    return;
  }

  for (std::size_t c = 1; c < assignments.size(); ++c) {
    if (assignments[c].slots != assignments[0].slots) {
      ++report.disagreements;
      std::ostringstream line;
      line << "iteration " << it
           << ": cross-config assignment mismatch (oracle configuration "
           << c << " vs reference)";
      report.disagreement_summaries.push_back(line.str());
    }
  }

  // Claims for all post-walk checks come from the family-shared oracle —
  // its caches hold the walk's proofs, so these probes deterministically
  // land in the exact / subsumption tiers.
  oracle::IncrementalAdmissionOracle& shared_oracle = *oracles[family_idx];
  const ClaimFn claim_fn = [&](const Population& pop) {
    bool safe = shared_oracle.admit(pop);
    if (config.inject_unsound && !safe && pop.size() >= 2) safe = true;
    return safe;
  };

  std::vector<Population> slot_pops;
  for (const std::vector<int>& members : assignments[0].slots) {
    Population pop;
    for (const int idx : members)
      pop.push_back(apps[static_cast<std::size_t>(idx)]);
    slot_pops.push_back(std::move(pop));
  }

  // Safe side: every admitted slot population, against fresh proof and
  // full scenario scan.
  for (const Population& pop : slot_pops) {
    if (std::optional<Finding> f =
            find_disagreement(pop, claim_fn, vopt, scan_seed, &report))
      record_finding(shrink_finding(std::move(*f), claim_fn, vopt, scan_seed),
                     config, it, vopt, report);
  }

  // Unsafe side: rejected walk probes must re-prove unsafe and their
  // witness must replay to a violation (capped — the cap only limits how
  // many rejections are re-grounded per iteration, and rejections recur
  // every iteration).
  std::size_t checked = 0;
  for (const Population& pop : rejected) {
    if (checked++ >= 2) break;
    if (std::optional<Finding> f =
            find_disagreement(pop, claim_fn, vopt, scan_seed, &report))
      record_finding(shrink_finding(std::move(*f), claim_fn, vopt, scan_seed),
                     config, it, vopt, report);
  }

  // Parallel-verifier differential, at verdict level: re-prove the
  // walk's populations under proof_threads = 2 and hold the parallel
  // driver to its full contract — identical `safe` always, identical
  // states_explored when both sides completed a safe proof (the
  // level-synchronous dedup makes the safe count the reachable-set size,
  // order-independent). Budget exhaustion on either side skips the pair:
  // throw parity is only promised for proofs that are safe when
  // completed, which an exhausted run never reveals.
  verify::DiscreteVerifier::Options par_vopt = vopt;
  par_vopt.proof_threads = 2;
  const auto check_parallel = [&](const Population& pop) {
    const std::optional<verify::SlotVerdict> serial =
        guarded_verify(pop, vopt, false);
    const std::optional<verify::SlotVerdict> parallel =
        guarded_verify(pop, par_vopt, false);
    if (!serial || !parallel) {
      ++report.skipped_budget;
      return;
    }
    ++report.parallel_checks;
    const bool mismatch =
        serial->safe != parallel->safe ||
        (serial->safe && serial->states_explored != parallel->states_explored);
    if (!mismatch) return;
    ++report.disagreements;
    std::ostringstream line;
    line << "iteration " << it << ": serial-vs-parallel verifier mismatch ("
         << (serial->safe ? "safe" : "unsafe") << "/"
         << serial->states_explored << " states vs "
         << (parallel->safe ? "safe" : "unsafe") << "/"
         << parallel->states_explored << " states)";
    report.disagreement_summaries.push_back(line.str());
  };
  for (const Population& pop : slot_pops) check_parallel(pop);
  if (!rejected.empty()) check_parallel(rejected.front());

  // Antitone probes. A strict sub-population of an admitted slot must
  // admit (tier-2 safe hit on the shared caches) and must re-prove safe —
  // an unsafe fresh proof here means admission antitonicity is broken in
  // the verifier itself, which no claim-vs-proof comparison would catch.
  for (const Population& pop : slot_pops) {
    if (pop.size() < 2) continue;
    const Population sub(pop.begin() + 1, pop.end());
    try {
      const bool sub_claim = claim_fn(sub);
      const std::optional<verify::SlotVerdict> sub_fresh =
          guarded_verify(sub, vopt, false);
      if (sub_fresh && !sub_fresh->safe) {
        Finding f;
        f.what = "antitone-violation";
        f.claimed_safe = true;  // by inclusion in the admitted population
        f.pop = sub;
        if (const std::optional<verify::SlotVerdict> wit =
                guarded_verify(sub, vopt, true)) {
          f.kind = "witness";
          f.scenario = witness_scenario(*wit, sub.size());
          note_scenario(&report, "witness");
          const SimOutcome out =
              simulate_checked(sub, f.scenario, vopt.policy);
          f.violator = out.violated ? out.violator : wit->violator;
          f.tick = out.violated ? out.tick : -1;
        } else {
          f.kind = "hyperperiod";
          f.scenario = hyperperiod_scenario(sub);
        }
        record_finding(f, config, it, vopt, report);
      } else if (!sub_claim) {
        if (std::optional<Finding> f =
                find_disagreement(sub, claim_fn, vopt, scan_seed, &report))
          record_finding(
              shrink_finding(std::move(*f), claim_fn, vopt, scan_seed),
              config, it, vopt, report);
      }
    } catch (const std::runtime_error&) {
      ++report.skipped_budget;
    }
  }

  // A strict super-multiset of a rejected probe must reject (tier-2 cut:
  // appending a duplicate member is always a strict multiset extension).
  if (!rejected.empty()) {
    Population sup = rejected.front();
    sup.push_back(sup.front());
    try {
      if (claim_fn(sup)) {
        if (std::optional<Finding> f =
                find_disagreement(sup, claim_fn, vopt, scan_seed, &report))
          record_finding(
              shrink_finding(std::move(*f), claim_fn, vopt, scan_seed),
              config, it, vopt, report);
      }
    } catch (const std::runtime_error&) {
      ++report.skipped_budget;
    }
  }

  for (const auto& o : oracles) aggregate_tiers(*o, report);
}

/// Every solve_every-th iteration: the full pipeline on perturbed
/// case-study specs, solved under toggled SolveOptions. Fingerprints (or
/// thrown requirement errors) must agree byte for byte, and every proposed
/// slot is then co-simulated (control loops included) against a burst
/// scenario. Perturbing r keeps the shared AnalysisCache warm — the
/// analysis key excludes the arrival pattern — while still reshaping the
/// mapping problem.
void run_solve_check(long it, const FuzzConfig& config, FamilyCaches& family,
                     FuzzReport& report) {
  std::mt19937_64 rng(splitmix64(
      config.seed ^ (0xA24BAED4963EE407ull * static_cast<std::uint64_t>(it + 3))));
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  const int k = pick(rng, 2, 3);
  std::vector<int> idx(pool.size());
  std::iota(idx.begin(), idx.end(), 0);
  for (int j = 0; j < k; ++j)
    std::swap(idx[static_cast<std::size_t>(j)],
              idx[static_cast<std::size_t>(
                  pick(rng, j, static_cast<int>(idx.size()) - 1))]);

  std::vector<core::AppSpec> specs;
  for (int j = 0; j < k; ++j) {
    const casestudy::App& app = pool[static_cast<std::size_t>(idx[j])];
    // Loosening-only perturbation keeps the requirements meetable.
    specs.push_back(core::AppSpec{
        app.name, app.plant, app.kt, app.ke,
        app.min_interarrival + pick(rng, 0, 20),
        app.settling_requirement + pick(rng, 0, 10)});
  }

  core::SolveOptions base;
  base.max_disturbances_per_app = 1;
  base.analysis_cache = family.analysis;

  std::vector<std::pair<const char*, core::SolveOptions>> variants;
  {
    core::SolveOptions o = base;
    o.memoize_admission = false;
    o.incremental_admission = false;
    o.subsumption_admission = false;
    variants.emplace_back("reference", o);
  }
  variants.emplace_back("tiers-private", base);
  {
    core::SolveOptions o = base;
    o.verdict_cache = family.verdicts;
    o.snapshot_cache = family.snapshots;
    o.analysis_threads = 0;
    // Fresh admission proofs on the parallel BFS driver (explicit 2, not
    // 0: hardware concurrency may resolve to 1 on small CI boxes, which
    // would silently drop the parallel path from the fingerprint check).
    o.proof_threads = 2;
    o.disk_cache = family.disk;  // null = tier off, same as elsewhere
    variants.emplace_back("tiers-shared-parallel", o);
  }
  {
    // Whole-solve result tier: the first run with these specs stores, a
    // recurring spec tuple is served from the memoized Solution — either
    // way the fingerprint must equal the reference's.
    core::SolveOptions o = base;
    o.solution_cache = family.solutions;
    o.disk_cache = family.disk;
    variants.emplace_back("solution-cache", o);
  }

  ++report.solve_checks;
  std::vector<std::string> outcomes;
  std::optional<core::Solution> solution;
  for (const auto& [name, opts] : variants) {
    try {
      core::Solution sol = core::solve(specs, opts);
      outcomes.push_back(engine::fingerprint(sol));
      if (!solution) solution = std::move(sol);
    } catch (const std::invalid_argument& e) {
      outcomes.push_back(std::string("error: ") + e.what());
    }
  }
  for (std::size_t c = 1; c < outcomes.size(); ++c) {
    if (outcomes[c] != outcomes[0]) {
      ++report.disagreements;
      std::ostringstream line;
      line << "solve check at iteration " << it
           << ": fingerprint mismatch (reference vs " << variants[c].first
           << ")";
      report.disagreement_summaries.push_back(line.str());
    }
  }

  if (!solution) return;
  verify::DiscreteVerifier::Options vopt;
  vopt.max_disturbances_per_app = base.max_disturbances_per_app;
  vopt.max_states = 2'000'000;
  for (std::size_t s = 0; s < solution->proposed.slots.size(); ++s) {
    std::vector<core::AppSolution> members;
    Population timings;
    for (const int i : solution->proposed.slots[s]) {
      members.push_back(solution->apps[static_cast<std::size_t>(i)]);
      timings.push_back(solution->apps[static_cast<std::size_t>(i)].timing);
    }
    ScenarioGenerator gen(
        timings, splitmix64(config.seed ^
                            (0x94D049BB133111EBull *
                             static_cast<std::uint64_t>(it + 1)) ^
                            static_cast<std::uint64_t>(s)));
    const sched::Scenario sc =
        clip_to_bound(gen.burst(2), base.max_disturbances_per_app);
    note_scenario(&report, "burst");
    const core::CoSimResult cosim =
        core::cosimulate(members, sc, casestudy::kSettlingTol);
    if (cosim.schedule.deadline_violated) {
      Finding f;
      f.what = "solve-admitted-slot-violates-in-cosimulation";
      f.kind = "burst";
      f.claimed_safe = true;
      f.pop = timings;
      f.scenario = sc;
      f.violator = cosim.schedule.violator;
      f.tick = cosim.schedule.violation_tick;
      record_finding(f, config, it, vopt, report);
    }
  }
}

/// Name-level slot memberships, in slot/member order: the index-free view
/// that survives redimension's removal renumbering (shared idiom with
/// tests/redimension_test.cpp).
std::vector<std::vector<std::string>> slot_names_of(
    const core::Solution& solution) {
  std::vector<std::vector<std::string>> names;
  for (const std::vector<int>& slot : solution.proposed.slots) {
    std::vector<std::string> members;
    for (const int m : slot)
      members.push_back(solution.apps[static_cast<std::size_t>(m)].spec.name);
    names.push_back(std::move(members));
  }
  return names;
}

void note_churn_disagreement(long it, const std::string& what,
                             FuzzReport& report) {
  ++report.disagreements;
  std::ostringstream line;
  line << "churn check at iteration " << it << ": " << what;
  report.disagreement_summaries.push_back(line.str());
}

/// Every solve_every-th iteration, alongside run_solve_check: the online
/// re-dimensioning differential. A DimensioningSession solves a perturbed
/// case-study population, then walks a generated ChurnTrace one event per
/// delta. After every applied delta the standing solution must (a) pass a
/// fresh admission proof per proposed slot — redimension's contract is
/// "exactly the proofs a cold solve would run", so a session that drifted
/// from its own oracle shows up here; (b) for removal-only deltas, be
/// proof-free (zero oracle traffic — antitone admission) and name-level
/// byte-identical on the remaining slots; (c) keep the bookkeeping
/// invariant removals + refits + new_slots = events. The walk ends with a
/// from-scratch core::solve of the final population: it must succeed, and
/// its per-application analysis artefacts must equal the session's
/// (analysis is a pure function of the spec, however it was reached).
void run_churn_check(long it, const FuzzConfig& config, FamilyCaches& family,
                     FuzzReport& report) {
  std::mt19937_64 rng(splitmix64(
      config.seed ^
      (0xD6E8FEB86659FD93ull * static_cast<std::uint64_t>(it + 5))));
  const std::vector<casestudy::App> pool = casestudy::all_apps();
  const int k = pick(rng, 2, 3);
  std::vector<int> idx(pool.size());
  std::iota(idx.begin(), idx.end(), 0);
  for (int j = 0; j < k; ++j)
    std::swap(idx[static_cast<std::size_t>(j)],
              idx[static_cast<std::size_t>(
                  pick(rng, j, static_cast<int>(idx.size()) - 1))]);

  std::vector<core::AppSpec> specs;
  for (int j = 0; j < k; ++j) {
    const casestudy::App& app = pool[static_cast<std::size_t>(idx[j])];
    // Loosening-only perturbation keeps the requirements meetable (the
    // run_solve_check idiom).
    specs.push_back(core::AppSpec{
        app.name, app.plant, app.kt, app.ke,
        app.min_interarrival + pick(rng, 0, 20),
        app.settling_requirement + pick(rng, 0, 10)});
  }

  core::SolveOptions opts;
  opts.max_disturbances_per_app = 1;
  opts.analysis_cache = family.analysis;
  opts.verdict_cache = family.verdicts;
  opts.snapshot_cache = family.snapshots;
  opts.disk_cache = family.disk;
  core::DimensioningSession session(opts);
  core::Solution standing;
  try {
    standing = session.solve(specs);
  } catch (const std::invalid_argument&) {
    // The loosening perturbation can push an application's tolerable
    // wait past its (also loosened) rate — an infeasible population,
    // not a harness finding. run_solve_check records the same outcome
    // as a consistent "error:" across its variants.
    return;
  }
  ++report.redimension_checks;

  verify::DiscreteVerifier::Options vopt;
  vopt.max_disturbances_per_app = opts.max_disturbances_per_app;
  vopt.policy = opts.policy;
  vopt.max_states = 2'000'000;

  Population timings;
  for (const core::AppSolution& app : standing.apps)
    timings.push_back(app.timing);
  ScenarioGenerator gen(
      timings,
      splitmix64(config.seed ^
                 (0x2545F4914F6CDD1Dull * static_cast<std::uint64_t>(it + 7))));
  const ChurnTrace trace = gen.churn_trace(pick(rng, 2, 3));

  // The initial solve already registered every application, so each
  // application's first kAdd (its trace registration) is skipped; from
  // then on the trace lifecycle (remove -> add -> rerate...) maps one to
  // one onto single-event deltas. A removal that would empty the
  // population is skipped together with its paired re-add, keeping the
  // walk aligned with the trace lifecycle.
  std::vector<bool> seen_first_add(specs.size(), false);
  std::vector<bool> skip_next_add(specs.size(), false);
  int active = k;
  for (const ChurnEvent& event : trace.events) {
    const std::size_t a = static_cast<std::size_t>(event.app);
    core::Delta delta;
    switch (event.kind) {
      case ChurnEventKind::kAdd: {
        if (!seen_first_add[a]) {
          seen_first_add[a] = true;
          continue;
        }
        if (skip_next_add[a]) {
          skip_next_add[a] = false;
          continue;
        }
        core::AppSpec spec = specs[a];
        spec.min_interarrival = event.min_interarrival;
        delta.add.push_back(std::move(spec));
        ++active;
        break;
      }
      case ChurnEventKind::kRemove: {
        if (active <= 1) {  // a delta must not empty the population
          skip_next_add[a] = true;
          continue;
        }
        delta.remove.push_back(specs[a].name);
        --active;
        break;
      }
      case ChurnEventKind::kRerate: {
        core::AppSpec spec = specs[a];
        spec.min_interarrival = event.min_interarrival;
        delta.rerate.push_back(std::move(spec));
        break;
      }
    }

    const std::vector<std::vector<std::string>> before =
        slot_names_of(standing);
    core::Solution next;
    try {
      next = session.redimension(delta);
    } catch (const std::exception& e) {
      note_churn_disagreement(
          it,
          std::string("redimension threw on a well-formed ") +
              churn_event_kind_name(event.kind) + " delta: " + e.what(),
          report);
      return;
    }
    ++report.redimension_events;

    const oracle::SolveStats& stats = next.stats;
    if (stats.redimension_removals + stats.redimension_refits +
            stats.redimension_new_slots !=
        stats.redimension_events)
      note_churn_disagreement(it, "redimension counters do not balance",
                              report);

    if (event.kind == ChurnEventKind::kRemove) {
      // Removal-only deltas are proof-free and byte-identical on the
      // remaining slots.
      if (stats.oracle_calls != 0 || stats.verifier_states != 0)
        note_churn_disagreement(
            it, "removal-only delta generated oracle traffic", report);
      std::vector<std::vector<std::string>> expected = before;
      for (std::vector<std::string>& slot : expected)
        slot.erase(std::remove(slot.begin(), slot.end(), specs[a].name),
                   slot.end());
      expected.erase(
          std::remove_if(expected.begin(), expected.end(),
                         [](const std::vector<std::string>& slot) {
                           return slot.empty();
                         }),
          expected.end());
      if (slot_names_of(next) != expected)
        note_churn_disagreement(
            it, "removal-only delta changed the remaining slots", report);
    }

    // Fresh admission proof per proposed slot: the standing assignment
    // must always be one a cold verifier accepts.
    for (std::size_t s = 0; s < next.proposed.slots.size(); ++s) {
      Population population;
      for (const int m : next.proposed.slots[s])
        population.push_back(next.apps[static_cast<std::size_t>(m)].timing);
      const std::optional<verify::SlotVerdict> fresh =
          guarded_verify(population, vopt, false);
      if (!fresh) {
        ++report.skipped_budget;
        continue;
      }
      if (!fresh->safe)
        note_churn_disagreement(
            it,
            "standing slot " + std::to_string(s) +
                " fails its fresh admission proof after a " +
                churn_event_kind_name(event.kind) + " delta",
            report);
    }

    standing = std::move(next);
  }

  // From-scratch cross-check of the final population: the churned specs
  // must still solve, and analysis purity means the fresh solve's
  // per-application artefacts equal the session's, whatever path the
  // session took to get here. (The assignments may differ — the standing
  // one is history-dependent by design — so they are not compared.)
  try {
    const core::Solution fresh = core::solve(session.specs(), opts);
    for (const core::AppSolution& app : fresh.apps) {
      const core::AppSolution* mine = nullptr;
      for (const core::AppSolution& candidate : standing.apps)
        if (candidate.spec.name == app.spec.name) mine = &candidate;
      if (mine == nullptr ||
          mine->timing.t_star_w != app.timing.t_star_w ||
          mine->timing.t_minus != app.timing.t_minus ||
          mine->timing.t_plus != app.timing.t_plus ||
          mine->timing.min_interarrival != app.timing.min_interarrival) {
        note_churn_disagreement(
            it,
            "from-scratch solve analysis differs for " + app.spec.name,
            report);
      }
    }
  } catch (const std::invalid_argument& e) {
    note_churn_disagreement(
        it,
        std::string("from-scratch solve of the churned population threw: ") +
            e.what(),
        report);
  }
}

}  // namespace

sched::Scenario witness_scenario(const verify::SlotVerdict& verdict,
                                 std::size_t napps) {
  TTDIM_EXPECTS(!verdict.witness_ticks.empty());
  sched::Scenario sc;
  sc.horizon = static_cast<int>(verdict.witness_ticks.size()) + 2;
  sc.disturbances.assign(napps, {});
  sc.forced_grants.assign(static_cast<std::size_t>(sc.horizon), -1);
  for (std::size_t t = 0; t < verdict.witness_ticks.size(); ++t) {
    const verify::WitnessTick& tick = verdict.witness_ticks[t];
    for (const int app : tick.disturbed)
      sc.disturbances[static_cast<std::size_t>(app)].push_back(
          static_cast<int>(t));
    sc.forced_grants[t] = tick.granted;
  }
  return sc;
}

sched::Scenario hyperperiod_scenario(
    const std::vector<verify::AppTiming>& apps) {
  TTDIM_EXPECTS(!apps.empty());
  long long span = 1;
  for (const verify::AppTiming& app : apps) {
    const long long r = app.min_interarrival;
    span = span / std::gcd(span, r) * r;
    if (span > 4096) {
      span = 4096;
      break;
    }
  }
  sched::Scenario sc;
  sc.disturbances.assign(apps.size(), {});
  long long horizon = 1;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const verify::AppTiming& app = apps[i];
    const long long window =
        app.t_star_w +
        *std::max_element(app.t_plus.begin(), app.t_plus.end());
    for (long long t = 0; t < span; t += app.min_interarrival) {
      sc.disturbances[i].push_back(static_cast<int>(t));
      horizon = std::max(horizon, t + window + 2);
    }
  }
  TTDIM_CHECK(horizon <= std::numeric_limits<int>::max());
  sc.horizon = static_cast<int>(horizon);
  return sc;
}

std::vector<std::string> FuzzReport::missing_coverage() const {
  std::vector<std::string> missing;
  const std::pair<const char*, long> tiers[] = {
      {"exact", exact_hits},
      {"subsumption_safe", subsumption_hits},
      {"subsumption_cut", subsumption_cuts},
      {"prefix", prefix_hits},
      {"fresh", fresh_proofs},
  };
  for (const auto& [name, count] : tiers)
    if (count == 0) missing.push_back(std::string("tier:") + name);
  if (disk_enabled && disk_hits == 0) missing.push_back("tier:disk");
  if (parallel_checks == 0) missing.push_back("config:parallel");
  if (redimension_expected && redimension_checks == 0)
    missing.push_back("config:redimension");
  std::vector<std::string> kinds;
  for (const ScenarioKind kind : kAllScenarioKinds)
    kinds.emplace_back(scenario_kind_name(kind));
  kinds.emplace_back("hyperperiod");
  for (const std::string& kind : kinds) {
    const auto found = scenario_kind_counts.find(kind);
    if (found == scenario_kind_counts.end() || found->second == 0)
      missing.push_back("kind:" + kind);
  }
  return missing;
}

std::string FuzzReport::to_string() const {
  std::ostringstream out;
  out << "ttdim-fuzz report\n";
  out << "seed " << seed << "\n";
  out << "iterations " << iterations << "\n";
  out << "systems " << systems << "\n";
  out << "skipped_budget " << skipped_budget << "\n";
  out << "solve_checks " << solve_checks << "\n";
  out << "probes " << probes << "\n";
  out << "scenarios_simulated " << scenarios_simulated << "\n";
  out << "tier exact " << exact_hits << "\n";
  out << "tier subsumption_safe " << subsumption_hits << "\n";
  out << "tier subsumption_cut " << subsumption_cuts << "\n";
  out << "tier prefix " << prefix_hits << "\n";
  out << "tier fresh " << fresh_proofs << "\n";
  if (disk_enabled) out << "tier disk " << disk_hits << "\n";
  out << "parallel_checks " << parallel_checks << "\n";
  out << "redimension_checks " << redimension_checks << "\n";
  out << "redimension_events " << redimension_events << "\n";
  for (const auto& [kind, count] : scenario_kind_counts)
    out << "kind " << kind << " " << count << "\n";
  out << "disagreements " << disagreements << "\n";
  for (const std::string& line : disagreement_summaries)
    out << "disagreement " << line << "\n";
  for (const std::string& path : artifact_paths)
    out << "artifact " << path << "\n";
  for (const std::string& entry : missing_coverage())
    out << "missing " << entry << "\n";
  return out.str();
}

FuzzReport run_soundness_fuzz(const FuzzConfig& config) {
  TTDIM_EXPECTS(config.iterations >= 0);
  FuzzReport report;
  report.seed = config.seed;
  FamilyCaches family;
  if (!config.disk_cache_dir.empty()) {
    family.disk = std::make_shared<cache::DiskCache>(config.disk_cache_dir);
    report.disk_enabled = true;
  }
  report.redimension_expected = config.solve_every > 0;
  const auto start = std::chrono::steady_clock::now();
  for (long it = 0; it < config.iterations; ++it) {
    if (config.max_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= config.max_seconds) break;
    }
    ++report.iterations;
    run_iteration(it, config, family, report);
    if (config.solve_every > 0 && (it + 1) % config.solve_every == 0) {
      run_solve_check(it, config, family, report);
      run_churn_check(it, config, family, report);
    }
  }
  return report;
}

ReplayResult replay(const Artifact& artifact) {
  return replay(artifact, nullptr);
}

ReplayResult replay(const Artifact& artifact,
                    const std::shared_ptr<engine::cache::DiskCache>& disk) {
  ReplayResult result;
  verify::DiscreteVerifier::Options opt;
  opt.policy = artifact.policy;
  opt.max_disturbances_per_app = artifact.max_disturbances_per_app;
  opt.max_states = artifact.max_states;
  const std::optional<verify::SlotVerdict> fresh =
      guarded_verify(artifact.apps, opt, false);
  if (!fresh) {
    result.message = "state budget exhausted re-verifying the claim";
    return result;
  }
  if (disk != nullptr) {
    // Disk-backed oracle cross-check: an entry a prior process persisted
    // for this population must agree with the fresh proof above; a miss
    // writes the proof (warming the directory for a following campaign).
    const oracle::IncrementalAdmissionOracle via_disk(
        opt, std::make_shared<oracle::VerdictCache>(),
        std::make_shared<oracle::SnapshotCache>(), true, disk);
    try {
      if (via_disk.admit(artifact.apps) != fresh->safe) {
        result.message =
            std::string("disk-tier verdict mismatch: fresh verifier says ") +
            (fresh->safe ? "safe" : "unsafe") +
            ", disk-backed oracle disagrees";
        return result;
      }
    } catch (const std::runtime_error&) {
      // State budget through the oracle path: inconclusive, not a failure.
    }
  }
  if (fresh->safe != artifact.claimed_safe) {
    result.message = std::string("claim mismatch: artifact claims ") +
                     (artifact.claimed_safe ? "safe" : "unsafe") +
                     ", fresh verifier says " +
                     (fresh->safe ? "safe" : "unsafe");
    return result;
  }
  SimOutcome out;
  try {
    out = simulate_checked(artifact.apps, artifact.scenario, artifact.policy);
  } catch (const std::exception& e) {
    result.message = std::string("scenario rejected: ") + e.what();
    return result;
  }
  const bool expect_violation =
      artifact.expect_violator != -1 || artifact.expect_violation_tick != -1;
  if (out.violated != expect_violation) {
    result.message = out.violated
                         ? "unexpected deadline violation (app " +
                               std::to_string(out.violator) + " at tick " +
                               std::to_string(out.tick) + ")"
                         : "expected deadline violation did not occur";
    return result;
  }
  if (out.violated) {
    if (artifact.expect_violator != -1 &&
        out.violator != artifact.expect_violator) {
      result.message = "violator mismatch: expected " +
                       std::to_string(artifact.expect_violator) + ", got " +
                       std::to_string(out.violator);
      return result;
    }
    if (artifact.expect_violation_tick >= 0 &&
        out.tick != artifact.expect_violation_tick) {
      result.message = "violation tick mismatch: expected " +
                       std::to_string(artifact.expect_violation_tick) +
                       ", got " + std::to_string(out.tick);
      return result;
    }
    if (artifact.claimed_safe) {
      result.message = "claimed safe but the scenario misses a deadline";
      return result;
    }
  }
  result.ok = true;
  result.message = "ok";
  return result;
}

namespace {

verify::AppTiming uniform_app(const std::string& name, int t_star,
                              int t_minus, int t_plus, int r) {
  verify::AppTiming app;
  app.name = name;
  app.t_star_w = t_star;
  app.t_minus.assign(static_cast<std::size_t>(t_star) + 1, t_minus);
  app.t_plus.assign(static_cast<std::size_t>(t_star) + 1, t_plus);
  app.min_interarrival = r;
  app.validate();
  return app;
}

}  // namespace

std::vector<std::string> mint_seed_corpus(const std::string& dir) {
  std::vector<std::string> written;
  const auto finish = [&](Artifact artifact) {
    const ReplayResult check = replay(artifact);
    if (!check.ok)
      throw std::logic_error("mint_seed_corpus: '" + artifact.description +
                             "' does not replay green: " + check.message);
    written.push_back(save_artifact(artifact, dir));
  };
  const auto base = [](const std::string& description,
                       const std::string& kind, bool safe,
                       Population apps) {
    Artifact a;
    a.description = description;
    a.scenario_kind = kind;
    a.claimed_safe = safe;
    a.max_states = 2'000'000;
    a.apps = std::move(apps);
    return a;
  };
  verify::DiscreteVerifier::Options opt;
  opt.max_states = 2'000'000;

  // 1-2. A safe uniform pair (claim pinned by a fresh proof at mint time)
  // under the canonical burst and the adversarial coincidence patterns.
  {
    const Population apps{uniform_app("A", 3, 1, 2, 12),
                          uniform_app("B", 3, 1, 2, 12)};
    TTDIM_CHECK(guarded_verify(apps, opt, false)->safe);
    ScenarioGenerator gen(apps, 7);
    Artifact burst = base("seed corpus: safe uniform pair, burst", "burst",
                          true, apps);
    burst.scenario = gen.burst(2);
    finish(std::move(burst));
    Artifact coincidence =
        base("seed corpus: safe uniform pair, worst-case coincidence",
             "coincidence", true, apps);
    coincidence.scenario = gen.worst_case_coincidence(0);
    finish(std::move(coincidence));
  }

  // 3. An unsafe pair (two zero-wait-tolerance apps colliding) whose
  // verifier witness replays the violation with forced grants.
  {
    const Population apps{uniform_app("U0", 0, 2, 2, 4),
                          uniform_app("U1", 0, 2, 2, 4)};
    const std::optional<verify::SlotVerdict> wit =
        guarded_verify(apps, opt, true);
    TTDIM_CHECK(wit.has_value() && !wit->safe);
    Artifact witness =
        base("seed corpus: unsafe zero-tolerance pair, witness replay",
             "witness", false, apps);
    witness.scenario = witness_scenario(*wit, apps.size());
    const SimOutcome out =
        simulate_checked(apps, witness.scenario, witness.policy);
    TTDIM_CHECK(out.violated);
    witness.expect_violator = out.violator;
    witness.expect_violation_tick = out.tick;
    finish(std::move(witness));
  }

  // 4-8. A mixed skew trio (safe — pinned by a fresh proof) under every
  // remaining scenario kind, so the checked-in corpus alone touches all
  // provenance kinds.
  {
    const Population apps{uniform_app("M0", 2, 1, 2, 10),
                          uniform_app("M1", 3, 1, 3, 12),
                          uniform_app("M2", 1, 1, 1, 8)};
    TTDIM_CHECK(guarded_verify(apps, opt, false)->safe);
    ScenarioGenerator gen(apps, 21);
    const std::pair<const char*, sched::Scenario> entries[] = {
        {"staggered", gen.staggered(3, 2)},
        {"random", gen.random(2, 5)},
        {"correlated", gen.correlated(3, 4)},
        {"system_adversarial",
         gen.system_adversarial({{0, 1}, {2}}, {0, 2})},
        {"churn", gen.churn(2, 2)},
        {"hyperperiod", hyperperiod_scenario(apps)},
    };
    for (const auto& [kind, scenario] : entries) {
      Artifact a = base(std::string("seed corpus: safe skew trio, ") + kind,
                        kind, true, apps);
      a.scenario = scenario;
      finish(std::move(a));
    }
  }
  return written;
}

}  // namespace ttdim::engine::fuzz
