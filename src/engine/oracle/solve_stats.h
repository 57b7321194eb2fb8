// Lightweight per-solve instrumentation, threaded from core::solve up
// through BatchRunner to benches and (eventually) the serve API. Wall
// times are measurement, not result: they are deliberately excluded from
// engine::fingerprint so instrumented and uninstrumented solves stay
// byte-identical.
#pragma once

#include <chrono>
#include <string>

namespace ttdim::engine::oracle {

/// Milliseconds elapsed since `start` — the phase-timing helper shared
/// by every layer that stamps SolveStats fields.
[[nodiscard]] inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct SolveStats {
  // Time per phase, milliseconds. stability_ms and dwell_ms are the
  // *cold* analysis cost: they sum the per-application compute durations
  // of analysis-cache misses only (hits cost microseconds and report
  // zero), so with analysis_threads > 1 they are aggregate busy time
  // (can exceed total_ms); they equal the cold phase wall time in the
  // default serial configuration. analysis_ms is the wall time of the
  // whole per-app phase, warm or cold — the warm/cold split is
  // analysis_ms vs (stability_ms + dwell_ms). mapping_ms, baseline_ms
  // and total_ms are always wall time.
  double analysis_ms = 0.0;   ///< per-app phase wall time (cache incl.)
  double stability_ms = 0.0;  ///< switching-stability checks (misses only)
  double dwell_ms = 0.0;      ///< dwell-table searches (misses only)
  double mapping_ms = 0.0;    ///< proposed first-fit incl. admission proofs
  double baseline_ms = 0.0;   ///< both baseline mappings
  double total_ms = 0.0;

  // Admission-oracle counters (proposed mapping only; the baselines use
  // the closed-form [9] analysis, not the verifier). The four tiers of
  // the incremental oracle report as: cache_hits (tier 1, exact
  // verdict), subsumption_hits/subsumption_cuts (tier 2, answered by
  // multiset inclusion against proven populations — no verifier run, so
  // they count in neither cache_hits nor cache_misses), prefix_hits
  // (tier 3, extended a cached reachable-set snapshot), and the
  // remainder of cache_misses (tier 4, proved from scratch):
  // oracle_calls = cache_hits + subsumption_hits + subsumption_cuts +
  // cache_misses.
  long oracle_calls = 0;      ///< admission queries posed by the walk
  long cache_hits = 0;        ///< answered from the VerdictCache
  long subsumption_hits = 0;  ///< safe by inclusion in a safe population
  long subsumption_cuts = 0;  ///< unsafe by including an unsafe population
  long cache_misses = 0;      ///< required a DiscreteVerifier run
  long verifier_states = 0;   ///< states explored by verifier runs
  long prefix_hits = 0;       ///< runs seeded from a prefix snapshot
  long states_reused = 0;     ///< states seeded instead of re-derived
  long states_extended = 0;   ///< states explored beyond the seeds

  // Analysis-cache counters (engine/analysis): per-app stability/dwell
  // results answered from the content-addressed AnalysisCache vs
  // computed fresh. Evictions are the cache-wide delta observed across
  // this solve — approximate when the cache is shared with concurrent
  // jobs, exact otherwise.
  long analysis_hits = 0;
  long analysis_misses = 0;
  long analysis_evictions = 0;

  // Disk-tier counters (engine/cache/disk_cache.h): the delta of the
  // shared DiskCache's monotonic counters observed across this solve —
  // approximate when the directory is shared with concurrent jobs,
  // exact otherwise. disk_hits spans all three spaces (analysis,
  // verdict, solution); a disk analysis/verdict hit ALSO counts in the
  // corresponding memory-tier hit counter above, because the disk tier
  // answers by populating the memory tier.
  long disk_hits = 0;
  long disk_misses = 0;
  long disk_writes = 0;
  long disk_trims = 0;

  // Whole-solve result cache (engine/cache/solution_cache.h): 1/0 per
  // solve — a hit short-circuits the entire pipeline, so every other
  // counter in this struct is zero on a solution hit.
  long solution_hits = 0;
  long solution_misses = 0;

  // Online re-dimensioning (core::DimensioningSession::redimension):
  // zero on a fresh solve. events counts the delta entries applied;
  // removals are proof-free (antitone admission); refits are re-rates
  // kept in place plus re-rates/additions first-fit into an existing
  // slot; conflicts are re-rates whose current slot rejected the new
  // timing (the fallback re-placement then counts as a refit or a new
  // slot); new_slots are dedicated slots opened when no existing slot
  // admitted. removals + refits + new_slots = events.
  long redimension_events = 0;
  long redimension_removals = 0;
  long redimension_refits = 0;
  long redimension_conflicts = 0;
  long redimension_new_slots = 0;

  int analysis_threads = 1;   ///< thread budget of the per-app phase
  int proof_threads = 1;      ///< thread budget per admission proof

  /// One-line human-readable form for benches and logs.
  [[nodiscard]] std::string summary() const;
};

/// Element-wise sum of the counters and times (thread counts keep the
/// maximum) — BatchRunner-level aggregation.
[[nodiscard]] SolveStats operator+(const SolveStats& a, const SolveStats& b);

}  // namespace ttdim::engine::oracle
