#include "engine/oracle/solve_stats.h"

#include <algorithm>
#include <cstdio>

namespace ttdim::engine::oracle {

std::string SolveStats::summary() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "total %.1f ms (analysis %.1f [cold: stability %.1f, dwell %.1f], "
      "mapping %.1f, baseline %.1f) | analysis cache %ld hits, %ld misses, "
      "%ld evictions | oracle %ld calls, %ld hits, %ld misses, %ld states | "
      "subsumption %ld hits, %ld cuts | prefix %ld hits, %ld reused, "
      "%ld extended | proofs @%d threads | disk %ld hits, "
      "%ld misses, %ld writes, %ld trims | solution %ld hits, %ld misses | "
      "redim %ld events: %ld removals, %ld refits, %ld conflicts, "
      "%ld new slots",
      total_ms, analysis_ms, stability_ms, dwell_ms, mapping_ms, baseline_ms,
      analysis_hits, analysis_misses, analysis_evictions, oracle_calls,
      cache_hits, cache_misses, verifier_states, subsumption_hits,
      subsumption_cuts, prefix_hits, states_reused, states_extended,
      proof_threads, disk_hits, disk_misses, disk_writes,
      disk_trims, solution_hits, solution_misses, redimension_events,
      redimension_removals, redimension_refits, redimension_conflicts,
      redimension_new_slots);
  return buf;
}

SolveStats operator+(const SolveStats& a, const SolveStats& b) {
  SolveStats out;
  out.analysis_ms = a.analysis_ms + b.analysis_ms;
  out.stability_ms = a.stability_ms + b.stability_ms;
  out.dwell_ms = a.dwell_ms + b.dwell_ms;
  out.mapping_ms = a.mapping_ms + b.mapping_ms;
  out.baseline_ms = a.baseline_ms + b.baseline_ms;
  out.total_ms = a.total_ms + b.total_ms;
  out.oracle_calls = a.oracle_calls + b.oracle_calls;
  out.cache_hits = a.cache_hits + b.cache_hits;
  out.subsumption_hits = a.subsumption_hits + b.subsumption_hits;
  out.subsumption_cuts = a.subsumption_cuts + b.subsumption_cuts;
  out.cache_misses = a.cache_misses + b.cache_misses;
  out.verifier_states = a.verifier_states + b.verifier_states;
  out.prefix_hits = a.prefix_hits + b.prefix_hits;
  out.states_reused = a.states_reused + b.states_reused;
  out.states_extended = a.states_extended + b.states_extended;
  out.analysis_hits = a.analysis_hits + b.analysis_hits;
  out.analysis_misses = a.analysis_misses + b.analysis_misses;
  out.analysis_evictions = a.analysis_evictions + b.analysis_evictions;
  out.disk_hits = a.disk_hits + b.disk_hits;
  out.disk_misses = a.disk_misses + b.disk_misses;
  out.disk_writes = a.disk_writes + b.disk_writes;
  out.disk_trims = a.disk_trims + b.disk_trims;
  out.solution_hits = a.solution_hits + b.solution_hits;
  out.solution_misses = a.solution_misses + b.solution_misses;
  out.redimension_events = a.redimension_events + b.redimension_events;
  out.redimension_removals = a.redimension_removals + b.redimension_removals;
  out.redimension_refits = a.redimension_refits + b.redimension_refits;
  out.redimension_conflicts =
      a.redimension_conflicts + b.redimension_conflicts;
  out.redimension_new_slots =
      a.redimension_new_slots + b.redimension_new_slots;
  out.analysis_threads = std::max(a.analysis_threads, b.analysis_threads);
  out.proof_threads = std::max(a.proof_threads, b.proof_threads);
  return out;
}

}  // namespace ttdim::engine::oracle
