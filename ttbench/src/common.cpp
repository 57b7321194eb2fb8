#include <algorithm>
#include <numeric>
#include <random>

#include "casestudy/apps.h"
#include "engine/fingerprint.h"
#include "support/codec.h"
#include "workload.h"

namespace ttbench {

using ttdim::core::Solution;
using ttdim::engine::oracle::SolveStats;

std::vector<ttdim::core::AppSpec> case_study_specs() {
  std::vector<ttdim::core::AppSpec> specs;
  for (const ttdim::casestudy::App& app : ttdim::casestudy::all_apps())
    specs.push_back({app.name, app.plant, app.kt, app.ke,
                     app.min_interarrival, app.settling_requirement});
  return specs;
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<int> permutation(int n, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  // Fisher-Yates with an explicit draw: std::shuffle's algorithm is
  // implementation-defined, and the same seed must give the same inputs.
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

WorkCounts zero_work() {
  return {{"ops", 0},
          {"oracle.tier1", 0},
          {"oracle.tier2", 0},
          {"oracle.tier3", 0},
          {"oracle.tier4", 0},
          {"verify.states", 0},
          {"analysis.misses", 0},
          {"disk.reads", 0},
          {"redim.refits", 0},
          {"redim.conflicts", 0},
          {"redim.new_slots", 0}};
}

void add_stats_work(WorkCounts& work, const SolveStats& stats) {
  work["oracle.tier1"] += stats.cache_hits;
  work["oracle.tier2"] += stats.subsumption_hits + stats.subsumption_cuts;
  work["oracle.tier3"] += stats.prefix_hits;
  work["oracle.tier4"] += stats.cache_misses - stats.prefix_hits;
  work["verify.states"] += stats.verifier_states;
  work["redim.refits"] += stats.redimension_refits;
  work["redim.conflicts"] += stats.redimension_conflicts;
  work["redim.new_slots"] += stats.redimension_new_slots;
}

void add_stats_counters(LayerCounters& c, const SolveStats& stats) {
  c.add("stability_ms", stats.stability_ms);
  c.add("dwell_ms", stats.dwell_ms);
  c.add("analysis_ms", stats.analysis_ms);
  c.add("analysis_hits", static_cast<double>(stats.analysis_hits));
  c.add("analysis_lookups",
        static_cast<double>(stats.analysis_hits + stats.analysis_misses));
  c.add("probes", static_cast<double>(stats.oracle_calls));
  c.add("tier1", static_cast<double>(stats.cache_hits));
  c.add("tier2",
        static_cast<double>(stats.subsumption_hits + stats.subsumption_cuts));
  c.add("tier3", static_cast<double>(stats.prefix_hits));
  c.add("tier4", static_cast<double>(stats.cache_misses - stats.prefix_hits));
  c.add("states", static_cast<double>(stats.verifier_states));
  c.add("states_reused", static_cast<double>(stats.states_reused));
  c.add("states_extended", static_cast<double>(stats.states_extended));
  if (stats.cache_misses > 0) c.add("verify_ms", stats.mapping_ms);
  c.add("baseline_ms", stats.baseline_ms);
  // A lone probe's tier is known exactly, so the op's mapping time is
  // that probe's latency (plus first-fit glue of microseconds).
  if (stats.oracle_calls == 1) {
    std::string tier = "tier4";
    if (stats.cache_hits == 1)
      tier = "tier1";
    else if (stats.subsumption_hits + stats.subsumption_cuts == 1)
      tier = "tier2";
    else if (stats.prefix_hits == 1)
      tier = "tier3";
    c.samples["probe_ms." + tier].push_back(stats.mapping_ms);
  }
}

void attribute_phases(Tracer& tracer, const SolveStats& stats,
                      const std::string& analysis_layer,
                      const std::string& answered_layer) {
  tracer.attribute(analysis_layer, "analysis phase", stats.analysis_ms);
  tracer.attribute(stats.cache_misses > 0 ? "verify" : answered_layer,
                   "mapping phase", stats.mapping_ms);
  tracer.attribute("sched", "baseline phase", stats.baseline_ms);
}

bool codec_probe(Tracer& tracer, LayerCounters& counters,
                 const Solution& solution) {
  tracer.set_op(kOutside);
  const Clock::time_point start = Clock::now();
  Solution decoded;
  bool ok = false;
  {
    Tracer::Scope span(&tracer, "engine.cache", "codec round trip");
    std::string bytes;
    ttdim::support::codec::Encoder enc(bytes);
    ttdim::core::encode_solution(enc, solution);
    ttdim::support::codec::Decoder dec(bytes);
    ok = ttdim::core::decode_solution(dec, decoded) && dec.done();
  }
  counters.add("codec_us", ms_since(start) * 1000.0);
  counters.add("codec_round_trips", 1.0);
  tracer.set_op(kPassSpan);
  return ok && ttdim::engine::fingerprint(decoded) ==
                   ttdim::engine::fingerprint(solution);
}

}  // namespace ttbench
